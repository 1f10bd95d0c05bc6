// Package pmkv is a durable key-value engine built on the epoch-persistency
// runtime. Every Put/Delete is translated online into stores to one entry —
// the key's new value, or a one-line tombstone — as the requests arrive,
// and each request's response is computed then. The ops wait in the open
// commit window, one share per core, until the window is pumped: only then
// are they fed to the simulated multicore's cores with machine.Feed, as the
// two sides of each core's window barrier. Before it go the core's entry
// stores, first so their misses overlap the loads, then the reads that
// observe another core's unpersisted entry and the writes' index probes;
// after it go the reads that order nothing, so the window's epoch persists
// while the core serves them (see coreWindow).
// Every load is a posted load (trace.PostedLoad), so a window's loads
// overlap each other as an out-of-order core's misses would, and every
// entry store a whole-line store (trace.StoreLine): an entry is written
// whole into lines nothing reads the old bytes of, so the core takes each
// line without fetching it from NVRAM.
// Client sessions multiplex onto cores.
//
// The layout goes beyond the paper's Figure 10. Figure 10 writes the entry,
// issues a persist barrier and then publishes the entry by storing a
// bucket-head pointer; here an entry is persisted and nothing else, the
// way link-free durable sets persist only their nodes. A write pays no
// barrier of its own: each core that wrote in a commit window gets one
// barrier when the window is pumped, which closes the epoch holding all of
// that core's entries. The bucket line a request touches is a load only,
// the probe of the volatile index (the machine models no DRAM, so the
// index lives in simulated persistent memory but is never written).
//
// A key's order is its record index — the engine's mutation order, which
// extends each session's program order. Recovery and the settled view
// agree on one rule: per key, the complete entry with the highest index
// wins. What this gives up against Figure 10 is a per-session durable
// prefix inside an unacked window: a core's entries of one window share
// one epoch and may reach NVRAM in any order, so after a crash a session's
// later write of a window can survive an earlier one. Acks stay gated on
// the durable watermark, which passes records in index order, so an acked
// op still implies every earlier record is durable. Across windows the
// per-core epoch order and the machine's inter-thread dependences (a read
// loads the entry it answers from) still order what a client could have
// seen.
//
// Entry lines are recycled, under one rule: a key's newest durable entry,
// tombstone included, is never freed; its lines are freed only when a
// later entry of the key folds. The fold — which runs behind the durable
// watermark — returns the superseded entry's lines to a free list, and a
// write takes its lines from that list before it carves new ones, so the
// persistent heap, and with it every per-line structure of the machine,
// is as large as the live data plus the in-flight window, and a write
// mostly rewrites lines the caches still hold (see entryLinesFor).
//
// The engine does not simulate data bytes (the machine is version-based);
// it keeps the values itself — in the checkpoint of durable entries and,
// until the durable watermark passes them, in the mutation records — and
// correlates logical writes with the durable image through store tokens:
// each entry line store carries a token, the machine reports the committed
// version per tag, and recovery keeps exactly the entries whose versions
// reached NVRAM. A read observes its session's own writes in the open
// commit window, else the key's newest retired write (see observedRead).
// Verify checks the §5 invariants (epoch order, prefix closure), that no
// live entry was overwritten, and that the store serves what recovery
// rebuilds.
package pmkv

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/machine"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// Address-space layout. The index's bucket lines and the entries live well
// below the machine's checkpoint region (1<<40) and far from the low
// addresses the canned workloads use.
const (
	indexBase = mem.Addr(0x2000_0000)
	entryBase = mem.Addr(0x4000_0000)
)

// Op enumerates client operations.
type Op uint8

const (
	// Get reads a key (loads only; persists nothing).
	Get Op = iota
	// Put writes a key: the stores of one entry holding its value.
	Put
	// Delete removes a key: the store of a one-line tombstone entry.
	Delete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Get:
		return "get"
	case Put:
		return "put"
	case Delete:
		return "del"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// DefaultBuckets is the bucket count a zero Config.Buckets selects, and
// pmkvd's -buckets default. A bucket is one line of the volatile index,
// which every request loads and nothing stores to, so the count sets only
// how many lines the probes spread over. 512 index lines fill a 512-line
// L1 rather than stay in it: on engine-crash's script the probe misses L1
// 43 % of the time. 512 was sized when buckets were persistent heads
// (EXPERIMENTS.md, "Sizing the bucket table") and is kept because it gives
// the index 8 bytes per key at 4 096 keys; packing more heads per line
// would make the probes cheaper only by modelling an index smaller than
// its keys need.
const DefaultBuckets = 512

// MaxBuckets is the largest bucket count whose index lines all lie below
// the first entry line.
const MaxBuckets = int((entryBase - indexBase) / mem.LineSize)

// Config sizes the engine.
type Config struct {
	// Machine is the simulated multicore. Zero value selects SmallMachine.
	Machine machine.Config
	// Buckets is the index's bucket count, one probed line each (default
	// DefaultBuckets, at most MaxBuckets).
	Buckets int
	// CrashAt, when nonzero, is the cycle at which the simulated machine
	// loses power: execution never advances past it, and Close returns the
	// NVRAM image as of that instant.
	CrashAt sim.Cycle
	// Check enables the online durable-linearizability tracker
	// (internal/dlcheck): every read observation, publish, and
	// durability-gated ack is recorded, and CheckDL decides the verdict
	// against the final image. Off by default; when off the observation
	// hooks are nil-receiver no-ops costing zero allocations.
	Check bool
}

// SmallMachine is a 4-core LB++ machine suitable for interactive use and
// tests; history recording is on because recovery verification needs it.
func SmallMachine() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.LLCBanks = 4
	cfg.LLCSets = 64
	cfg.Model = machine.LB
	cfg.IDT = true
	cfg.PF = true
	cfg.RecordHistory = true
	return cfg
}

func (c *Config) fill() {
	if c.Machine.Cores == 0 {
		c.Machine = SmallMachine()
	}
	c.Machine.RecordHistory = true
	if c.Buckets <= 0 {
		c.Buckets = DefaultBuckets
	}
}

// gapCycles bounds one Gap step: the simulated think time between request
// batches in which only the background persist machinery runs. A window
// submitted but not yet pumped was fed nothing, so it does not run in a
// Gap either.
const gapCycles = sim.Cycle(200)

// Session is one client's ordered stream of operations. Sessions map onto
// cores round-robin; a session's requests execute in program order on its
// core, so its entries of different windows are ordered by per-core epoch
// order.
type Session struct {
	ID   int
	Core int
}

// Request is one client operation.
type Request struct {
	Sess  *Session
	Op    Op
	Key   string
	Value []byte
}

// Response answers a Request. A read (a Get, or a Delete's Found) observes
// the session's own writes in the open commit window — the SubmitAppend
// batches since the last completed PumpRetire — else the key's newest
// retired write: the checkpoint overlaid with the unfolded tail, the
// highest record index winning, as on the fast path and in recovery. Never
// another session's same-window write: same-window ops are concurrent in
// simulated time (none has executed until the pump runs), and the machine
// orders a reader's later persists after a foreign write only when the
// observation crosses a window boundary (the entry-line load hits the
// writer's unpersisted epoch), so that would be a dirty read durable
// linearizability cannot honor. translate leaves the settled view alone,
// so a window needs no snapshot of it; only a fold moves it under an open
// window, and a fold is an entry already in NVRAM, which the fast path
// serves at any moment anyway.
type Response struct {
	Found bool
	Value []byte
}

// OpRecord holds what the engine needs to audit one mutating operation
// against NVRAM, from translate until the durable watermark passes it: the
// record is then verified, folded into the checkpoint and released (see
// Engine.fold), so at most the in-flight window of them exists.
type OpRecord struct {
	// Idx is the record's absolute index in the engine's mutation order:
	// the key's order, and the name the checkpoint and the checker know the
	// write by.
	Idx  int
	Core int
	Op   Op
	Key  string
	// Token tags the entry's first line store: the stores cover the Entries
	// consecutive lines from EntryLine and carry tokens Token, Token+1, ...
	// in line order (the counter only moves forward). A Delete's tombstone
	// is one line.
	Token     uint64
	EntryLine mem.Line
	Entries   int
	// Value is the value this write installs (nil for Delete).
	Value []byte
}

// Engine is the durable KV store. All methods are safe for concurrent use;
// the simulated machine itself is single-threaded and serialized by mu.
type Engine struct {
	mu  sync.Mutex
	cfg Config
	m   *machine.Machine

	// A key's state has one home: the checkpoint overlaid with the unfolded
	// tail, the highest record index winning — the rule recovery keeps by
	// (see observedRead). live is the overlay: per key, the newest retired,
	// unfolded record. batch is the open commit window's newest write per
	// key and session, until settleLocked settles the window; records below
	// settled were retired in a closed window. All are bounded by what is
	// in flight.
	live    map[string]*OpRecord
	batch   map[windowKey]*OpRecord
	settled int

	// window[core] is the core's share of the open commit window, held
	// until the pump feeds it (see coreWindow).
	window []coreWindow

	// Arenas for the per-mutation state (value bytes, audit records) a
	// write needs until it is durable. Chunked bump allocation amortizes
	// the per-op cost to ~zero; nothing is freed by hand — fold drops the
	// last long-lived references into a chunk and the collector takes it
	// once every record carved from it has been released.
	valArena []byte
	recArena []OpRecord

	// dl observes ops for durable-linearizability checking; nil unless
	// cfg.Check (nil-receiver methods make disabled hooks free).
	dl *dlcheck.Tracker

	nextToken uint64
	sessions  int

	// The entry-line heap: nextEntry is the bump pointer, free the entries
	// whose lines were given back — one LIFO stack per power-of-two size
	// class (see entryLinesFor); until its lines are reused, NVRAM may
	// still hold a freed entry, which recovery's scan can find — and
	// recycled the lines taken off free again, counted at class size like
	// everything here.
	nextEntry mem.Addr
	free      [][]*cpEntry
	recycled  int

	// tail is the audit trail still owed a persist: the mutation records,
	// oldest first, that the durable watermark has not passed. Record
	// indices stay absolute — record i of the run is tail[i-durableCursor]
	// — and RecordCount keeps counting every record ever issued.
	tail []*OpRecord
	// durableCursor is the durable-prefix watermark: every record below it
	// had its whole entry durable in NVRAM when the cursor passed it, was
	// verified and folded into cp at that moment, and is gone. It only
	// moves forward, one cheap point query per record, so polling it
	// between batches is O(new durability) rather than O(history).
	durableCursor int
	// cp is the committed-state checkpoint: what remains of the records
	// below durableCursor. Fast GETs read it without the engine lock.
	cp *checkpoint
	// foldErr latches the first verification failure found while folding;
	// Verify returns it.
	foldErr error
	// keep is TrimHistory's per-core argument, reused across releases.
	keep []mem.Version
	// The Gap's stop test (gapWaiting), its state kept here so a Gap
	// allocates nothing: the Gap waits for records below gapTarget to be
	// durable, those below gapSeen already are, gapLines is the
	// persisted-line count it last looked at, and gapWait the method value
	// RunWhile calls, bound once.
	gapTarget, gapSeen int
	gapLines           uint64
	gapWait            func() bool
	// plant, set only by tests, makes fold misbehave in one named way so
	// the checkers can be shown to catch it.
	plant plantedBug

	crashed bool
	closed  bool
}

// New builds an engine on a fresh machine, fed as requests arrive. The
// engine's token correlation requires that two tagged stores to one line are
// never in flight at once: an entry line is rewritten only after the record
// that last stored to it was folded, hence retired (see entryLinesFor). Its
// durability rests on the one barrier per core per window closing the
// epoch that holds the window's entries, so the machine must use the LB
// model with programmer barriers: NP ignores barriers and bulk-epoch mode
// makes them transparent. Every pump must also finish its window, so the
// machine must split epochs to avoid deadlock (§3.3): without the split a
// pump can wedge with its window fed and never settled.
func New(cfg Config) (*Engine, error) {
	cfg.fill()
	if cfg.Machine.Model != machine.LB {
		return nil, fmt.Errorf("pmkv: machine model %v unsupported: the window barrier must close the entries' epoch (use machine.LB)", cfg.Machine.Model)
	}
	if cfg.Machine.BulkEpochStores > 0 {
		return nil, fmt.Errorf("pmkv: bulk-epoch mode (BulkEpochStores=%d) makes programmer barriers transparent; the window barrier would close nothing", cfg.Machine.BulkEpochStores)
	}
	if !cfg.Machine.EnableSplit {
		return nil, fmt.Errorf("pmkv: a machine without the deadlock-avoidance epoch split can wedge a pump (set EnableSplit)")
	}
	if cfg.Buckets > MaxBuckets {
		return nil, fmt.Errorf("pmkv: %d buckets would put index lines on entry lines (at most %d)", cfg.Buckets, MaxBuckets)
	}
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		m:         m,
		live:      make(map[string]*OpRecord),
		batch:     make(map[windowKey]*OpRecord),
		window:    make([]coreWindow, cfg.Machine.Cores),
		cp:        newCheckpoint(),
		keep:      make([]mem.Version, cfg.Machine.Cores),
		nextEntry: entryBase,
	}
	e.gapWait = e.gapWaiting
	if cfg.Check {
		e.dl = dlcheck.New()
	}
	return e, nil
}

// NewSession opens a client session, pinning it to a core round-robin.
func (e *Engine) NewSession() *Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Session{ID: e.sessions, Core: e.sessions % e.cfg.Machine.Cores}
	e.sessions++
	return s
}

// fnv1a hashes a key to its index bucket.
func (e *Engine) bucketOf(key string) int {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	return int(h % uint64(e.cfg.Buckets))
}

func (e *Engine) indexLine(bucket int) mem.Line {
	return mem.LineOf(indexBase + mem.Addr(bucket)*mem.LineSize)
}

// Arena chunk sizes: large enough that chunk turnover is rare under the
// shard workers' steady state, small enough that an idle engine wastes
// little and a chunk's last record is released soon after its first.
const (
	valArenaChunk = 64 << 10
	recArenaChunk = 256
)

// arenaBytes carves n bytes off the value arena. The returned slice has
// exactly capacity n (full slice expression), so an append by the caller
// can never bleed into a neighbouring value.
func (e *Engine) arenaBytes(n int) []byte {
	if len(e.valArena)+n > cap(e.valArena) {
		c := valArenaChunk
		if n > c {
			c = n
		}
		e.valArena = make([]byte, 0, c)
	}
	off := len(e.valArena)
	e.valArena = e.valArena[:off+n]
	return e.valArena[off : off+n : off+n]
}

// arenaRecord carves one OpRecord off the record arena.
func (e *Engine) arenaRecord() *OpRecord {
	if len(e.recArena) == cap(e.recArena) {
		e.recArena = make([]OpRecord, 0, recArenaChunk)
	}
	e.recArena = e.recArena[:len(e.recArena)+1]
	return &e.recArena[len(e.recArena)-1]
}

// lineSpan is a run of n consecutive lines starting at first. An entry's
// span is the n lines its value is stored to; it was carved from the heap
// at its size class, so the 1<<sizeClass(n) lines from first are its own.
type lineSpan struct {
	first mem.Line
	n     int
}

// sizeClass is the power-of-two class an n-line span is carved and reused
// at: class c spans are 1<<c lines long (1, 2, 3–4, 5–8, ... lines).
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// entryLinesFor finds lines for a value (at least one, so a tombstone has
// one; one line per 64 value bytes): the most recently freed span of the
// value's size class, which the caches most likely still hold, or — only
// when that class has none — new lines off the bump pointer.
//
// Reuse is safe under one rule: a key's newest durable entry, tombstone
// included, is never freed; its lines are freed only when a later entry
// of that key folds. Otherwise a crash image can lose the key's newest
// entry while an older one survives, and recovery brings back a value the
// key no longer had — for a tombstone, a deleted key resurrected. fold
// enforces it by being the only place that frees: it runs behind the
// durable watermark, under the engine lock, and frees the entry its key's
// newly durable entry superseded. The same placement keeps the machine's
// one-tagged-store-per-line constraint (the last record to store to a
// freed line retired before it could fold) and frees each span exactly
// once. Verify's check 5 is what notices a line rewritten too early.
func (e *Engine) entryLinesFor(value []byte) lineSpan {
	n := max(1, (len(value)+int(mem.LineSize)-1)/int(mem.LineSize))
	c := sizeClass(n)
	if c < len(e.free) && len(e.free[c]) > 0 {
		stack := e.free[c]
		e.free[c] = stack[:len(stack)-1]
		e.recycled += 1 << c
		return lineSpan{first: stack[len(stack)-1].span.first, n: n}
	}
	span := lineSpan{first: mem.LineOf(e.nextEntry), n: n}
	e.nextEntry += mem.Addr(1<<c) * mem.LineSize
	return span
}

// freeEntry gives an entry's lines back for reuse. Only fold may call it
// (see entryLinesFor).
func (e *Engine) freeEntry(en *cpEntry) {
	c := sizeClass(en.span.n)
	for len(e.free) <= c {
		e.free = append(e.free, nil)
	}
	e.free[c] = append(e.free[c], en)
}

// coreWindow is one core's share of the open commit window: the two sides
// of its window barrier, in three builders the pump feeds in turn, each in
// request order:
//
//   - stores: every entry store (Put values and Delete tombstones), each a
//     trace.StoreLine, since an entry is written whole;
//   - ordered: the rest of the barrier's near side — a Get's or Delete's
//     index probe and entry loads (and a Get's TxEnd) when the entry it
//     observes is not yet durable and was written on another core, and
//     every Put's index probe — then the window barrier if the core wrote;
//   - free: the far side — every other read, and the writes' TxEnds.
//
// A read orders the reader's later persists after a writer's only through
// its entry load, which adds the inter-thread dependence when it finds the
// writer's epoch unpersisted; a read that observes nothing, a folded
// (durable) entry or its own core's entry (which per-core epoch order
// already puts before anything the core persists later) orders nothing, so
// it runs after the barrier and the window's epoch starts persisting
// without waiting for it. The Put probes stay before the barrier, where
// their misses overlap the write-buffer drain it waits for (after it, the
// engine-crash ledger row measured 4.2 % more cycles). A window's ops are
// concurrent in simulated time, so only their order inside the window
// moves: the posted stores' misses overlap the loads that follow. Every
// probe and entry load is posted (trace.PostedLoad), so the loads overlap
// each other too; the barrier waits for the ordered loads before it closes
// the epoch, and the core waits for the free loads before it parks, so a
// pumped window has retired them all. A read's TxEnd does not wait for its
// loads. Feed copies, so the builders are reused window after window
// without allocating.
type coreWindow struct {
	stores, ordered, free trace.Builder
}

// windowKey names one session's writes of one key in the open window.
type windowKey struct {
	key  string
	sess int
}

// translate turns one request into ops appended to its core's share of
// the open window (a read's to the builder its observation picks; see
// coreWindow), and records a mutation in the audit trail and the open
// window — nowhere else: the settled view moves only when a window is
// settled or a record folds.
func (e *Engine) translate(req Request) (Response, error) {
	if req.Sess == nil {
		return Response{}, fmt.Errorf("pmkv: request without session")
	}
	core := req.Sess.Core
	if core < 0 || core >= len(e.window) {
		return Response{}, fmt.Errorf("pmkv: session %d bound to core %d of %d", req.Sess.ID, core, len(e.window))
	}
	if req.Op > Delete {
		return Response{}, fmt.Errorf("pmkv: unknown op %v", req.Op)
	}

	// Every request probes the volatile index: a Put's probe goes before the
	// barrier, a read's with its entry loads.
	w := &e.window[core]
	probe := e.indexLine(e.bucketOf(req.Key)).Addr()
	var resp Response
	if req.Op == Put {
		w.ordered.PostedLoad(probe)
		resp.Value = e.arenaBytes(len(req.Value))
		copy(resp.Value, req.Value)
		resp.Found = true
	} else {
		// A read loads what it reads, the entry that answers it: a Get for
		// its value, a Delete for its Found. That load is what orders the
		// reader's later persists after the writer's, when it orders
		// anything (see coreWindow).
		val, found, obsRec, span := e.observedRead(req.Sess.ID, req.Key)
		b := &w.free
		if e.ordersRead(obsRec, core) {
			b = &w.ordered
		}
		b.PostedLoad(probe)
		for i := 0; i < span.n; i++ {
			b.PostedLoad((span.first + mem.Line(i)).Addr())
		}
		e.dl.ObserveRead(req.Sess.ID, req.Key, obsRec)
		resp.Found = found
		if req.Op == Get {
			resp.Value = val
			b.TxEnd()
			return resp, nil
		}
	}
	val := resp.Value
	rec := e.arenaRecord()
	*rec = OpRecord{
		Idx: e.recordCount(), Core: core, Op: req.Op, Key: req.Key,
		Value: val, Token: e.nextToken + 1,
	}
	e.plantedEarlyFree(req.Sess.ID, req.Key)
	span := e.entryLinesFor(val)
	rec.EntryLine, rec.Entries = span.first, span.n
	for i := 0; i < span.n; i++ {
		e.nextToken++
		w.stores.StoreLine((span.first + mem.Line(i)).Addr(), e.nextToken)
	}
	w.free.TxEnd()
	e.batch[windowKey{req.Key, req.Sess.ID}] = rec
	e.tail = append(e.tail, rec)
	e.dl.ObserveWrite(req.Sess.ID, rec.Idx, req.Key)
	return resp, nil
}

// ordersRead reports whether a read on core that observes record rec must
// run before its core's window barrier: rec is not yet folded, so its entry
// may not be durable, and another core wrote it.
func (e *Engine) ordersRead(rec, core int) bool {
	if rec < e.durableCursor || e.plant == plantReadsAfterBarrier {
		return false
	}
	return e.tail[rec-e.durableCursor].Core != core
}

// crashLimit is the pump limit: the crash instant, or forever.
func (e *Engine) crashLimit() sim.Cycle {
	if e.cfg.CrashAt == 0 {
		return sim.MaxCycle
	}
	return e.cfg.CrashAt
}

// SubmitAppend translates a batch into the open commit window without
// feeding the machine anything — the front half of a group commit;
// PumpRetire then feeds each core its share of the window and advances
// the clock, and the window's epochs go on persisting under whatever is
// submitted next. Every request's response is computed here, in request
// order, and so is each read's side of its core's window barrier, from the
// record it observes (see coreWindow): reads observe the settled state plus
// their own session's writes in the open window (see Response), which
// spans every batch submitted since the last pump. The ops wait in their
// session's core's share of the window, so the requests of one window run
// concurrently in simulated time and a following SubmitAppend before the
// pump joins the same window. Responses reflect the volatile state
// immediately (it survives even if the machine crashes mid-batch —
// durability is judged later) and are appended to dst, so a committer
// reuses one response buffer per in-flight batch instead of allocating a
// fresh slice per commit.
func (e *Engine) SubmitAppend(dst []Response, batch []Request) ([]Response, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("pmkv: engine closed")
	}
	if e.crashed {
		return nil, ErrCrashed
	}
	for _, req := range batch {
		resp, err := e.translate(req)
		if err != nil {
			return nil, err
		}
		dst = append(dst, resp)
	}
	return dst, nil
}

// settleLocked ends the commit window, every op of which has retired: each
// key the window wrote is served, until it folds, from the window's writer
// with the highest record index — the entry recovery keeps. A window is
// fed only by the pump that settles it (or by Close), so none of its
// records can have folded yet: they are all in the tail.
func (e *Engine) settleLocked() {
	for _, r := range e.tail[e.settled-e.durableCursor:] {
		if l := e.live[r.Key]; e.plant == plantLowestIdxWinner && l != nil && l.Idx >= e.settled {
			continue
		}
		e.live[r.Key] = r
	}
	e.settled = e.recordCount()
	clear(e.batch)
}

// PumpRetire closes the commit window: it feeds each core the two sides of
// its window barrier — the entry stores, the reads that order another
// core's unpersisted entry before the window's and every Put's index probe,
// then, if the core wrote, the barrier, then every other read and the
// writes' TxEnds (see coreWindow) — then advances the machine until every
// fed op has retired (or the crash instant intervenes). Retirement is the
// ack point of the pipelined commit: visibility is settled and every fed
// entry sits in a closed epoch, while those epochs keep persisting in the
// background. New refuses a machine that can deadlock, so a deadlock error
// reports a machine fault.
func (e *Engine) PumpRetire() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("pmkv: engine closed")
	}
	if e.crashed {
		return ErrCrashed
	}
	// The window's barriers: each core that wrote gets one, so "everything
	// fed has retired" includes "every fed entry is in a closed epoch" and
	// the background machinery can persist it. Done here rather than per
	// SubmitAppend so the batches a caller submits before one pump share it.
	if err := e.feedWindowLocked(true); err != nil {
		return err
	}
	limit := e.crashLimit()
	if !e.m.PumpUntilIdle(limit) {
		if e.m.Deadlocked() {
			return fmt.Errorf("pmkv: machine deadlocked at cycle %d", e.m.Now())
		}
		e.crashed = true
		return ErrCrashed
	}
	// Every fed op retired: the commit window is over, its writes are
	// pre-window state for whatever is submitted next.
	e.settleLocked()
	return nil
}

// feedWindowLocked feeds each core its share of the open window — its
// stores, ordered ops and free ops (see coreWindow) — and, if barrier is
// set, a core that wrote in the window the window barrier between the
// ordered ops and the free ones.
func (e *Engine) feedWindowLocked(barrier bool) error {
	for core := range e.window {
		w := &e.window[core]
		if barrier && len(w.stores.Ops()) > 0 {
			w.ordered.Barrier()
		}
		for _, b := range [...]*trace.Builder{&w.stores, &w.ordered, &w.free} {
			if len(b.Ops()) == 0 {
				continue
			}
			if err := e.m.Feed(core, b.Ops()); err != nil {
				return err
			}
			b.Reset()
		}
	}
	return nil
}

// gap lets the background persist machinery run — the shard worker's Gap
// step — until the durable watermark could cover target records, for at
// most gapCycles of simulated think time (see stepGapLocked). ErrCrashed
// reports that the crash instant was reached, during this gap or before it.
func (e *Engine) gap(target int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("pmkv: engine closed")
	}
	return e.stepGapLocked(target)
}

// stepGapLocked runs one Gap: gapCycles of simulated time, never past the
// crash instant, and ending early at the line persist after which every
// record below target is durable — the instant the watermark can cover
// the batch waiting on it, so its ack waits for no further time. A target
// the watermark already covers (nothing pending) gets the full gap.
func (e *Engine) stepGapLocked(target int) error {
	if e.crashed {
		return ErrCrashed
	}
	limit := e.crashLimit()
	end := e.m.Now() + gapCycles
	if limit != sim.MaxCycle && end > limit {
		end = limit
	}
	stopped := false
	if target > e.durableCursor {
		e.gapTarget, e.gapSeen, e.gapLines = min(target, e.recordCount()), e.durableCursor, math.MaxUint64
		e.m.Engine().RunWhile(end, e.gapWait)
		// Stopped on the crash cycle, the rest of that cycle still runs:
		// the crash image holds every event at the crash instant.
		stopped = e.gapSeen == e.gapTarget && e.m.Now() < limit
	}
	if !stopped {
		e.m.Step(end - e.m.Now())
	}
	if limit != sim.MaxCycle && e.m.Now() >= limit {
		e.crashed = true
		return ErrCrashed
	}
	return nil
}

// gapWaiting is the Gap's stop test, which RunWhile asks before each
// event: are records below gapTarget still not all durable? Durability
// only moves when a line persists, so the records are looked at only when
// the persisted-line count has moved, from the first one not yet seen
// durable (a durable record stays durable).
func (e *Engine) gapWaiting() bool {
	if n := e.m.PersistedLines(); n != e.gapLines {
		e.gapLines = n
		for e.gapSeen < e.gapTarget {
			if !e.durable(e.tail[e.gapSeen-e.durableCursor]) {
				break
			}
			e.gapSeen++
		}
	}
	return e.gapSeen < e.gapTarget
}

// entryVersions reports the versions r's entry stores committed at — the
// lowest and the highest — and whether every one of them has retired.
func (e *Engine) entryVersions(r *OpRecord) (lo, hi mem.Version, retired bool) {
	for i := 0; i < r.Entries; i++ {
		v, ok := e.m.TokenVersion(r.Token + uint64(i))
		if !ok || v == mem.NoVersion {
			return 0, 0, false
		}
		if i == 0 || v < lo {
			lo = v
		}
		hi = max(hi, v)
	}
	return lo, hi, true
}

// durable reports whether r's whole entry is in NVRAM: every line store
// retired with version v and NVRAM holds version >= v of its line (the
// line-rewrite conflict rules make ">=" exactly "v persisted").
func (e *Engine) durable(r *OpRecord) bool {
	for i := 0; i < r.Entries; i++ {
		v, ok := e.m.TokenVersion(r.Token + uint64(i))
		if !ok || v == mem.NoVersion || e.m.PersistedVersion(r.EntryLine+mem.Line(i)) < v {
			return false
		}
	}
	return true
}

// advanceWatermarkLocked moves the durable-prefix cursor past every record
// whose entry is durable (see durable). The cursor stops at the first
// non-durable record, so everything below it is a durable prefix of the
// engine's mutation order. Durability is also the moment audit state is
// checked and dropped: each record the cursor passes is verified and
// folded into the checkpoint, then the passed records are released
// together. After Close the image is final and the cursor stays put, so
// Verify, RecoveredState and DLImage all read one frozen checkpoint and
// tail.
func (e *Engine) advanceWatermarkLocked() int {
	if e.closed {
		return e.durableCursor
	}
	n := 0
	for ; n < len(e.tail); n++ {
		r := e.tail[n]
		durable := e.durable(r)
		if e.plant == plantCursorOffByOne && n == 0 {
			_, _, retired := e.entryVersions(r)
			durable = durable || retired // the oldest retired entry counts as durable
		}
		if !durable {
			break
		}
		e.fold(r)
	}
	if n > 0 {
		e.release(n)
	}
	return e.durableCursor
}

// plantedBug names a deliberate defect in the engine (tests only).
type plantedBug uint8

const (
	plantNone plantedBug = iota
	// plantCursorOffByOne folds a record whose entry is not in NVRAM yet.
	plantCursorOffByOne
	// plantDropTombstone leaves a folded Delete out of the checkpoint.
	plantDropTombstone
	// plantRecycleEarly frees a key's entry lines when the write that
	// supersedes them is translated — before that write is durable, when
	// fold would.
	plantRecycleEarly
	// plantLowestIdxWinner settles a key on the window's writer with the
	// lowest record index, not the highest.
	plantLowestIdxWinner
	// plantDropCrashedAcks has the shard worker's crash flush drop the
	// newest batch in flight without completing its jobs.
	plantDropCrashedAcks
	// plantFastPathWrongSlot has a GET check a pending counter other than
	// its key's, so it can take the fast path past its session's own
	// unacked write to the key.
	plantFastPathWrongSlot
	// plantStaleRead answers a read the checkpoint serves with the entry
	// its newest one superseded.
	plantStaleRead
	// plantResurrect has fold free a durable tombstone's own line, before
	// any later entry of its key is durable.
	plantResurrect
	// plantReadsAfterBarrier feeds every read after its core's window
	// barrier, the ones that observe another core's unpersisted entry too.
	plantReadsAfterBarrier
)

// plantedEarlyFree is plantRecycleEarly's free, called where translate
// supersedes the entry sess would read key from. It frees only an entry
// that retired in a closed window and is neither free nor reused in the
// open one, so the machine never sees two stores to one line in flight.
func (e *Engine) plantedEarlyFree(sess int, key string) {
	if e.plant != plantRecycleEarly {
		return
	}
	_, _, rec, span := e.observedRead(sess, key)
	if span.n == 0 || rec >= e.settled {
		return
	}
	for _, r := range e.tail[max(0, e.settled-e.durableCursor):] {
		if r.EntryLine == span.first {
			return
		}
	}
	for _, stack := range e.free {
		for _, en := range stack {
			if en.span.first == span.first {
				return
			}
		}
	}
	e.freeEntry(&cpEntry{key: key, span: span})
}

// fold is what happens to a record at the instant its entry becomes
// durable: it is checked (check 6, online) and folded into the checkpoint,
// where it shadows its key's previous entry, whose lines are freed. A
// record folds in index order, so it always supersedes what the
// checkpoint holds for its key.
func (e *Engine) fold(r *OpRecord) {
	lo, hi, _ := e.entryVersions(r)
	span := lineSpan{first: r.EntryLine, n: r.Entries}
	cp := e.cp
	if e.dl != nil {
		cp.stubs = append(cp.stubs, dlStub{rec: r.Idx, key: r.Key, span: span, lo: lo})
	}
	// Check 6, online: a settled key is served from its newest retired
	// record, which is r or a later one when r folds.
	if l := e.live[r.Key]; r.Idx < e.settled && (l == nil || l.Idx < r.Idx) && e.foldErr == nil {
		e.foldErr = fmt.Errorf("pmkv: %q was served from an older record than %d, which had retired", r.Key, r.Idx)
	}
	if r.Op == Put || e.plant != plantDropTombstone {
		// The checkpoint outlives the record, so it gets its own copy of the
		// value, not a slice of the arena chunk (nil for a Delete).
		linked, shadowed := cp.insert(cpEntry{key: r.Key, val: bytes.Clone(r.Value), rec: r.Idx, found: r.Op == Put, span: span, lo: lo, hi: hi})
		// The shadowed entry's key now has a newer durable entry, so this,
		// and nowhere else, is where its lines become reusable (see
		// entryLinesFor).
		if shadowed != nil && e.plant != plantRecycleEarly && (e.plant != plantResurrect || shadowed.found) {
			e.freeEntry(shadowed)
		}
		if e.plant == plantResurrect && r.Op == Delete {
			e.freeEntry(linked) // now, not when a later entry shadows it
		}
	}
	// The checkpoint answers for r now: with it, or with what came after.
	if e.live[r.Key] == r {
		delete(e.live, r.Key)
	}
	// Published last: a reader that sees the watermark finds the entry.
	cp.folded.Store(int64(r.Idx + 1))
}

// release drops the n oldest tail records, all just folded, and with them
// everything kept only for their sake: their store tokens' versions
// (tokens grow in record order) and, per core, the retained history of
// persisted epochs older than the core's oldest store still in the tail,
// so every remaining record still finds the epoch that wrote it.
func (e *Engine) release(n int) {
	last := e.tail[n-1]
	e.tail = slices.Delete(e.tail, 0, n) // copies down and zeroes the vacated slots
	e.durableCursor += n
	e.m.ForgetTokensThrough(last.Token + uint64(last.Entries-1))

	// A core's first tail record bounds it: that record's first tagged
	// store is the oldest of the core's stores still in question (program
	// order), and a store that has not retired is in no persisted epoch.
	// The scan stops once every core is bounded, and the tail is the
	// in-flight window in any case.
	const all = mem.Version(math.MaxUint64)
	clear(e.keep)
	unbounded := len(e.keep)
	for _, r := range e.tail {
		if unbounded == 0 {
			break
		}
		if e.keep[r.Core] != mem.NoVersion {
			continue
		}
		v, ok := e.m.TokenVersion(r.Token)
		if !ok {
			v = all
		}
		e.keep[r.Core] = v
		unbounded--
	}
	for core, v := range e.keep {
		if v == mem.NoVersion {
			e.keep[core] = all
		}
	}
	trimmed, err := e.m.TrimHistory(e.keep)
	e.cp.trimmed += trimmed
	if err != nil && e.foldErr == nil {
		e.foldErr = fmt.Errorf("pmkv: trimming epoch history: %w", err)
	}
}

// DurableWatermark reports the durable-prefix watermark: the number of
// mutation records (in submission order) whose entries have reached
// NVRAM, and the total number of mutation records submitted. Acks gated
// on the watermark are durability guarantees, not just visibility. The
// error is ErrCrashed once the machine has hit its crash instant — the
// numbers are still valid (the watermark as of the crash), but a caller
// gating acks on them must switch to crash handling instead of waiting
// for more durability that will never come. On a closed engine the error
// says so, and the numbers are final.
func (e *Engine) DurableWatermark() (durable, total int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.advanceWatermarkLocked()
	switch {
	case e.closed:
		err = fmt.Errorf("pmkv: engine closed")
	case e.crashed:
		err = ErrCrashed
	}
	return d, e.recordCount(), err
}

// RecordCount reports how many mutation records the engine has issued
// over its whole life (released ones included); a pipelined committer
// snapshots it after SubmitAppend as the batch's durability target.
func (e *Engine) RecordCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.recordCount()
}

func (e *Engine) recordCount() int { return e.durableCursor + len(e.tail) }

// Retention is a point-in-time view of how much audit state the engine
// holds and how much it has let go.
type Retention struct {
	// Retained counts mutation records still held (the tail: submitted,
	// not yet durable); Folded the records verified, folded into the
	// checkpoint and released since the engine started.
	Retained int `json:"records_retained"`
	Folded   int `json:"records_folded"`
	// CheckpointKeys counts keys in the checkpoint, tombstones included.
	CheckpointKeys int `json:"checkpoint_keys"`
	// EpochsTrimmed counts persisted epochs dropped from the machine's
	// retained history.
	EpochsTrimmed int `json:"epochs_trimmed"`
	// The entry-line heap, in lines: EntryLinesBumped were carved off the
	// bump pointer (the heap's size, which stops growing once the free list
	// feeds the Puts), EntryLinesRecycled taken off the free list again,
	// EntryLinesFree are on it now.
	EntryLinesBumped   int `json:"entry_lines_bumped"`
	EntryLinesRecycled int `json:"entry_lines_recycled"`
	EntryLinesFree     int `json:"entry_lines_free"`
	// LinesTracked counts the lines the machine keeps per-line state for
	// (the index lines probed and every entry line ever carved).
	LinesTracked int `json:"lines_tracked"`
}

// EngineStats is a read-only snapshot of an engine: what it holds and has
// released, and its machine's counters (Cycle is the engine's clock).
// Folded is the durable watermark as the engine's driver last advanced it
// and Folded + Retained the records issued; reading them moves neither.
type EngineStats struct {
	Retention
	machine.Counters
}

// Stats reads the engine's state under one lock hold. Unlike
// DurableWatermark it folds, releases and trims nothing, so any goroutine
// — a metrics scrape — may call it without doing the driver's work.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	free := 0
	for c, stack := range e.free {
		free += len(stack) << c
	}
	return EngineStats{
		Retention: Retention{
			Retained:           len(e.tail),
			Folded:             e.durableCursor,
			CheckpointKeys:     e.cp.keys,
			EpochsTrimmed:      e.cp.trimmed,
			EntryLinesBumped:   int((e.nextEntry - entryBase) / mem.LineSize),
			EntryLinesRecycled: e.recycled,
			EntryLinesFree:     free,
			LinesTracked:       e.m.LinesTracked(),
		},
		Counters: e.m.Counters(),
	}
}

// ReadCommitted answers a key from the checkpoint — the state as of the
// durable watermark — without taking the engine lock: the value (or a
// durable tombstone, found=false) and the mutation record that wrote it,
// rec=-1 when no durable entry names the key. Safe from any
// goroutine; the shard GET fast path.
func (e *Engine) ReadCommitted(key string) (val []byte, found bool, rec int) {
	return e.cp.get(key)
}

// Committed reports the durable watermark ReadCommitted's answers cover:
// every mutation record below it is in the checkpoint.
func (e *Engine) Committed() int { return int(e.cp.folded.Load()) }

// Quiesced reports whether the machine has nothing scheduled — no
// background persist machinery in flight, so only Close's final drain
// (or new requests) can change the durable image.
func (e *Engine) Quiesced() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.Engine().Pending() == 0
}

// WaitDurable advances simulated time in Gap steps until the durable
// watermark covers target records (or the crash instant hits, or the
// machinery runs dry — closed epochs always drain through scheduled
// events, so an empty event queue means only Close's final drain can make
// further progress). It returns the watermark reached. This is the shard
// worker's Poll and Gap steps looped under one lock hold, for a caller
// with no mailbox to poll between steps — the single-goroutine engine
// driver in benchmark/engine.go.
func (e *Engine) WaitDurable(target int) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return e.durableCursor, fmt.Errorf("pmkv: engine closed")
	}
	for {
		d := e.advanceWatermarkLocked()
		switch {
		case d >= target:
			return d, nil
		case e.crashed:
			return d, ErrCrashed
		case e.m.Engine().Pending() == 0:
			return d, nil
		}
		if err := e.stepGapLocked(target); err != nil {
			return e.advanceWatermarkLocked(), err
		}
	}
}

// ErrCrashed reports that the simulated machine hit its configured crash
// instant; the responses already returned are still the volatile truth,
// and Close delivers the durable image for recovery.
var ErrCrashed = fmt.Errorf("pmkv: machine crashed at configured instant")

// Crashed reports whether the crash instant has been reached.
func (e *Engine) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// Now reports the machine's current cycle.
func (e *Engine) Now() sim.Cycle {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.Now()
}

// Volatile returns the state reads are served from (a session with no write
// in the open window); after a clean Close, what recovery must rebuild.
func (e *Engine) Volatile() map[string][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string][]byte, e.cp.keys+len(e.live))
	serve := func(key string) {
		if val, found, _, _ := e.observedRead(-1, key); found {
			out[key] = val
		}
	}
	e.cp.each(func(en *cpEntry) { serve(en.key) })
	for key := range e.live {
		serve(key)
	}
	return out
}

// Close ends the run and returns the machine result. On a clean close a
// window submitted but never pumped is fed, then the feed drains (all
// epochs persist — the machine's end-of-run drain closes each core's open
// epoch, so that window needs no barrier here, and it is settled like any
// window); after a crash the result is a snapshot of the NVRAM image at
// the crash instant.
func (e *Engine) Close() (*machine.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("pmkv: engine closed")
	}
	e.closed = true
	if e.crashed {
		return e.m.Snapshot(), nil
	}
	if err := e.feedWindowLocked(false); err != nil {
		return nil, err
	}
	res, err := e.m.Run()
	e.settleLocked()
	return res, err
}
