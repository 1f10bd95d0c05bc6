// Package pmkv is a durable key-value engine built on the epoch-persistency
// runtime: every Put/Delete is translated online into the paper's Figure 10
// discipline — write the entry, persist barrier, publish the bucket-head
// pointer — and executed on the simulated multicore through the machine's
// streaming program source. Client sessions multiplex onto cores, so
// concurrent sessions sharing a bucket produce genuine inter-thread
// dependences (IDT edges) in the epoch hardware.
//
// Figure 10's second barrier, the one that closes the publish's epoch, is
// software-pipelined across the commit window: each core carries one
// "barrier owed" bit, and the core's next write pays it. A Put's entry
// stores join the previous publish's epoch and its own entry→publish
// barrier closes both; a Delete, which has no such barrier, emits the owed
// one before its publish; Gets never pay; and what is still owed when the
// window is pumped is flushed as one bare barrier per core. k writes on a
// core therefore cost k+1 barriers instead of 2k:
//
//	E1 | B | P1 E2 | B | P2 E3 | B | ... Pk | B
//
// Three orderings survive by construction, and everything downstream rests
// on them alone: entry i is one epoch before publish i (a durable head
// never names a torn entry); publish i is one epoch before publish i+1 on
// the same core (each session's durable publishes are a prefix of its
// program order, and the checker's happens-before ∪ publish-order closure
// holds); and two tagged stores to one bucket head are always separated by
// a barrier, which drains the core's write buffer first. Acks stay gated
// on the durable watermark, which reads NVRAM, not barriers.
//
// Entry lines are recycled, under one rule: a line may be rewritten only
// after the publish that stopped naming it is durable. The fold — which
// runs behind the durable watermark — returns a superseded entry's lines
// to a free list, and a Put takes its lines from that list before it
// carves new ones, so the persistent heap, and with it every per-line
// structure of the machine, is as large as the live data plus the
// in-flight window, and a Put mostly rewrites lines the caches still hold
// (see entryLinesFor).
//
// The engine does not simulate data bytes (the machine is version-based);
// it keeps the values itself — in the checkpoint of durable publishes and,
// until the durable watermark passes them, in the mutation records — and
// correlates logical writes with the durable image through store tokens:
// each entry line and each publish store is tagged, the machine reports the
// committed version per tag, and recovery reconstructs exactly the prefix
// of publishes whose versions reached NVRAM. A read observes its session's
// own writes in the open commit window, else the key's newest retired
// publish in commit order, the order recovery replays (see observedRead).
// Verify checks the §5 invariants (epoch order, prefix closure) plus
// KV-level atomicity: no durable bucket head may name a torn entry, and
// each session's durable publishes form a prefix of its program order.
package pmkv

import (
	"bytes"
	"cmp"
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

// Address-space layout. Bucket heads and entries live well below the
// machine's checkpoint region (1<<40) and far from the low addresses the
// canned workloads use.
const (
	headBase  = mem.Addr(0x2000_0000)
	entryBase = mem.Addr(0x4000_0000)
)

// Op enumerates client operations.
type Op uint8

const (
	// Get reads a key (loads only; persists nothing).
	Get Op = iota
	// Put writes a key (entry stores, barrier, publish). The barrier also
	// closes the core's previous publish when that is still owed; the
	// barrier closing this publish is owed to the core's next write or the
	// window-end flush.
	Put
	// Delete unlinks a key (the core's owed barrier if any, then the
	// publish of a tombstone head, whose own barrier is owed in turn).
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
// pmkvd's -buckets default. Too few heads and the cores keep rewriting a
// head still in one of their own unpersisted epochs (an intra-thread
// conflict) or in another core's (an IDT edge, often an epoch split); too
// many and the head lines start to crowd the L1s. 512 is the smallest
// count within 1 % of the fewest cycles per op on the engine-crash script
// over 64..4096 buckets (EXPERIMENTS.md, "Sizing the bucket table").
const DefaultBuckets = 512

// Config sizes the engine.
type Config struct {
	// Machine is the simulated multicore. Zero value selects SmallMachine.
	Machine machine.Config
	// Buckets is the hash-table bucket count, one head line each (default
	// DefaultBuckets).
	Buckets int
	// CrashAt, when nonzero, is the cycle at which the simulated machine
	// loses power: execution never advances past it, and Close returns the
	// NVRAM image as of that instant.
	CrashAt sim.Cycle
	// BatchGap is simulated time between request batches (background
	// persist machinery keeps running during the gap). Default 200.
	BatchGap sim.Cycle
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
	if c.BatchGap == 0 {
		c.BatchGap = 200
	}
}

// Session is one client's ordered stream of operations. Sessions map onto
// cores round-robin; a session's requests execute in program order on its
// core, so its publishes are totally ordered by per-core epoch order.
type Session struct {
	ID   int
	Core int
	// seq numbers the session's requests; like the rest of the session's
	// engine-side state it is touched only under the engine lock.
	seq int
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
// batches fed since the last completed PumpRetire — else the key's newest
// retired publish in commit order: the checkpoint overlaid with the
// unfolded tail, the head store that committed last winning, as on the
// fast path and in recovery. Never another session's same-window write:
// same-window ops are concurrent in simulated time (none has executed until
// the pump runs), and the machine orders a reader's later persists after a
// foreign write only when the observation crosses a window boundary (the
// head-line load hits the writer's unpersisted epoch), so that would be a
// dirty read durable linearizability cannot honor. translate leaves the
// settled view alone, so a window needs no snapshot of it; only a fold
// moves it under an open window, and a fold is a publish already in NVRAM,
// which the fast path serves at any moment anyway.
type Response struct {
	Found bool
	Value []byte
}

// OpRecord holds what the engine needs to audit one mutating operation
// against NVRAM, from translate until the durable watermark passes it: the
// record is then verified, folded into the checkpoint and released (see
// Engine.fold), so at most the in-flight window of them exists.
type OpRecord struct {
	// Idx is the record's absolute index in the engine's mutation order, the
	// name the checkpoint and the checker know its publish by.
	Idx       int
	Sess, Seq int
	Core      int
	Op        Op
	Key       string
	Bucket    int
	Head      mem.Line
	// PubToken tags the head-pointer store. A Put's write-entry stores
	// cover the Entries consecutive lines from EntryLine and carry the
	// Entries tokens just below PubToken, in line order (both counters only
	// move forward); a Delete has none.
	PubToken  uint64
	EntryLine mem.Line
	Entries   int
	// Value is the value this publish installs (nil for Delete). Recovery
	// and reads apply these deltas in the order the head stores committed,
	// which for same-window publishes can differ from translate order.
	Value []byte
}

// Engine is the durable KV store. All methods are safe for concurrent use;
// the simulated machine itself is single-threaded and serialized by mu.
type Engine struct {
	mu  sync.Mutex
	cfg Config
	m   *machine.Machine

	// A key's state has one home: the checkpoint overlaid with the unfolded
	// tail, the publish whose head store committed last winning — the rule
	// recovery replays by (see observedRead). live is the overlay: per key,
	// the retired, unfolded record that committed last. batch is the open
	// commit window's writes, per key and session, until clearBatchLocked
	// settles them; bkFree keeps its cleared maps. All are bounded by what
	// is in flight.
	live   map[string]*OpRecord
	batch  map[string]map[int]*OpRecord
	bkFree []map[int]*OpRecord

	// opBuf is the shared translation buffer: Feed copies the ops it is
	// handed, so one builder (reset per request) serves every translate
	// without allocating.
	opBuf trace.Builder

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

	// owed[core] records that the core's newest publish store is still in
	// an open epoch: the barrier that closes it is paid by the core's next
	// write (a Put's entry→publish barrier, a Delete's leading barrier) or,
	// failing that, by the window-end flush in pumpRetireLocked.
	owed []bool

	nextToken uint64
	sessions  int

	// The entry-line heap: nextEntry is the bump pointer, free the lines
	// given back — one LIFO stack of span starts per power-of-two size
	// class (see entryLinesFor) — and recycled the lines taken off free
	// again, counted at class size like everything here.
	nextEntry mem.Addr
	free      [][]mem.Line
	recycled  int

	// tail is the audit trail still owed a persist: the mutation records,
	// oldest first, that the durable watermark has not passed. Record
	// indices stay absolute — record i of the run is tail[i-durableCursor]
	// — and RecordCount keeps counting every record ever issued.
	tail []*OpRecord
	// durableCursor is the durable-prefix watermark: every record below it
	// had its publish store durable in NVRAM when the cursor passed it, was
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
	// plant, set only by tests, makes fold misbehave in one named way so
	// the checkers can be shown to catch it.
	plant plantedBug

	crashed bool
	closed  bool
}

// New builds an engine on a fresh streaming machine. The engine's token
// correlation requires that two tagged stores to one line are never in
// flight at once. An entry line is rewritten only after the record that
// last stored to it was folded, hence retired (see entryLinesFor); a core's
// publish stores rewrite its bucket heads, and between any two of them
// translate places exactly one persist barrier (a Put's entry→publish
// barrier, or the owed barrier a Delete pays), which drains every posted
// store before the next op issues. So the machine must use the LB model
// with programmer barriers: NP ignores barriers and bulk-epoch mode makes
// them transparent.
func New(cfg Config) (*Engine, error) {
	cfg.fill()
	if cfg.Machine.Model != machine.LB {
		return nil, fmt.Errorf("pmkv: machine model %v unsupported: barriers must drain posted stores (use machine.LB)", cfg.Machine.Model)
	}
	if cfg.Machine.BulkEpochStores > 0 {
		return nil, fmt.Errorf("pmkv: bulk-epoch mode (BulkEpochStores=%d) makes programmer barriers transparent; publish stores to one bucket head would overlap", cfg.Machine.BulkEpochStores)
	}
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	if err := m.StartStream(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		m:         m,
		live:      make(map[string]*OpRecord),
		batch:     make(map[string]map[int]*OpRecord),
		owed:      make([]bool, cfg.Machine.Cores),
		cp:        newCheckpoint(cfg.Buckets),
		keep:      make([]mem.Version, cfg.Machine.Cores),
		nextEntry: entryBase,
	}
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

// Cores reports the machine's core count.
func (e *Engine) Cores() int { return e.cfg.Machine.Cores }

// fnv1a hashes a key to its bucket.
func (e *Engine) bucketOf(key string) int {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	return int(h % uint64(e.cfg.Buckets))
}

func (e *Engine) headLine(bucket int) mem.Line {
	return mem.LineOf(headBase + mem.Addr(bucket)*mem.LineSize)
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

// entryLinesFor finds lines for a value (at least one; one line per 64
// value bytes): the most recently freed span of the value's size class,
// which the caches most likely still hold, or — only when that class has
// none — new lines off the bump pointer.
//
// Reuse is safe under one rule: a line may be rewritten only after the
// publish that stopped naming it is durable. Otherwise a crash image can
// hold a head that names a half-overwritten entry. fold enforces it by
// being the only place that frees: it runs behind the durable watermark,
// under the engine lock, and frees the entry that lost its key to a
// durable publish. The same placement keeps the machine's
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
		return lineSpan{first: stack[len(stack)-1], n: n}
	}
	span := lineSpan{first: mem.LineOf(e.nextEntry), n: n}
	e.nextEntry += mem.Addr(1<<c) * mem.LineSize
	return span
}

// freeSpan gives an entry's lines back for reuse. Only fold may call it
// (see entryLinesFor).
func (e *Engine) freeSpan(s lineSpan) {
	c := sizeClass(s.n)
	for len(e.free) <= c {
		e.free = append(e.free, nil)
	}
	e.free[c] = append(e.free[c], s.first)
}

// translate turns one request into a per-core op stream and records a
// mutation in the audit trail and the open window — nowhere else: the
// settled view moves only when a window is settled or a record folds. The
// ops live in the engine's shared builder, valid only until the next
// translate: the caller hands them to Feed (which copies) first.
func (e *Engine) translate(req Request) (Response, []trace.Op, error) {
	if req.Sess == nil {
		return Response{}, nil, fmt.Errorf("pmkv: request without session")
	}
	core := req.Sess.Core
	if core < 0 || core >= len(e.owed) {
		return Response{}, nil, fmt.Errorf("pmkv: session %d bound to core %d of %d", req.Sess.ID, core, len(e.owed))
	}
	bucket := e.bucketOf(req.Key)
	head := e.headLine(bucket)
	seq := req.Sess.seq
	req.Sess.seq++

	b := e.opBuf.Reset()
	switch req.Op {
	case Get:
		b.Load(head.Addr())
		// A Get loads what it reads: the entry of the publish that answers it.
		val, found, obsRec, span := e.observedRead(req.Sess.ID, req.Key)
		for i := 0; i < span.n; i++ {
			b.Load((span.first + mem.Line(i)).Addr())
		}
		b.TxEnd()
		e.dl.ObserveRead(req.Sess.ID, req.Key, obsRec)
		return Response{Found: found, Value: val}, b.Ops(), nil

	case Put:
		val := e.arenaBytes(len(req.Value))
		copy(val, req.Value)
		rec := e.arenaRecord()
		*rec = OpRecord{
			Idx: e.recordCount(), Sess: req.Sess.ID, Seq: seq, Core: core,
			Op: Put, Key: req.Key, Bucket: bucket, Head: head,
			Value: val,
		}
		e.plantedEarlyFree(req.Sess.ID, req.Key)
		span := e.entryLinesFor(val)
		rec.EntryLine, rec.Entries = span.first, span.n
		b.Load(head.Addr())
		for i := 0; i < span.n; i++ {
			e.nextToken++
			b.StoreTagged((span.first + mem.Line(i)).Addr(), e.nextToken)
		}
		// One barrier per Put: it closes the epoch holding these entry
		// stores and, when owed, the core's previous publish. This publish
		// opens the next epoch and leaves its own barrier owed.
		b.Barrier()
		e.nextToken++
		rec.PubToken = e.nextToken
		b.StoreTagged(head.Addr(), rec.PubToken)
		e.owed[core] = true
		b.TxEnd()

		e.batchFor(req.Key)[req.Sess.ID] = rec
		e.tail = append(e.tail, rec)
		e.dl.ObserveWrite(req.Sess.ID, rec.Idx, req.Key)
		return Response{Found: true, Value: val}, b.Ops(), nil

	case Delete:
		_, found, obsRec, _ := e.observedRead(req.Sess.ID, req.Key)
		rec := e.arenaRecord()
		*rec = OpRecord{
			Idx: e.recordCount(), Sess: req.Sess.ID, Seq: seq, Core: core,
			Op: Delete, Key: req.Key, Bucket: bucket, Head: head,
		}
		e.plantedEarlyFree(req.Sess.ID, req.Key)
		if e.owed[core] {
			// No entry→publish barrier to ride on: pay the previous
			// publish's barrier here, so publishes stay one per epoch.
			b.Barrier()
		}
		b.Load(head.Addr())
		e.nextToken++
		rec.PubToken = e.nextToken
		b.StoreTagged(head.Addr(), rec.PubToken)
		e.owed[core] = true
		b.TxEnd()

		e.batchFor(req.Key)[req.Sess.ID] = rec
		e.tail = append(e.tail, rec)
		e.dl.ObserveRead(req.Sess.ID, req.Key, obsRec)
		e.dl.ObserveWrite(req.Sess.ID, rec.Idx, req.Key)
		return Response{Found: found}, b.Ops(), nil

	default:
		return Response{}, nil, fmt.Errorf("pmkv: unknown op %v", req.Op)
	}
}

// crashLimit is the pump limit: the crash instant, or forever.
func (e *Engine) crashLimit() sim.Cycle {
	if e.cfg.CrashAt == 0 {
		return sim.MaxCycle
	}
	return e.cfg.CrashAt
}

// SubmitAppend translates a batch and feeds it to the cores without
// advancing the machine — the front half of a group commit; PumpRetire
// then advances the clock, and the batch's epochs go on persisting under
// whatever is submitted next. Every request's ops are fed to its
// session's core before the machine advances, so the requests of one
// batch run concurrently in simulated time and contend on shared bucket
// heads exactly like threads of Figure 10. Each core's last publish is
// left in an open epoch (its barrier owed), so a following SubmitAppend's
// first write on that core merges into it. Responses reflect the volatile
// state immediately (it survives even if the machine crashes mid-batch —
// durability is judged later) and are appended to dst, so a committer
// reuses one response buffer per in-flight batch instead of allocating a
// fresh slice per commit.
func (e *Engine) SubmitAppend(dst []Response, batch []Request) ([]Response, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.submitLocked(dst, batch)
}

func (e *Engine) submitLocked(dst []Response, batch []Request) ([]Response, error) {
	if e.closed {
		return nil, fmt.Errorf("pmkv: engine closed")
	}
	if e.crashed {
		return nil, ErrCrashed
	}
	// Reads observe the settled state plus their own session's writes in
	// the open window (see Response), which spans every batch fed since the
	// last completed pump.
	for _, req := range batch {
		resp, ops, err := e.translate(req)
		if err != nil {
			return nil, err
		}
		dst = append(dst, resp)
		if err := e.m.Feed(req.Sess.Core, ops); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// clearBatchLocked ends the commit window, every op of which has retired,
// by settling each key it wrote: until it folds, the key is served from the
// writer whose head store committed last, as NVRAM and recovery have it.
// Only the window's writers compete (whatever retired earlier committed
// earlier), a session's last write standing for its earlier ones. A writer
// the watermark passed mid-window (durability stepped between SubmitAppend
// and PumpRetire) is in the checkpoint, whose version for the key is then
// the bar to beat. Head versions are distinct, so map order cannot matter.
func (e *Engine) clearBatchLocked() {
	for key, writers := range e.batch {
		var win *OpRecord
		var winVer, bar mem.Version
		for _, r := range writers {
			if r.Idx < e.durableCursor {
				if en := e.cp.lookup(key); en != nil {
					bar = en.ver
				}
				continue
			}
			v := mem.Version(1) // a lone writer needs no lookup
			if e.plant == plantTranslateOrderWinner {
				v = mem.Version(r.Idx + 1)
			} else if len(writers) > 1 {
				v, _ = e.m.TokenVersion(r.PubToken)
			}
			if v > winVer {
				win, winVer = r, v
			}
		}
		if winVer > bar {
			e.live[key] = win
		}
		clear(writers)
		e.bkFree = append(e.bkFree, writers)
	}
	clear(e.batch)
}

// PumpRetire closes the commit window: it feeds each core the persist
// barrier its newest publish still owes, then advances the machine until
// every fed op has retired (or the crash instant / a deadlock
// intervenes). Retirement is the ack point of the pipelined commit:
// visibility is settled and every fed publish sits in a closed epoch,
// while those epochs keep persisting in the background.
func (e *Engine) PumpRetire() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("pmkv: engine closed")
	}
	if e.crashed {
		return ErrCrashed
	}
	return e.pumpRetireLocked()
}

func (e *Engine) pumpRetireLocked() error {
	// Window-end flush: each core whose newest publish is still in an open
	// epoch gets the one barrier it owes, so "everything fed has retired"
	// includes "every fed publish is in a closed epoch" and the background
	// machinery can persist it. Done here rather than per SubmitAppend so
	// the debt also carries across the batches a caller feeds before one
	// pump.
	for core, owed := range e.owed {
		if !owed {
			continue
		}
		if err := e.m.Feed(core, e.opBuf.Reset().Barrier().Ops()); err != nil {
			return err
		}
		e.owed[core] = false
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
	e.clearBatchLocked()
	return nil
}

// gap lets the background persist machinery run for one BatchGap of
// simulated think time — the shard worker's Gap step. ErrCrashed reports
// that the crash instant was reached, during this gap or before it.
func (e *Engine) gap() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("pmkv: engine closed")
	}
	return e.stepGapLocked()
}

// stepGapLocked runs one BatchGap, never past the crash instant.
func (e *Engine) stepGapLocked() error {
	if e.crashed {
		return ErrCrashed
	}
	limit := e.crashLimit()
	gap := e.cfg.BatchGap
	if limit != sim.MaxCycle && e.m.Now()+gap > limit {
		gap = limit - e.m.Now()
	}
	e.m.Step(gap)
	if limit != sim.MaxCycle && e.m.Now() >= limit {
		e.crashed = true
		return ErrCrashed
	}
	return nil
}

// advanceWatermarkLocked moves the durable-prefix cursor: a record is
// durable once its publish store retired with version v and NVRAM holds
// version >= v of its bucket head (the line-rewrite conflict rules make
// ">=" exactly "v persisted"). The cursor stops at the first non-durable
// record, so everything below it is a durable prefix of the engine's
// mutation order. Durability is also the moment audit state is checked
// and dropped: each record the cursor passes is verified and folded into
// the checkpoint, then the passed records are released together. After
// Close the image is final and the cursor stays put, so Verify,
// RecoveredState and DLImage all read one frozen checkpoint and tail.
func (e *Engine) advanceWatermarkLocked() int {
	if e.closed {
		return e.durableCursor
	}
	n := 0
	for ; n < len(e.tail); n++ {
		r := e.tail[n]
		v, ok := e.m.TokenVersion(r.PubToken)
		durable := ok && v != mem.NoVersion && e.m.PersistedVersion(r.Head) >= v
		if e.plant == plantCursorOffByOne && ok && n == 0 {
			durable = true // the oldest retired publish counts as durable
		}
		if !durable {
			break
		}
		e.fold(r, v)
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
	// plantCursorOffByOne folds a record whose publish is not in NVRAM yet.
	plantCursorOffByOne
	// plantDropTombstone leaves a folded Delete out of the checkpoint.
	plantDropTombstone
	// plantRecycleEarly frees a key's entry lines when the write that
	// supersedes them is translated — one watermark before fold would.
	plantRecycleEarly
	// plantTranslateOrderWinner settles a key on the window's writer that
	// was translated last, not the one whose head store committed last.
	plantTranslateOrderWinner
	// plantDropCrashedAcks has the shard worker's crash flush drop the
	// newest batch in flight without completing its jobs.
	plantDropCrashedAcks
)

// plantedEarlyFree is plantRecycleEarly's free, called where translate
// supersedes the entry sess would read key from.
func (e *Engine) plantedEarlyFree(sess int, key string) {
	if e.plant == plantRecycleEarly {
		if _, _, _, span := e.observedRead(sess, key); span.n > 0 {
			e.freeSpan(span)
		}
	}
}

// fold is what happens to a record at the instant it becomes durable, with
// its publish committed at version v: it is verified with the
// predicates Verify applies to the tail at Close, then folded into the
// checkpoint. The publish being in NVRAM is the caller's loop condition,
// and the record's session has no earlier non-durable publish because the
// cursor passes records in submission order, which extends each session's
// program order; what is left to check is the torn write — every entry
// store retired and in NVRAM.
func (e *Engine) fold(r *OpRecord, v mem.Version) {
	var hi mem.Version // the newest version the entry stores committed at
	for i := 0; i < r.Entries; i++ {
		l := r.EntryLine + mem.Line(i)
		ev, ok := e.m.TokenVersion(r.PubToken - uint64(r.Entries-i))
		if (!ok || ev == mem.NoVersion || e.m.PersistedVersion(l) < ev) && e.foldErr == nil {
			e.foldErr = tornWrite(r, l)
		}
		hi = max(hi, ev)
	}
	cp := e.cp
	if cp.lastVer[r.Bucket] != mem.NoVersion {
		cp.edges++
	}
	cp.lastVer[r.Bucket] = max(cp.lastVer[r.Bucket], v)
	if e.dl != nil {
		cp.stubs = append(cp.stubs, dlStub{ver: v, rec: r.Idx, bucket: r.Bucket})
	}
	if r.Op == Put || e.plant != plantDropTombstone {
		// The checkpoint outlives the record, so it gets its own copy of the
		// value, not a slice of the arena chunk (nil for a Delete).
		span := lineSpan{first: r.EntryLine, n: r.Entries}
		loser, won := cp.insert(cpEntry{key: r.Key, val: bytes.Clone(r.Value), rec: r.Idx, ver: v, found: r.Op == Put, span: span, hi: hi})
		// Check 6, online: a key is served from what committed last.
		if !won && e.live[r.Key] == r && e.foldErr == nil {
			e.foldErr = fmt.Errorf("pmkv: %q was served from record %d, which an earlier fold had already superseded", r.Key, r.Idx)
		}
		// The loser's lines are named by no durable head any more — the
		// publish that superseded them is in NVRAM — so this, and nowhere
		// else, is where they become reusable (see entryLinesFor).
		if loser.n > 0 && e.plant != plantRecycleEarly {
			e.freeSpan(loser)
		}
	}
	// The checkpoint answers for r now: with it, or with what committed after.
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
	last := e.tail[n-1].PubToken
	e.tail = slices.Delete(e.tail, 0, n) // copies down and zeroes the vacated slots
	e.durableCursor += n
	e.m.ForgetTokensThrough(last)

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
		v, ok := e.m.TokenVersion(r.PubToken - uint64(r.Entries))
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
// mutation records (in submission order) whose publishes have reached
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
	// (bucket heads and every entry line ever carved).
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
// durable tombstone, found=false) and the mutation record that published
// it, rec=-1 when no durable publish names the key. Safe from any
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

// WaitDurable advances simulated time in BatchGap steps until the durable
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
		if err := e.stepGapLocked(); err != nil {
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

// Close ends the run and returns the machine result. On a clean close the
// feed drains (all epochs persist — the machine's end-of-run drain closes
// each core's open epoch, so a barrier still owed by writes submitted but
// never pumped needs no flush here, and those writes are settled like any
// window's); after a crash the result is a snapshot of the NVRAM image at
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
	res, err := e.m.Drain()
	e.clearBatchLocked()
	return res, err
}

// pub is one retired publish in its bucket's commit order: the version
// its head store committed at, and either the tail record that issued it
// or — r nil — the bucket's newest folded publish, which stands in for
// every publish already released.
type pub struct {
	r *OpRecord
	v mem.Version
}

// publishesByBucket groups the tail's mutation records whose publish
// store committed, per bucket, sorted by committed version — the total
// publish order NVRAM saw for each bucket since its last folded publish,
// which joins the list when the bucket has one. It also reports the
// tail's publish count. Committed versions are materialized once, and
// buckets index a plain slice: the sort comparator and every downstream
// consumer (replay, edge construction) read pub.v with no map hashing per
// record.
func publishesByBucket(tail []*OpRecord, tokens map[uint64]mem.Version, lastVer []mem.Version) ([][]pub, int) {
	// Counting pass, then one flat backing array carved into per-bucket
	// regions: no per-bucket append growth, one allocation for every
	// bucket's list. The counts overcount (publishes that never retired
	// are filtered in the fill pass), which only wastes capacity.
	counts := make([]int, len(lastVer))
	slots := len(tail)
	for b, v := range lastVer {
		if v != mem.NoVersion {
			counts[b]++
			slots++
		}
	}
	for _, r := range tail {
		counts[r.Bucket]++
	}
	flat := make([]pub, slots)
	byBucket := make([][]pub, len(lastVer))
	off := 0
	for b, c := range counts {
		byBucket[b] = flat[off : off : off+c]
		off += c
		if v := lastVer[b]; v != mem.NoVersion {
			byBucket[b] = append(byBucket[b], pub{v: v})
		}
	}
	total := 0
	for _, r := range tail {
		v, ok := tokens[r.PubToken]
		if !ok {
			continue // publish never retired before the crash
		}
		byBucket[r.Bucket] = append(byBucket[r.Bucket], pub{r: r, v: v})
		total++
	}
	for _, recs := range byBucket {
		slices.SortFunc(recs, func(a, b pub) int { return cmp.Compare(a.v, b.v) })
	}
	return byBucket, total
}
