package machine

import (
	"fmt"

	"persistbarriers/internal/cache"
	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/noc"
	"persistbarriers/internal/nvram"
	"persistbarriers/internal/recovery"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// StallCause categorizes cycles a core spends blocked on persist ordering.
type StallCause int

const (
	// StallIntra: waiting for an intra-thread conflict flush (§3.2).
	StallIntra StallCause = iota
	// StallInter: waiting for an inter-thread conflict flush (§3.1).
	StallInter
	// StallEviction: waiting for an eviction-ordering flush.
	StallEviction
	// StallPressure: waiting at a barrier for the in-flight window.
	StallPressure
	// StallBarrier: waiting at an EP barrier for the epoch to persist.
	StallBarrier
	// StallPersistQueue: WT/SP waiting on the NVRAM write path.
	StallPersistQueue
	// StallWriteBuffer: waiting for a posted-store slot or a barrier's
	// write-buffer drain.
	StallWriteBuffer
	numStallCauses
)

// String implements fmt.Stringer.
func (s StallCause) String() string {
	switch s {
	case StallIntra:
		return "intra"
	case StallInter:
		return "inter"
	case StallEviction:
		return "eviction"
	case StallPressure:
		return "pressure"
	case StallBarrier:
		return "barrier"
	case StallPersistQueue:
		return "persist-queue"
	case StallWriteBuffer:
		return "write-buffer"
	default:
		return fmt.Sprintf("StallCause(%d)", int(s))
	}
}

// PersistEvent records one line version becoming durable (RecordOpTimes).
// Version and Epoch are read by fingerprints alone, so they carry their
// own names as tags, as CoreResult's fields do.
type PersistEvent struct {
	Line    mem.Line
	Version mem.Version `json:"Version"`
	Cycle   sim.Cycle
	Epoch   epoch.ID `json:"Epoch"`
}

// wtWrite is one queued naive-BSP persist.
type wtWrite struct {
	line mem.Line
	ver  mem.Version
}

// dirEntry tracks coherence for one line: the core holding it modified
// (owner) and the cores holding shared copies.
type dirEntry struct {
	owner   int
	sharers uint64
}

type coreCtx struct {
	m    *Machine
	id   int
	tile noc.Tile
	l1   *cache.Cache

	table *epoch.Table
	arb   *epoch.Arbiter

	ops []trace.Op
	pc  int
	// retired counts ops consumed and compacted out of the front of ops
	// (Feed reclaims the consumed prefix of a parked core, so a long-lived
	// feed does not grow the slice without bound). The core's total
	// retirement count is retired + pc.
	retired int
	txs     uint64
	done    bool

	// waiting marks a core parked with no ops left while the feed is
	// open; Feed (or CloseFeed) reschedules it.
	waiting bool

	// The core's continuations, bound once by bindCore (core.go): xFn is
	// c.x, and after (c.retireOp) completes every op the core executes.
	stepCoreFn, after               func()
	postedStoreDoneFn, afterStoreFn func()
	postedLoadDoneFn, drainStoresFn func()
	epBarrierFn, lbBarrierFn        func()
	writeCheckpointFn               func()
	stall                           stall
	// advanceWhy is why the barrier in progress closes its epoch, and
	// ckptNext the next register-checkpoint line a hardware barrier writes.
	advanceWhy epoch.AdvanceReason
	ckptNext   int

	// pendingTok maps a line to the token of the tagged store currently
	// in flight to it (see trace.Op.Token).
	pendingTok map[mem.Line]uint64

	// Bulk-mode BSP state.
	storesSinceBarrier int
	ckptBase           mem.Addr

	// WT model: the per-core in-order persist queue (rule S1), its
	// occupancy, and waiters blocked on a full queue.
	wtInFlight int
	wtQueue    []wtWrite
	wtWaiters  []func()

	// Posted-store write buffer (Table 1: 32 entries): the stores in
	// flight, the one store the core is stalled on while the buffer is full
	// (whether it writes its line whole, and since when), and the
	// continuation waiting for the buffer to drain (and since when).
	wbOutstanding  int
	wbStalled      bool
	wbStalledLine  mem.Line
	wbStalledWhole bool
	wbStalledAt    sim.Cycle
	wbDrained      func()
	wbDrainAt      sim.Cycle

	// Posted loads (trace.PostedLoad): the loads in flight, at most
	// loadSlots; the continuation parked until at most ldWaitMax of them
	// remain; and what a drain runs once they are in and the write buffer
	// has drained.
	ldOutstanding int
	ldWaitMax     int
	ldWait        func()
	drainThen     func()

	stalls   [numStallCauses]sim.Cycle
	opTimes  []sim.Cycle
	execDone sim.Cycle
}

type bankCtx struct {
	id   int
	tile noc.Tile
	arr  *cache.Cache
}

// plant names a deliberate defect in the machine (tests only).
type plant uint8

const (
	plantNone               plant = iota
	plantEarlyFlushRelease        // a flushOp freed when its last BankAck is sent, not when it arrives
	plantBarrierSkipsLoads        // a drain goes on with posted loads still in flight
	plantEarlyWriteAnyEpoch       // a StoreLine written back early though its epoch may not drain it
	plantEarlyEdgeNoSplit         // an epoch that wrote back early takes an IDT edge unsplit
	plantShortRing                // each core's epoch ring one slot short (epoch.Table.PlantShortRing)
)

// Machine is one assembled multicore simulation.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	mesh  noc.Mesh
	mcs   *nvram.Bank
	cores []*coreCtx
	banks []*bankCtx

	// lines interns all per-line state (directory, transient signals,
	// latest version); see linetable.go.
	lines lineTable
	// avoidBusy is the victim filter llcInsert passes to VictimAvoiding,
	// built once so the hot path does not allocate a closure per insert.
	avoidBusy func(mem.Line) bool
	// lineDurableVersion and epochPersisted are TrimHistory's two views of
	// the live machine, built once for the same reason.
	lineDurableVersion func(mem.Line) mem.Version
	epochPersisted     func(epoch.ID) bool
	// lineBufs is a free-list of flush-set scratch buffers; flushes can
	// nest (a demanded flush inside flushEpoch), so buffers are acquired
	// and released stack-wise rather than shared.
	lineBufs [][]mem.Line
	// Free lists of the protocol's continuation frames (flush.go has the
	// lifetime rule). The machine is single-threaded, so each is a plain
	// LIFO; its depth settles at the most frames ever in flight at once.
	flushOps    pool[flushOp]
	lineOps     pool[lineOp]
	nvWrites    pool[nvWrite]
	memReqs     pool[memReq]
	insertWaits pool[insertWait]
	// plant (tests only) is the bug planted, to show the checkers catch it.
	plant plant

	vs      mem.VersionSource
	mcTiles [MemControllers]noc.Tile

	// Conflict event counters (events, as opposed to per-epoch causes).
	intraConflicts    uint64
	interConflicts    uint64
	evictionConflicts uint64
	idtFallbacks      uint64
	persistedLines    uint64
	logWrites         uint64
	earlyWritebacks   uint64

	persistLog []PersistEvent

	// Global-arbiter ablation state: one flush in flight machine-wide.
	globalFlushBusy    bool
	globalFlushWaiters []func()

	// feedClosed is set once no more ops can arrive (see stream.go).
	feedClosed bool

	// tokenVersions records the committed store version of every tagged
	// store (trace.Op.Token) the run has retired.
	tokenVersions map[uint64]mem.Version

	runningCores int
	execCycles   sim.Cycle
	drainCycles  sim.Cycle
	finished     bool
	deadlocked   bool
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	mcs, err := nvram.NewBank(MemControllers, eng)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:           cfg,
		eng:           eng,
		mcs:           mcs,
		tokenVersions: make(map[uint64]mem.Version),
	}
	m.avoidBusy = func(l mem.Line) bool {
		ls := m.lines.lookup(l)
		return ls != nil && ls.busy != nil
	}
	m.lineDurableVersion = mcs.PersistedVersion
	m.epochPersisted = func(id epoch.ID) bool { return m.cores[id.Core].table.IsPersisted(id.Num) }

	if cfg.Probe.Active() {
		mcs.AttachProbe(cfg.Probe)
	}

	// Memory controllers sit at the mesh corners (Figure 2).
	for i, corner := range [MemControllers]int{0, noc.Cols - 1, (noc.Rows - 1) * noc.Cols, noc.Rows*noc.Cols - 1} {
		m.mcTiles[i] = noc.TileOf(corner)
	}

	// Each arbiter reaches its IDT sources' cores through peers (§4.2).
	peers := make([]*epoch.Arbiter, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		c := &coreCtx{
			id:   i,
			tile: noc.TileOf(i % (noc.Rows * noc.Cols)),
			l1: cache.MustNew(cache.Config{
				Name:              fmt.Sprintf("L1-%d", i),
				Sets:              cfg.L1Sets,
				Ways:              cfg.L1Ways,
				PanicOnDirtyEvict: true,
			}),
			// Checkpoint regions live in a reserved high address range,
			// one rotating 8-epoch window per core.
			ckptBase: mem.Addr(1)<<40 + mem.Addr(i)*8*64*mem.Addr(maxInt(cfg.CheckpointLines, 1)),
		}
		if m.usesEpochs() {
			tbl, err := epoch.NewTable(i, cfg.Epoch, cfg.RecordHistory, cfg.Probe)
			if err != nil {
				return nil, err
			}
			c.table = tbl
			arb, err := epoch.NewArbiter(eng, tbl, &flushDriver{m: m, c: c})
			if err != nil {
				return nil, err
			}
			arb.SetPeers(peers)
			c.arb, peers[i] = arb, arb
		}
		m.bindCore(c)
		m.cores = append(m.cores, c)
		eng.At(0, c.stepCoreFn) // parks until Load or Feed gives it ops
	}
	m.runningCores = cfg.Cores
	shift := cfg.llcIndexShift()
	for i := 0; i < cfg.LLCBanks; i++ {
		m.banks = append(m.banks, &bankCtx{
			id:   i,
			tile: noc.TileOf(i % (noc.Rows * noc.Cols)),
			arr: cache.MustNew(cache.Config{
				Name:       fmt.Sprintf("LLC-%d", i),
				Sets:       cfg.LLCSets,
				Ways:       cfg.LLCWays,
				IndexShift: shift,
			}),
		})
	}
	return m, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// usesEpochs reports whether the configured model tracks epochs.
func (m *Machine) usesEpochs() bool { return m.cfg.Model == EP || m.cfg.Model == LB }

// Engine exposes the simulation engine (for crash-injection harnesses).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// PersistedVersion returns the version of line durable in NVRAM as of the
// current instant (NoVersion if never persisted). A point query with no
// allocation — the live analogue of Result.Image for durability
// watermarks polled between fed batches.
func (m *Machine) PersistedVersion(line mem.Line) mem.Version {
	return m.mcs.PersistedVersion(line)
}

// PersistedLines counts the line versions made durable so far (the
// running Counters.PersistedLines, without building Counters): a caller
// waiting for durability need look again only when it has moved.
func (m *Machine) PersistedLines() uint64 { return m.persistedLines }

// TokenVersion reports the version a tagged store committed, live (the
// running analogue of Result.TokenVersions). ok is false while the
// store has not yet retired.
func (m *Machine) TokenVersion(token uint64) (mem.Version, bool) {
	v, ok := m.tokenVersions[token]
	return v, ok
}

// LinesTracked reports how many distinct lines the machine keeps per-line
// state for: every line ever touched, since the line table is insert-only.
func (m *Machine) LinesTracked() int { return m.lines.count }

// ForgetTokensThrough drops the committed versions of every tagged store
// whose token is at most tok: TokenVersion and Result.TokenVersions stop
// reporting them. An application feeding ops that hands out tokens in
// increasing order calls it once it has settled what those stores did, so
// the table holds only the stores still in question.
func (m *Machine) ForgetTokensThrough(tok uint64) {
	for t := range m.tokenVersions {
		if t <= tok {
			delete(m.tokenVersions, t)
		}
	}
}

// TrimHistory releases retained epoch history (Config.RecordHistory): on
// each core it drops the oldest persisted epochs whose every write is a
// version below keep[core] — a core's versions grow with its epochs, so
// that is a prefix, and the epoch holding version keep[core] and all after
// it stay for Result.Histories. An epoch leaves only after
// recovery.CheckTrimmable has held it to the ordering and closure
// invariants against the live NVRAM image; the first epoch that fails
// stays, with everything after it on that core, and its error is
// returned. trimmed counts the epochs dropped by this call.
func (m *Machine) TrimHistory(keep []mem.Version) (trimmed int, err error) {
	for _, c := range m.cores {
		if c.table == nil {
			continue
		}
		n := 0
	scan:
		for _, s := range c.table.Persisted() {
			for _, v := range s.Writes {
				if v >= keep[c.id] {
					break scan
				}
			}
			if cerr := recovery.CheckTrimmable(s, m.lineDurableVersion, m.epochPersisted); cerr != nil {
				if err == nil {
					err = cerr
				}
				break
			}
			n++
		}
		c.table.DropHistory(n)
		trimmed += n
	}
	return trimmed, err
}

func (m *Machine) bank(line mem.Line) *bankCtx {
	return m.banks[int(uint64(line)%uint64(len(m.banks)))]
}

func (m *Machine) dirEntryFor(line mem.Line) *dirEntry {
	return &m.lines.get(line).dir
}

// latestVersion reports the newest committed version of line (0 if the
// line was never written).
func (m *Machine) latestVersion(line mem.Line) mem.Version {
	if ls := m.lines.lookup(line); ls != nil {
		return ls.latest
	}
	return 0
}

// pool is a LIFO free list of frames of one type.
type pool[T any] []*T

// get pops the most recently released frame, or returns nil when the
// caller has to make a new one.
func (p *pool[T]) get() *T {
	n := len(*p)
	if n == 0 {
		return nil
	}
	f := (*p)[n-1]
	*p = (*p)[:n-1]
	return f
}

func (p *pool[T]) put(f *T) { *p = append(*p, f) }

// acquireLineBuf returns an empty flush-set scratch buffer, reusing a
// released one when available.
func (m *Machine) acquireLineBuf() []mem.Line {
	if n := len(m.lineBufs); n > 0 {
		buf := m.lineBufs[n-1]
		m.lineBufs = m.lineBufs[:n-1]
		return buf[:0]
	}
	return nil
}

// releaseLineBuf returns a scratch buffer to the free-list.
func (m *Machine) releaseLineBuf(buf []mem.Line) {
	if cap(buf) > 0 {
		m.lineBufs = append(m.lineBufs, buf)
	}
}

// Load installs a program onto the cores of a machine nothing has been
// fed, and closes the feed: a loaded program is the whole stream. Traces
// beyond Config.Cores and a program with no ops are rejected; missing
// traces leave cores idle. The traces are installed, not copied: no Feed
// can follow to append to them.
func (m *Machine) Load(p *trace.Program) error {
	switch {
	case m.feedClosed:
		return fmt.Errorf("machine: Load after CloseFeed")
	case p.Cores() > m.cfg.Cores:
		return fmt.Errorf("machine: program has %d traces for %d cores", p.Cores(), m.cfg.Cores)
	case p.Ops() == 0:
		return fmt.Errorf("machine: program has no ops")
	}
	for i, ops := range p.Traces {
		m.cores[i].ops = ops
	}
	m.CloseFeed()
	return nil
}

// Run closes the feed, runs every core to completion (including the final
// persist drain) and returns the result.
func (m *Machine) Run() (*Result, error) { return m.RunEvery(0, nil) }

// RunEvery is Run in windows of window cycles: it runs the engine in
// slices ending at k·window − 1 and hands each the counters read after
// it, until the queue drains — ⌊last event cycle / window⌋ + 1 calls. No
// event is added, so the Result is Run's. A zero window or nil each is
// Run.
func (m *Machine) RunEvery(window sim.Cycle, each func(Counters)) (*Result, error) {
	m.CloseFeed()
	if window == 0 || each == nil {
		m.eng.Run()
	} else {
		// RunWhile, unlike RunUntil, leaves the clock at the last event
		// when the queue drains, so a deadlocked run's ExecCycles holds.
		always := func() bool { return true }
		for end := window - 1; ; end += window {
			m.eng.RunWhile(end, always)
			each(m.Counters())
			if m.eng.Pending() == 0 {
				break
			}
		}
	}
	if !m.finished {
		m.deadlocked = true
	}
	return m.result(), nil
}

// RunUntil closes the feed and runs until the given cycle (a crash
// instant) or completion, whichever is first, and returns the result. The
// durable state visible in the result is exactly what NVRAM held at that
// instant.
func (m *Machine) RunUntil(crash sim.Cycle) (*Result, error) {
	m.CloseFeed()
	m.eng.RunUntil(crash)
	return m.result(), nil
}

// coreFinished runs when a core retires its last op.
func (m *Machine) coreFinished(c *coreCtx) {
	if c.done {
		return
	}
	c.done = true
	c.execDone = m.eng.Now()
	m.runningCores--
	if m.runningCores > 0 {
		return
	}
	m.execCycles = m.eng.Now()
	m.drainAll(func() {
		m.drainCycles = m.eng.Now()
		m.finished = true
	})
}

// drainAll flushes every core's outstanding persistent state at end of run.
func (m *Machine) drainAll(done func()) {
	remaining := len(m.cores)
	arrive := func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	for _, c := range m.cores {
		m.drainCore(c, arrive)
	}
}

func (m *Machine) drainCore(c *coreCtx, done func()) {
	switch m.cfg.Model {
	case NP:
		done()
	case SP:
		done() // every store already persisted synchronously
	case WT:
		m.wtDrain(c, done)
	default:
		m.epochDrain(c, done)
	}
}

// wtDrain waits for the WT persist queue to empty.
func (m *Machine) wtDrain(c *coreCtx, done func()) {
	if c.wtInFlight == 0 {
		done()
		return
	}
	c.wtWaiters = append(c.wtWaiters, func() { m.wtDrain(c, done) })
}

// epochDrain closes the current epoch and flushes everything (EP/LB).
func (m *Machine) epochDrain(c *coreCtx, done func()) {
	tbl := c.table
	if len(tbl.Current().Pending) == 0 && tbl.InFlight() == 1 {
		done()
		return
	}
	if !tbl.CanAdvance() {
		oldest := tbl.Oldest().ID.Num
		c.arb.DemandThrough(oldest, epoch.CausePressure)
		tbl.OnPersisted(oldest, func() { m.epochDrain(c, done) })
		return
	}
	closed := tbl.Current().ID.Num
	tbl.Advance(m.eng.Now(), epoch.DrainAdvance)
	c.arb.DemandThrough(closed, epoch.CauseDrain)
	tbl.OnPersisted(closed, func() {
		// More epochs may remain (the freshly opened one is empty).
		if tbl.InFlight() == 1 {
			done()
			return
		}
		m.epochDrain(c, done)
	})
	c.arb.Kick()
}

// lineDurable records that a line version of epoch id (or untagged) is durable.
func (m *Machine) lineDurable(id epoch.ID, line mem.Line, ver mem.Version) {
	m.persistedLines++
	if m.cfg.Probe.Active() {
		m.cfg.Probe.PersistAck(m.eng.Now(), line, id.Core, id.Num)
	}
	if m.cfg.RecordOpTimes {
		m.persistLog = append(m.persistLog, PersistEvent{Line: line, Version: ver, Cycle: m.eng.Now(), Epoch: id})
	}
	if !id.Valid() {
		return
	}
	rec := m.cores[id.Core].table.Lookup(id.Num)
	if rec == nil {
		// Its epoch persisted with this write in flight: a protocol bug.
		panic(fmt.Sprintf("machine: PersistAck of %v for %v, which has already persisted", line, id))
	}
	rec.AcksInFlight--
	// A same-epoch store may have re-dirtied the line while this (older)
	// version's ack was in flight; the epoch still owes the newer version
	// to NVRAM, so keep the line pending. If a cached copy holds exactly
	// the acked version it is now durable: clean it so no stale dirty tag
	// outlives the epoch.
	newer := false
	if ent, ok := m.cores[rec.ID.Core].l1.Peek(line); ok && ent.Dirty && ent.Tag == rec.ID {
		if ent.Version > ver {
			newer = true
		} else if ent.Version == ver {
			m.cores[rec.ID.Core].l1.CleanLine(line)
		}
	}
	if ent, ok := m.bank(line).arr.Peek(line); ok && ent.Dirty && ent.Tag == rec.ID {
		if ent.Version > ver {
			newer = true
		} else if ent.Version == ver {
			m.bank(line).arr.CleanLine(line)
		}
	}
	if !newer {
		delete(rec.Pending, line)
	}
	m.cores[rec.ID.Core].arb.Kick()
}

// stall is one wait for an epoch to persist, charged to a stall cause of
// core c. Every frame that can wait embeds one: a frame is a sequential
// chain, so it waits on one epoch at a time, and wakeFn is bound once.
type stall struct {
	m     *Machine
	c     *coreCtx
	cause StallCause
	since sim.Cycle
	cont  func()

	wakeFn func()
}

func (s *stall) init(m *Machine) { s.m, s.wakeFn = m, s.wake }

// until runs cont when epoch id has persisted, charging the wait to cause.
func (s *stall) until(id epoch.ID, cause StallCause, cont func()) {
	s.cause, s.since, s.cont = cause, s.m.eng.Now(), cont
	s.m.cores[id.Core].table.OnPersisted(id.Num, s.wakeFn)
}

func (s *stall) wake() {
	s.c.stalls[s.cause] += s.m.eng.Now() - s.since
	cont := s.cont
	s.cont = nil
	cont()
}
