package epoch

import (
	"fmt"
	"slices"

	"persistbarriers/internal/hist"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/sim"
)

// AdvanceReason records why a core moved from one epoch to the next.
type AdvanceReason uint8

const (
	// BarrierAdvance: a programmer-inserted persist barrier retired (BEP).
	BarrierAdvance AdvanceReason = iota
	// HardwareAdvance: the BSP bulk-mode persistence engine closed the
	// epoch after its store quota.
	HardwareAdvance
	// SplitAdvance: the deadlock-avoidance rule of Section 3.3 split an
	// ongoing epoch because another thread registered a dependence on it.
	SplitAdvance
	// DrainAdvance: end-of-run drain closed the final epoch.
	DrainAdvance
)

// String implements fmt.Stringer.
func (r AdvanceReason) String() string {
	switch r {
	case BarrierAdvance:
		return "barrier"
	case HardwareAdvance:
		return "hardware"
	case SplitAdvance:
		return "split"
	case DrainAdvance:
		return "drain"
	default:
		return fmt.Sprintf("AdvanceReason(%d)", uint8(r))
	}
}

// FlushCause records why an epoch's persist happened, classifying the
// paper's online-vs-offline persist distinction and Figure 12's
// conflicting-epoch percentage.
type FlushCause uint8

const (
	// CauseNone: not yet determined.
	CauseNone FlushCause = iota
	// CauseIntra: an intra-thread conflict demanded the flush (§3.2).
	CauseIntra
	// CauseInter: an inter-thread conflict demanded the flush (§3.1).
	CauseInter
	// CauseEviction: replacement of a dirty tagged line demanded that
	// its epoch's predecessors persist first.
	CauseEviction
	// CausePressure: the 8-epoch in-flight limit forced the flush.
	CausePressure
	// CauseProactive: PF flushed the epoch on completion (§3.2).
	CauseProactive
	// CauseEager: an unbuffered-EP barrier flushed the epoch
	// synchronously (rule E2).
	CauseEager
	// CauseDrain: end-of-run drain.
	CauseDrain
	// CauseNatural: every line left the caches by natural replacement;
	// the epoch persisted with no flush at all (the LB ideal).
	CauseNatural
)

// String implements fmt.Stringer.
func (c FlushCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseIntra:
		return "intra-conflict"
	case CauseInter:
		return "inter-conflict"
	case CauseEviction:
		return "eviction"
	case CausePressure:
		return "pressure"
	case CauseProactive:
		return "proactive"
	case CauseEager:
		return "eager"
	case CauseDrain:
		return "drain"
	case CauseNatural:
		return "natural"
	default:
		return fmt.Sprintf("FlushCause(%d)", uint8(c))
	}
}

// Conflicting reports whether the cause counts as an epoch conflict in the
// sense of Figure 12 (a memory request triggered the flush).
func (c FlushCause) Conflicting() bool {
	return c == CauseIntra || c == CauseInter || c == CauseEviction
}

// Dep is one IDT dependence register: a source epoch that must persist
// before the owning epoch may. It names the source; it does not point at it.
type Dep struct {
	Source     ID
	subscribed bool
	demanded   bool
}

// Record is one in-flight epoch's hardware state, a slot of its core's Table
// that a later epoch reuses once this one persists: a *Record is valid only
// inside the event that looked it up; hold the epoch's ID across events.
type Record struct {
	ID    ID
	State State

	// Pending holds the lines written in this epoch whose newest value
	// has not yet reached NVRAM.
	Pending map[mem.Line]struct{}

	// Writes is the final version written to each line in this epoch.
	// Populated only when the table records history (recovery checking).
	Writes map[mem.Line]mem.Version

	// Deps are the IDT dependence registers (§4.2).
	Deps []Dep

	// OnlineEdges are inter-thread orderings that were enforced
	// synchronously (the LB path: the source epoch persisted before the
	// conflicting request completed). They need no registers or waits,
	// but the recovery checker uses them as happens-before edges.
	OnlineEdges []ID

	// LogPending counts outstanding undo-log writes for this epoch; the
	// epoch may not persist until they are durable (§5.2.1).
	LogPending int

	// AcksInFlight counts NVRAM writes of this epoch's lines that have
	// been issued but not yet acked. The arbiter uses it to distinguish
	// "waiting on acks" from "a line was re-dirtied mid-flush and needs
	// another flush pass".
	AcksInFlight int

	// EarlyWrites counts the lines of this epoch written back early, at
	// their store (the machine's early write-back, beyond the paper). An
	// epoch with early writes must not gain an inter-thread ordering
	// edge: the machine splits it first.
	EarlyWrites int

	// persisted fires when the epoch persists (Table.OnPersisted).
	persisted sim.Signal

	// Cause is why this epoch's flush was (first) demanded.
	Cause FlushCause
	// flushWanted marks that someone demanded this epoch be flushed.
	flushWanted bool
	// FlushCompleted marks that the flush handshake finished; any lines
	// still pending are stragglers (naturally evicted lines whose NVRAM
	// acks are in flight) and the arbiter waits for them instead of
	// starting a second flush.
	FlushCompleted bool

	// ConflictDemanded records that at least one memory request
	// conflicted with this epoch before it persisted — Figure 12's
	// "conflicting epoch" notion. It is set whether the conflict was
	// resolved online (LB) or via a dependence register (IDT): the paper
	// counts both ("IDT does not directly impact the percentage of
	// conflicting epochs", §7.1).
	ConflictDemanded bool

	CompletedAt sim.Cycle
	StoreCount  uint64
}

// AddPending registers a line write in this epoch. It returns true when
// the line was not already pending (the first write to it in this epoch).
func (r *Record) AddPending(line mem.Line) bool {
	if _, ok := r.Pending[line]; ok {
		return false
	}
	r.Pending[line] = struct{}{}
	return true
}

// Config sizes the per-core epoch hardware.
type Config struct {
	// MaxInFlight bounds unpersisted epochs per core (paper: 8).
	MaxInFlight int
	// DepRegs bounds IDT dependence registers per epoch (paper: 4).
	DepRegs int
}

// DefaultConfig matches Section 4.3's hardware sizing.
func DefaultConfig() Config { return Config{MaxInFlight: 8, DepRegs: 4} }

// Summary is the retained history of a closed epoch (recovery checking).
type Summary struct {
	ID     ID
	Writes map[mem.Line]mem.Version
	Deps   []ID
	// PersistedFlag is set when the epoch fully persisted before the
	// crash/end of simulation.
	PersistedFlag bool
}

// Stats counts epoch-table activity for one core.
type Stats struct {
	EpochsOpened    uint64
	EpochsPersisted uint64
	// ConflictingEpochs counts persisted epochs that were the target of
	// at least one conflict (Figure 12).
	ConflictingEpochs uint64
	ByAdvance         [DrainAdvance + 1]uint64
	ByCause           [CauseNatural + 1]uint64
	DepsRecorded      uint64
	Splits            uint64
	// PersistLatency is each persisted epoch's completion-to-durability
	// time in cycles.
	PersistLatency hist.Hist
}

// Table is one core's epoch-tracking hardware: a fixed ring of MaxInFlight
// records, epoch n in slot n mod MaxInFlight, holding the window
// [oldest, next) of unpersisted epochs, the last of which is the open one.
type Table struct {
	Core int
	cfg  Config
	// recordHistory retains per-epoch write sets and a summary of every
	// closed epoch for the recovery checker.
	recordHistory bool
	// probe receives epoch-lifecycle events (open, complete, flush
	// start, persist, split); nil disables instrumentation.
	probe *obs.Probe

	ring         []Record
	oldest, next uint64

	history []*Summary
	stats   Stats
}

// NewTable returns a table with epoch 0 open. With recordHistory it keeps
// what History returns (benchmarks leave it off); probe, when non-nil,
// receives the table's epoch-lifecycle events.
func NewTable(core int, cfg Config, recordHistory bool, probe *obs.Probe) (*Table, error) {
	if cfg.MaxInFlight < 2 {
		return nil, fmt.Errorf("epoch: MaxInFlight must be at least 2, got %d", cfg.MaxInFlight)
	}
	if cfg.DepRegs < 0 {
		return nil, fmt.Errorf("epoch: DepRegs must be non-negative, got %d", cfg.DepRegs)
	}
	t := &Table{Core: core, cfg: cfg, recordHistory: recordHistory, probe: probe, ring: make([]Record, cfg.MaxInFlight)}
	for i := range t.ring {
		t.ring[i].Pending = make(map[mem.Line]struct{})
	}
	t.open(0)
	return t, nil
}

// PlantShortRing (tests only) makes the ring one slot short of the in-flight
// limit, to show the checkers catch a slot reused before its epoch persists.
func (t *Table) PlantShortRing() { t.ring = t.ring[:len(t.ring)-1] }

func (t *Table) slot(num uint64) *Record { return &t.ring[num%uint64(len(t.ring))] }

// open reuses the next epoch's slot in place; with history off it allocates
// nothing (Writes goes on to the epoch's Summary, so it is not reused).
func (t *Table) open(now sim.Cycle) *Record {
	r := t.slot(t.next)
	clear(r.Pending)
	r.persisted.Reset()
	*r = Record{ID: ID{Core: t.Core, Num: t.next}, Pending: r.Pending,
		Deps: r.Deps[:0], OnlineEdges: r.OnlineEdges[:0], persisted: r.persisted}
	if t.recordHistory {
		r.Writes = make(map[mem.Line]mem.Version)
	}
	t.next++
	t.stats.EpochsOpened++
	t.probe.EpochOpen(now, t.Core, r.ID.Num)
	return r
}

// Current returns the open epoch the core is executing in.
func (t *Table) Current() *Record { return t.slot(t.next - 1) }

// Oldest returns the oldest unpersisted epoch (the open one never persists).
func (t *Table) Oldest() *Record { return t.slot(t.oldest) }

// InFlight reports the number of unpersisted epochs (including current).
func (t *Table) InFlight() int { return int(t.next - t.oldest) }

// CanAdvance reports whether a new epoch may open without exceeding the
// in-flight limit.
func (t *Table) CanAdvance() bool { return t.InFlight() < t.cfg.MaxInFlight }

// Advance completes the current epoch and opens the next. The caller must
// have checked CanAdvance; violating the in-flight limit panics, modelling
// a hardware structural hazard that the machine layer must stall on.
func (t *Table) Advance(now sim.Cycle, why AdvanceReason) *Record {
	if !t.CanAdvance() {
		panic(fmt.Sprintf("epoch: core %d advancing past in-flight limit %d", t.Core, t.cfg.MaxInFlight))
	}
	cur := t.Current()
	if cur.State != Open {
		panic(fmt.Sprintf("epoch: advancing %v in state %v", cur.ID, cur.State))
	}
	cur.State = Completed
	cur.CompletedAt = now
	t.stats.ByAdvance[why]++
	if why == SplitAdvance {
		t.stats.Splits++
		t.probe.EpochSplit(now, t.Core, cur.ID.Num)
	}
	t.probe.EpochComplete(now, t.Core, cur.ID.Num, why.String(), cur.StoreCount)
	return t.open(now)
}

// Lookup returns the record of unpersisted epoch num, or nil when num has
// persisted or was never opened.
func (t *Table) Lookup(num uint64) *Record {
	if num < t.oldest || num >= t.next {
		return nil
	}
	return t.slot(num)
}

// IsPersisted reports whether epoch num has persisted: epochs persist in order.
func (t *Table) IsPersisted(num uint64) bool { return num < t.oldest }

// OnPersisted runs fn when epoch num has persisted: at once if it already
// has, otherwise at its persist, after everything subscribed before it.
func (t *Table) OnPersisted(num uint64, fn func()) {
	if num < t.oldest {
		fn()
		return
	}
	if num >= t.next {
		panic(fmt.Sprintf("epoch: waiting on E%d.%d, which has not opened", t.Core, num))
	}
	t.slot(num).persisted.Subscribe(fn)
}

// AddDependence records an IDT dependence: the dependent epoch (which must
// belong to this table) may not persist until source does. It returns
// false when the dependence registers are full — the caller must then fall
// back to an online flush, as the real hardware would.
func (t *Table) AddDependence(dependent *Record, source ID) bool {
	for i := range dependent.Deps {
		if dependent.Deps[i].Source == source {
			return true // already tracked
		}
	}
	if len(dependent.Deps) >= t.cfg.DepRegs {
		return false
	}
	dependent.Deps = append(dependent.Deps, Dep{Source: source})
	t.stats.DepsRecorded++
	return true
}

// markPersisted retires the oldest epoch, frees its slot and runs what
// waits on it.
func (t *Table) markPersisted(r *Record, now sim.Cycle) {
	if r.ID != (ID{Core: t.Core, Num: t.oldest}) {
		panic(fmt.Sprintf("epoch: persisting %v out of order", r.ID))
	}
	cause := r.Cause
	if !r.flushWanted {
		cause = CauseNatural
	}
	t.stats.ByCause[cause]++
	t.stats.EpochsPersisted++
	t.stats.PersistLatency.Observe(uint64(now - r.CompletedAt))
	// Figure 12's notion: the epoch either was the target of a conflict
	// (even if IDT resolved it offline) or was flushed as part of a
	// conflict-demanded chain.
	if r.ConflictDemanded || cause.Conflicting() {
		t.stats.ConflictingEpochs++
	}
	t.probe.EpochPersist(now, t.Core, r.ID.Num, cause.String())
	if t.recordHistory {
		t.history = append(t.history, &Summary{
			ID:            r.ID,
			Writes:        r.Writes,
			Deps:          r.allEdges(),
			PersistedFlag: true,
		})
	}
	t.oldest++
	r.persisted.Fire()
}

// History returns summaries of persisted epochs plus, at crash time, the
// still-unpersisted window (PersistedFlag false) so the recovery checker
// sees every epoch.
func (t *Table) History() []*Summary {
	if !t.recordHistory {
		return nil
	}
	out := make([]*Summary, len(t.history), len(t.history)+t.InFlight())
	copy(out, t.history)
	for n := t.oldest; n < t.next; n++ {
		r := t.slot(n)
		out = append(out, &Summary{ID: r.ID, Writes: r.Writes, Deps: r.allEdges()})
	}
	return out
}

// Persisted returns the retained summaries of this core's persisted epochs,
// oldest first (shared slice; do not modify).
func (t *Table) Persisted() []*Summary { return t.history }

// DropHistory forgets the n oldest retained summaries. The survivors are
// copied down (not resliced) so the backing array stops referencing the
// dropped ones.
func (t *Table) DropHistory(n int) {
	t.history = slices.Delete(t.history, 0, n)
}

// allEdges merges IDT register sources and online-enforced orderings into
// one happens-before edge list for the recovery checker.
func (r *Record) allEdges() []ID {
	edges := make([]ID, 0, len(r.Deps)+len(r.OnlineEdges))
	for i := range r.Deps {
		edges = append(edges, r.Deps[i].Source)
	}
	edges = append(edges, r.OnlineEdges...)
	return edges
}

// Stats returns a snapshot of the table's counters.
func (t *Table) Stats() Stats { return t.stats }
