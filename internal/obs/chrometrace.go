package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"persistbarriers/internal/sim"
)

// ChromeTracer is a Sink that renders the event stream in Chrome
// trace-event JSON through a TraceWriter. Timestamps are simulated
// cycles reported in the format's microsecond field, so 1 us on screen =
// 1 cycle.
//
// Track layout:
//   - one process per core ("core N"), with a dynamically allocated set
//     of epoch lanes so overlapping in-flight epochs of one core never
//     share a track: each epoch is a complete ("X") span from open to
//     PersistCMP, with a nested span covering the persist phase
//     (barrier retire -> PersistCMP); conflicts, splits, and IDT
//     fallbacks are instant markers on the core's marker lane;
//   - one process per LLC bank ("LLC bank N"), one lane per flushing
//     core, carrying the bank's flush spans (FlushEpoch -> BankAck);
//   - one process per memory controller ("MC N") with a "queue wait"
//     counter track, plus a global "NVRAM" process with a cumulative
//     "persisted lines" counter.
//
// Within every track, spans are non-overlapping by construction (lane
// allocation) and the output is sorted by timestamp.
type ChromeTracer struct {
	trace TraceWriter

	// Open epoch spans and per-core lane occupancy.
	epochs map[epochKey]*epochSpan
	lanes  map[int][]bool

	// Open bank flush spans, keyed by (bank, flushing core).
	bankFlush map[bankKey]sim.Cycle

	persistedLines uint64
	lastCycle      sim.Cycle
}

type epochKey struct {
	core int
	num  int64
}

type bankKey struct {
	bank int
	core int
}

type epochSpan struct {
	lane        int
	openAt      sim.Cycle
	completedAt sim.Cycle
	flushAt     sim.Cycle
	completed   bool
	flushed     bool
	reason      string
	stores      uint64
}

// Track numbering. Process IDs partition the structures; marker lanes
// use a tid far above any plausible lane count.
const (
	corePidBase = 1
	bankPidBase = 1001
	mcPidBase   = 2001
	nvramPid    = 3001
	markerTid   = 1000
)

// NewChromeTracer returns an empty tracer ready to use as a Sink.
func NewChromeTracer() *ChromeTracer {
	return &ChromeTracer{
		epochs:    make(map[epochKey]*epochSpan),
		lanes:     make(map[int][]bool),
		bankFlush: make(map[bankKey]sim.Cycle),
	}
}

// Emit implements Sink.
func (t *ChromeTracer) Emit(ev Event) {
	if ev.Cycle > t.lastCycle {
		t.lastCycle = ev.Cycle
	}
	switch ev.Kind {
	case KEpochOpen:
		t.openEpoch(ev)
	case KEpochComplete:
		if sp := t.epochs[epochKey{ev.Core, ev.Epoch}]; sp != nil {
			sp.completed = true
			sp.completedAt = ev.Cycle
			sp.reason = ev.Label
			sp.stores = ev.Value
		}
	case KEpochFlushStart:
		if sp := t.epochs[epochKey{ev.Core, ev.Epoch}]; sp != nil && !sp.flushed {
			sp.flushed = true
			sp.flushAt = ev.Cycle
		}
	case KEpochPersist:
		t.closeEpoch(ev)
	case KEpochSplit:
		t.instant(ev, fmt.Sprintf("split E%d.%d", ev.Core, ev.Epoch), "split", nil)
	case KConflict:
		t.instant(ev, ev.Label+"-conflict", "conflict", map[string]any{
			"source":     fmt.Sprintf("E%d.%d", ev.SrcCore, ev.SrcEpoch),
			"line":       ev.Line.String(),
			"resolution": ev.Detail,
		})
	case KIDTFallback:
		t.instant(ev, "idt-fallback", "conflict", map[string]any{
			"source": fmt.Sprintf("E%d.%d", ev.SrcCore, ev.SrcEpoch),
		})
	case KBankFlushStart:
		t.bankFlush[bankKey{ev.Unit, ev.Core}] = ev.Cycle
	case KBankAck:
		t.closeBankFlush(ev)
	case KPersistAck:
		t.persistedLines++
		t.trace.Process(nvramPid, "NVRAM", nil)
		t.trace.Add(TraceEvent{
			Name: "persisted lines", Ph: "C", Ts: uint64(ev.Cycle),
			Pid: nvramPid, Tid: 0,
			Args: map[string]any{"lines": t.persistedLines},
		})
	case KNVRAMQueue:
		pid := mcPidBase + ev.Unit
		t.trace.Process(pid, fmt.Sprintf("MC %d", ev.Unit), nil)
		t.trace.Add(TraceEvent{
			Name: "queue wait", Ph: "C", Ts: uint64(ev.Cycle),
			Pid: pid, Tid: 0,
			Args: map[string]any{"cycles": ev.Value},
		})
	case KTxRetired:
		t.instant(ev, "tx", "tx", nil)
	}
}

// openEpoch allocates the smallest free lane on the core and starts the
// span. Lane reuse is safe: a lane frees only when its epoch persists,
// so spans on one lane can never overlap.
func (t *ChromeTracer) openEpoch(ev Event) {
	lanes := t.lanes[ev.Core]
	lane := slices.Index(lanes, false)
	if lane == -1 {
		lane = len(lanes)
		lanes = append(lanes, false)
	}
	lanes[lane] = true
	t.lanes[ev.Core] = lanes
	t.epochs[epochKey{ev.Core, ev.Epoch}] = &epochSpan{lane: lane, openAt: ev.Cycle}

	pid := corePidBase + ev.Core
	t.trace.Process(pid, fmt.Sprintf("core %d", ev.Core), nil)
	t.trace.Thread(pid, lane, fmt.Sprintf("epochs.%d", lane))
}

// closeEpoch emits the epoch's span (and nested persist-phase span) and
// frees its lane.
func (t *ChromeTracer) closeEpoch(ev Event) {
	key := epochKey{ev.Core, ev.Epoch}
	sp := t.epochs[key]
	if sp == nil {
		return
	}
	delete(t.epochs, key)
	t.lanes[ev.Core][sp.lane] = false
	t.emitEpochSpan(ev.Core, ev.Epoch, sp, ev.Cycle, ev.Label, false)
}

// emitEpochSpan renders one epoch's lifetime on its lane.
func (t *ChromeTracer) emitEpochSpan(core int, num int64, sp *epochSpan, end sim.Cycle, cause string, unfinished bool) {
	pid := corePidBase + core
	args := map[string]any{
		"cause":  cause,
		"stores": sp.stores,
	}
	if sp.completed {
		args["reason"] = sp.reason
		args["completed_at"] = uint64(sp.completedAt)
	}
	if sp.flushed {
		args["flush_start_at"] = uint64(sp.flushAt)
	}
	if unfinished {
		args["unfinished"] = true
	}
	t.trace.Add(TraceEvent{
		Name: fmt.Sprintf("E%d.%d", core, num), Cat: "epoch", Ph: "X",
		Ts: uint64(sp.openAt), Dur: uint64(end - sp.openAt),
		Pid: pid, Tid: sp.lane, Args: args,
	})
	if sp.completed && end > sp.completedAt {
		// The persist phase: barrier retire -> PersistCMP, nested
		// inside the epoch span on the same lane.
		t.trace.Add(TraceEvent{
			Name: fmt.Sprintf("persist E%d.%d", core, num), Cat: "persist", Ph: "X",
			Ts: uint64(sp.completedAt), Dur: uint64(end - sp.completedAt),
			Pid: pid, Tid: sp.lane,
			Args: map[string]any{"cause": cause},
		})
	}
}

// closeBankFlush emits the bank's drain span for one epoch flush.
func (t *ChromeTracer) closeBankFlush(ev Event) {
	key := bankKey{ev.Unit, ev.Core}
	start, ok := t.bankFlush[key]
	if !ok {
		return
	}
	delete(t.bankFlush, key)
	pid := bankPidBase + ev.Unit
	t.trace.Process(pid, fmt.Sprintf("LLC bank %d", ev.Unit), nil)
	t.trace.Thread(pid, ev.Core, fmt.Sprintf("flush core %d", ev.Core))
	t.trace.Add(TraceEvent{
		Name: fmt.Sprintf("flush E%d.%d", ev.Core, ev.Epoch), Cat: "flush", Ph: "X",
		Ts: uint64(start), Dur: uint64(ev.Cycle - start),
		Pid: pid, Tid: ev.Core,
	})
}

// instant emits a thread-scoped instant marker on the event's core
// marker lane (falling back to the source core for requester-less
// events such as eviction demands).
func (t *ChromeTracer) instant(ev Event, name, cat string, args map[string]any) {
	core := ev.Core
	if core < 0 {
		core = ev.SrcCore
	}
	if core < 0 {
		return
	}
	pid := corePidBase + core
	t.trace.Process(pid, fmt.Sprintf("core %d", core), nil)
	t.trace.Thread(pid, markerTid, "markers")
	t.trace.Add(TraceEvent{
		Name: name, Cat: cat, Ph: "i", Ts: uint64(ev.Cycle),
		Pid: pid, Tid: markerTid, S: "t", Args: args,
	})
}

// Export finalizes the trace and writes it as a JSON array. Epochs
// still in flight are emitted as unfinished spans ending at the last
// observed cycle. Export may be called once, after the run.
func (t *ChromeTracer) Export(w io.Writer) error {
	// Flush unfinished epoch spans deterministically.
	var open []epochKey
	for k := range t.epochs {
		open = append(open, k)
	}
	slices.SortFunc(open, func(a, b epochKey) int {
		return cmp.Or(cmp.Compare(a.core, b.core), cmp.Compare(a.num, b.num))
	})
	for _, k := range open {
		sp := t.epochs[k]
		cause := "none"
		if sp.flushed {
			cause = "in-flight"
		}
		t.emitEpochSpan(k.core, k.num, sp, t.lastCycle, cause, true)
		delete(t.epochs, k)
	}
	return t.trace.Encode(w)
}
