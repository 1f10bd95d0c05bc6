package machine

import (
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// missLines returns n lines no cache holds yet, one per LLC bank in turn,
// so each load of one is an NVRAM read.
func missLines(n int) []mem.Addr {
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = 0x200000 + mem.Addr(i)*mem.LineSize
	}
	return out
}

// loadsCycles runs one core through the loads of lines, posted or
// blocking, and reports when it retired the last.
func loadsCycles(t *testing.T, lines []mem.Addr, posted bool) sim.Cycle {
	t.Helper()
	var b trace.Builder
	for _, a := range lines {
		if posted {
			b.PostedLoad(a)
		} else {
			b.Load(a)
		}
	}
	r := run(t, testConfig(LB), &trace.Program{Traces: [][]trace.Op{b.Ops()}})
	if r.Counters.MC.Reads != uint64(len(lines)) {
		t.Fatalf("%d NVRAM reads for %d loads: the lines do not miss", r.Counters.MC.Reads, len(lines))
	}
	return r.ExecCycles
}

// TestPostedLoadsOverlapMisses: eight posted loads (a core's slots) that
// all miss to NVRAM retire in about one miss plus an issue slot each and
// the controllers' read service, where blocking loads take one miss each.
func TestPostedLoadsOverlapMisses(t *testing.T) {
	one := loadsCycles(t, missLines(1), true)
	lines := missLines(8)
	posted, blocking := loadsCycles(t, lines, true), loadsCycles(t, lines, false)
	// Each load adds its issue slot and its read's 6-cycle service at a
	// controller; a second serialized miss would add a whole miss.
	bound := one + sim.Cycle(len(lines))*(L1Latency+6)
	t.Logf("%d posted misses retire at cycle %d (one: %d, bound %d); blocking, %d", len(lines), posted, one, bound, blocking)
	if posted > bound {
		t.Fatalf("%d posted misses took %d cycles, want at most %d: they do not overlap", len(lines), posted, bound)
	}
	if blocking < sim.Cycle(len(lines))*one*3/4 {
		t.Fatalf("%d blocking misses took %d cycles, one takes %d: the blocking loads overlap too", len(lines), blocking, one)
	}
}

// barrierEdgeTrace is two cores: core 0 closes an epoch that writes line 0
// and keeps it unpersisted (PF off); core 1 then posts a load of line 0,
// finds core 0's epoch and takes an IDT dependence on it, and closes its
// first epoch with a barrier before a second one writes line 64.
func barrierEdgeTrace() *trace.Program {
	var t0, t1 trace.Builder
	t0.Store(0).Barrier().Compute(4000)
	t1.Compute(500).PostedLoad(0).Barrier().Store(64).Barrier()
	return &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}
}

// edgeHolders names core 1's epochs that carry core 0's epoch 0 as a
// dependence.
func edgeHolders(r *Result) []uint64 {
	src := epoch.ID{Core: 0, Num: 0}
	var out []uint64
	for _, s := range r.Histories[1] {
		for _, d := range s.Deps {
			if d == src {
				out = append(out, s.ID.Num)
			}
		}
	}
	return out
}

// TestPostedLoadEdgeOnBarrierEpoch: the inter-thread dependence a posted
// load finds lands on the epoch its core's next barrier closes, because
// the barrier waits for the load. Without that wait the barrier closes
// the epoch first and the edge lands on the one after, which a read's ack
// does not wait for (plantBarrierSkipsLoads). No crash image of the
// sweep's barrier-edge row can tell the two apart; its clean drains can.
func TestPostedLoadEdgeOnBarrierEpoch(t *testing.T) {
	edge := func(bug plant) []uint64 {
		r := swept(t, "barrier-edge", bug)[0].res[0]
		if r.Conflicts.Inter != 1 || r.Epochs.Deps != 1 {
			t.Fatalf("plant %s: %d inter conflicts and %d IDT edges, want one of each", plantNames[bug], r.Conflicts.Inter, r.Epochs.Deps)
		}
		return edgeHolders(r)
	}
	if got := edge(plantNone); len(got) != 1 || got[0] != 0 {
		t.Fatalf("core 1's epochs %v depend on core 0's epoch 0, want only epoch 0, the one the barrier after the load closed", got)
	}
	if got := edge(plantBarrierSkipsLoads); len(got) == 1 && got[0] == 0 {
		t.Fatal("with the barrier skipping the loads the edge still lands on the barrier's epoch: the test cannot see the plant")
	}
}

// TestIdleWaitsForPostedLoads: a core that has issued its last op is not
// idle while a posted load of it is in flight, so PumpUntilIdle still
// returns only once every fed op has retired.
func TestIdleWaitsForPostedLoads(t *testing.T) {
	m, err := New(testConfig(LB))
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Builder
	if err := m.Feed(0, b.PostedLoad(missLines(1)[0]).Ops()); err != nil {
		t.Fatal(err)
	}
	m.Step(4 * L1Latency) // past the load's issue slot, far short of NVRAM
	if m.Idle() {
		t.Fatalf("idle at cycle %d with a posted load to NVRAM in flight", m.Now())
	}
	if !m.PumpUntilIdle(sim.MaxCycle) {
		t.Fatal("machine did not go idle")
	}
	if got := m.Counters().MC.Reads; got != 1 {
		t.Fatalf("idle at cycle %d after %d NVRAM reads, want the load's one", m.Now(), got)
	}
}

// TestStoreWaitsForPostedLoads: a store leaves for the write buffer only
// after the posted loads before it are in, as in-order retirement has it,
// so the epoch a load's dependence lands on is never later than the
// stores that follow it.
func TestStoreWaitsForPostedLoads(t *testing.T) {
	line := missLines(1)[0]
	m, err := New(testConfig(LB))
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Builder
	feedAndRun(t, m, 0, b.PostedLoad(line).Ops())
	served := m.Now()

	cfg := testConfig(LB)
	cfg.RecordOpTimes = true
	r := run(t, cfg, &trace.Program{Traces: [][]trace.Op{b.Reset().PostedLoad(line).Store(64).Ops()}})
	if times := r.Cores[0].OpTimes; times[1] < served+L1Latency {
		t.Fatalf("the store after a posted load retired at cycle %d, the load is served at %d", times[1], served)
	}
}
