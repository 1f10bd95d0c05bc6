package machine

import (
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// TestEarlyWriteBackAtCommit: on an LB++ machine a whole-line store is
// written back when it commits, so its line is durable about one device
// write after the store, long before the barrier that closes its epoch;
// the epoch's flush skips it, and the line is written once. A plain Store,
// and a StoreLine on a machine without PF or without IDT, wait for the
// flush.
func TestEarlyWriteBackAtCommit(t *testing.T) {
	line := missLines(1)[0]
	durableAt := func(cfg Config, whole bool) (*Result, sim.Cycle) {
		var b trace.Builder
		if whole {
			b.StoreLine(line, 1)
		} else {
			b.Store(line)
		}
		b.Compute(2000).Barrier()
		cfg.RecordOpTimes = true
		r := run(t, cfg, singleTrace(&b))
		if len(r.PersistLog) != 1 || r.PersistedLines != 1 {
			t.Fatalf("whole %v under %s: %d lines persisted, want the store's one", whole, cfg.BarrierName(), r.PersistedLines)
		}
		return r, r.PersistLog[0].Cycle
	}
	r, early := durableAt(barrier("LB++"), true)
	if r.EarlyWritebacks != 1 {
		t.Fatalf("LB++ StoreLine: %d early write-backs, want 1", r.EarlyWritebacks)
	}
	if early > 1000 {
		t.Fatalf("LB++ StoreLine durable at cycle %d, want it within a device write of its commit, before the barrier at 2000", early)
	}
	for _, c := range []struct {
		name  string
		cfg   Config
		whole bool
	}{
		{"LB++ Store", barrier("LB++"), false},
		{"LB+IDT StoreLine", barrier("LB+IDT"), true},
		{"LB+PF StoreLine", barrier("LB+PF"), true},
	} {
		r, at := durableAt(c.cfg, c.whole)
		if r.EarlyWritebacks != 0 || at < 2000 {
			t.Fatalf("%s: %d early write-backs, durable at cycle %d; want none, and durable after the barrier", c.name, r.EarlyWritebacks, at)
		}
	}
}

// TestEarlyWriteBackWaitsForOlderEpochs: a whole-line store into an epoch
// that is not its core's oldest unpersisted one (canDrainLine) is not
// written back early; the next one, once the older epoch has persisted,
// is.
func TestEarlyWriteBackWaitsForOlderEpochs(t *testing.T) {
	lines := missLines(3)
	var b trace.Builder
	b.Store(lines[0]).Barrier().StoreLine(lines[1], 0).Barrier().Compute(2000).StoreLine(lines[2], 0).Barrier()
	r := run(t, barrier("LB++"), singleTrace(&b))
	if r.EarlyWritebacks != 1 || r.PersistedLines != 3 {
		t.Fatalf("%d early write-backs and %d persisted lines, want 1 (the second StoreLine) and 3", r.EarlyWritebacks, r.PersistedLines)
	}
}

// rewriteProgram queues a line's write-back and rewrites it in its epoch.
func rewriteProgram() *trace.Program {
	lines := missLines(68)
	var b trace.Builder
	for i := 4; i < len(lines); i += 4 {
		b.StoreLine(lines[i], 0) // 16 lines on lines[0]'s controller, so its write-back queues
	}
	b.StoreLine(lines[0], 0).StoreLine(lines[0], 0).Barrier().Compute(2000)
	return singleTrace(&b)
}

// TestRewriteAfterEarlyWriteBack: a second store to a line whose early
// write-back is still queued or in flight, in the same epoch, is not
// written back early; the flush writes it, and the controller admits the
// queued older version first, so the newer one is what stays durable.
// The sweep's rewrite row crashes it at every image.
func TestRewriteAfterEarlyWriteBack(t *testing.T) {
	requireClean(t, "rewrite", 1)
	r := cleanRun(t, "rewrite")
	if r.EarlyWritebacks != 17 || r.MC.BackgroundWaitCycles == 0 {
		t.Fatalf("%d early write-backs, %d background wait cycles; want 17, the rewrite not among them, and some queueing",
			r.EarlyWritebacks, r.MC.BackgroundWaitCycles)
	}
	line := mem.LineOf(missLines(1)[0])
	if got, want := r.Image[line], r.Latest[line]; got != want {
		t.Fatalf("line durable at version %d, the rewrite committed %d", got, want)
	}
}

// overtakenProgram is TestEarlyWriteOvertakenBySameVersion's two cores,
// run on one-line caches.
func overtakenProgram() *trace.Program {
	lines := missLines(72)
	var t0, t2 trace.Builder
	for i := 8; i < len(lines); i += 4 {
		t2.StoreLine(lines[i], 0) // core 2 fills L's controller's queue
	}
	t0.Compute(20).StoreLine(lines[0], 0).Barrier().StoreLine(lines[4], 0).Compute(3000).Barrier()
	return &trace.Program{Traces: [][]trace.Op{t0.Ops(), nil, t2.Ops()}}
}

// TestEarlyWriteOvertakenBySameVersion: on one-line caches, core 0's
// line L is written back early and waits in its controller's background
// queue behind core 2's write-backs. Its epoch closes, and its flush has
// nothing to drain (the L1 copy is skipped). Core 0's next store evicts L
// into the LLC and the LLC evicts it to NVRAM, the same version again, as
// a foreground write that admits the queued one first. The first ack
// leaves the epoch with nothing pending and the second write in flight:
// the arbiter must wait for that ack before it persists the epoch, or the
// ack finds the epoch gone and panics. The sweep's overtaken row crashes
// it at every image.
func TestEarlyWriteOvertakenBySameVersion(t *testing.T) {
	requireClean(t, "overtaken", 1)
	var writes []mem.Version
	for _, e := range cleanRun(t, "overtaken").PersistLog {
		if e.Line == mem.LineOf(missLines(1)[0]) {
			writes = append(writes, e.Version)
		}
	}
	if len(writes) != 2 || writes[0] != writes[1] {
		t.Fatalf("L became durable as versions %v, want one version twice: the early write-back and the eviction's", writes)
	}
}

// Core 1's side of fig4.
const (
	storeThenLoad = iota // B's whole-line store, then the load of A
	loadThenStore        // the load of A, then B's store
)

// fig4 is Fig. 4's two-core shape written with whole-line stores. Core 0
// closes an epoch of 30 stores, then stores A in its next epoch, which
// stays open for a while; core 1 stores B and loads A, in the order
// given. Core 1's load of A is an inter-thread conflict with core 0's
// open epoch, so core 1's epoch depends on it: A persists only once that
// epoch is split off and the 30 lines before it are durable. Core 0's
// first epoch leaves B's memory controller idle, so an early write-back
// of B lands first.
func fig4(order int) *trace.Program {
	lines := missLines(48)
	a, b := lines[45], lines[44] // B's controller is line 44's, 0 (ControllerFor)
	var t0, t1 trace.Builder
	for i := 0; i < 40; i++ {
		if i%4 != 0 {
			t0.Store(lines[i])
		}
	}
	t0.Barrier().Store(a).Compute(3000).Barrier()
	t1.Compute(800)
	switch order {
	case storeThenLoad:
		t1.StoreLine(b, 0).Compute(100).Load(a)
	case loadThenStore:
		t1.Load(a).StoreLine(b, 0)
	}
	t1.Barrier()
	return &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}
}

// TestPlantedEarlyWriteAnyEpoch tests the tester: with core 1's load
// first, core 1's epoch depends on core 0's open epoch when B's store
// commits, so canDrainLine forbids writing B back yet. The plant writes it
// back anyway, and some crash image holds B without A.
func TestPlantedEarlyWriteAnyEpoch(t *testing.T) {
	if r := cleanRun(t, "fig4/load-then-store"); r.Epochs.Deps != 1 || r.EarlyWritebacks != 0 {
		t.Fatalf("clean: %d IDT edges, %d early write-backs; want 1 and 0", r.Epochs.Deps, r.EarlyWritebacks)
	}
	requireCaught(t, "fig4/load-then-store", plantEarlyWriteAnyEpoch, "order")
}

// TestPlantedEarlyEdgeNoSplit tests the tester: with core 1's store
// first, B is written back early, and the load's dependence must land on
// the epoch after B's, which the split before it makes. The plant attaches
// it to B's epoch unsplit, and some crash image holds B without A.
func TestPlantedEarlyEdgeNoSplit(t *testing.T) {
	if r := cleanRun(t, "fig4/store-then-load"); r.Epochs.Deps != 1 || r.EarlyWritebacks != 1 || r.Epochs.Splits != 2 {
		t.Fatalf("clean: %d IDT edges, %d early write-backs, %d splits; want 1, 1 and 2 (core 0's open epoch, then core 1's)",
			r.Epochs.Deps, r.EarlyWritebacks, r.Epochs.Splits)
	}
	requireCaught(t, "fig4/store-then-load", plantEarlyEdgeNoSplit, "order")
}

// TestLoadAfterEarlyWriteBack: core 0's whole-line store is written back
// early and acked while its L1 still holds the line, which the ack cleans.
// Core 1 then loads the line: the recall of core 0's clean copy writes
// nothing back, so the LLC must already hold the stored version, which
// the load must get.
func TestLoadAfterEarlyWriteBack(t *testing.T) {
	line := missLines(1)[0]
	var t0, t1 trace.Builder
	t0.StoreLine(line, 0).Compute(3000).Barrier()
	t1.Compute(1500).Load(line)
	cfg := barrier("LB++")
	cfg.RecordOpTimes = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(&trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil || !r.Finished {
		t.Fatalf("finished %v, %v", r.Finished, err)
	}
	if r.EarlyWritebacks != 1 || len(r.PersistLog) != 1 || r.PersistLog[0].Cycle > 1500 {
		t.Fatalf("%d early write-backs, persists %v; want 1, acked before the load at cycle 1500", r.EarlyWritebacks, r.PersistLog)
	}
	l := mem.LineOf(line)
	got, ok := m.cores[1].l1.Peek(l)
	if !ok || got.Version != r.Latest[l] {
		t.Fatalf("core 1 loaded version %d (resident %v), the store committed %d", got.Version, ok, r.Latest[l])
	}
}
