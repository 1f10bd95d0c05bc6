package machine

import (
	"testing"
	"testing/quick"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/trace"
)

// TestQuickCrashConsistency: the LB variants with and without undo
// logging, on random programs of 40 to 159 ops, each crashed at five
// instants, satisfy the recovery invariants.
func TestQuickCrashConsistency(t *testing.T) { requireClean(t, "quick/*/*", 8) }

// TestQuickDurableEquality: for completed runs under any LB variant, drain
// leaves NVRAM holding exactly the newest version of every written line.
func TestQuickDurableEquality(t *testing.T) { requireClean(t, "*/LB*/seed=*", 84) }

// TestQuickThroughputSane: throughput is positive and bounded by the
// physical issue rate for arbitrary small programs.
func TestQuickThroughputSane(t *testing.T) {
	f := func(seed uint64) bool {
		r := run(t, testConfig(LB), randomProgram(seed, 2, 60, true))
		return r.Finished && r.ExecCycles > 0 && r.Transactions == 0 ||
			r.Throughput() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAtCycleZeroIsEmpty: the degenerate crash instant.
func TestCrashAtCycleZeroIsEmpty(t *testing.T) { requireClean(t, "plain50/LB/seed=1", 1) }

// TestSingleStoreProgram: the minimal persistent program end to end.
func TestSingleStoreProgram(t *testing.T) {
	var b trace.Builder
	b.Store(0)
	r := run(t, testConfig(LB), singleTrace(&b))
	if !r.Finished || r.PersistedLines != 1 {
		t.Fatalf("finished=%v persisted=%d", r.Finished, r.PersistedLines)
	}
	if r.Image[mem.LineOf(0)] != r.Latest[mem.LineOf(0)] {
		t.Fatal("single store not durable after drain")
	}
}
