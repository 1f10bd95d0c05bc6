package machine

import (
	"fmt"
	"testing"
)

// Each crash property below names the rows of the crash sweep
// (sweep_test.go) that crash its programs, and requireClean holds the
// honest machine to every check on them.

// TestCrashConsistencyAcrossBarriers is the headline property test:
// whatever instant we crash at, under every LB variant, the durable image
// respects the epoch happens-before order.
func TestCrashConsistencyAcrossBarriers(t *testing.T) {
	for _, b := range barriers[LB:] {
		t.Run(b.name, func(t *testing.T) { requireClean(t, "plain/"+b.name+"/seed=[123]", 3) })
	}
}

// TestCrashConsistencyBulkBSPWithLogging verifies that after rollback the
// recovered state is epoch-atomic.
func TestCrashConsistencyBulkBSPWithLogging(t *testing.T) { requireClean(t, "bulk20/seed=*", 3) }

// TestCrashConsistencyEP: unbuffered epoch persistency keeps at most one
// epoch in flight, so the same ordering invariant must hold trivially.
func TestCrashConsistencyEP(t *testing.T) { requireClean(t, "ep60/seed=11", 1) }

// TestCompletedRunIsFullyDurable: after a clean run + drain, every epoch
// must be persisted and the image must equal the latest versions.
func TestCompletedRunIsFullyDurable(t *testing.T) { requireClean(t, "plain150/*/seed=5", 2) }

// TestCrashSweepFineGrained crashes one workload at every image under
// LB++ to catch window-edge protocol bugs.
func TestCrashSweepFineGrained(t *testing.T) { requireClean(t, "plain100/LB++/seed=99", 1) }

// TestHotLineContention drives every core at the same few lines to stress
// recall/writeback collisions, crashed at every image.
func TestHotLineContention(t *testing.T) { requireClean(t, "hot-line", 1) }

// TestTinyCachePressure shrinks the caches so natural evictions and
// eviction conflicts dominate, stressing the drain-ordering rules.
func TestTinyCachePressure(t *testing.T) {
	requireClean(t, "tiny-cache", 1)
	if cleanRun(t, "tiny-cache").LLC.Evictions == 0 {
		t.Fatal("no LLC evictions despite tiny cache")
	}
}

// TestInvalidatingFlushMode runs the clflush-style configuration and
// checks both correctness and the expected performance loss.
func TestInvalidatingFlushMode(t *testing.T) {
	requireClean(t, "clflush", 1)
	r1, r2 := run(t, barrier("LB+PF"), randomProgram(8, 4, 200, true)), cleanRun(t, "clflush")
	if r2.ExecCycles <= r1.ExecCycles {
		t.Errorf("invalidating flush (%d cyc) not slower than non-invalidating (%d cyc)",
			r2.ExecCycles, r1.ExecCycles)
	}
}

// TestInvariantsUnderRandomInterleavings property-tests DESIGN §5
// invariants 1 and 2 across all 8 barrier engines, five random programs
// each crashed at five instants: epoch order (the order column), a
// declared-persisted set that is downward-closed and durable (closed),
// and no image version newer than the newest written (future). Engines
// without epoch machinery (NP, SP, WT) have empty histories, for which
// the first two hold vacuously.
func TestInvariantsUnderRandomInterleavings(t *testing.T) {
	for _, b := range barriers {
		t.Run(b.name, func(t *testing.T) { requireClean(t, "random/"+b.name+"/seed=*", 5) })
	}
}

// TestInvariantsBulkBSPPrefixAndAtomicity extends invariant 2 to the
// bulk-mode BSP engine with hardware undo logging: after rollback the
// recovered image must reflect whole epochs only.
func TestInvariantsBulkBSPPrefixAndAtomicity(t *testing.T) { requireClean(t, "bulk16/seed=*", 4) }

// TestOnlineEdgeLandsAfterTheWait: under LB, a request that conflicts
// with another core's epoch waits for it to persist, and the ordering it
// enforces is recorded as an online edge. While it waits, a third core can
// split the requester's epoch, which then persists on its own; the edge
// must be on the epoch that performs the access, not on that one. With it
// on the split epoch, a crash between the two persists left an image where
// E1.9 is durable and its edge's source E2.14 is not (seed 3, private
// stores as whole lines, LB + PF, crash at cycle 5000; that row is
// crashed at every image). The rows crash LB and LB + PF runs of twelve
// programs, plain and whole-line.
func TestOnlineEdgeLandsAfterTheWait(t *testing.T) {
	for _, rows := range []string{"plain/LB/*", "plain/LB+PF/*", "whole/LB/*", "whole/LB+PF/*"} {
		requireClean(t, rows, 12)
	}
}

// TestCrashConsistencyWithEarlyWriteBack: programs whose private stores
// write whole lines, on LB++, the one machine that writes back early, so
// early write-backs meet conflicts, splits and flushes.
func TestCrashConsistencyWithEarlyWriteBack(t *testing.T) {
	requireClean(t, "whole/LB++/seed=*", 3)
	early := uint64(0)
	for seed := 1; seed <= 3; seed++ {
		early += cleanRun(t, fmt.Sprintf("whole/LB++/seed=%d", seed)).EarlyWritebacks
	}
	if early == 0 {
		t.Fatal("no store was written back early: the rows exercise nothing")
	}
}

func ExampleConfig_BarrierName() {
	cfg := DefaultConfig()
	cfg.IDT, cfg.PF = true, true
	fmt.Println(cfg.BarrierName())
	// Output: LB++
}
