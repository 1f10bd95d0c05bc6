package machine

import (
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/recovery"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// --- Strict persistency (SP) semantics -------------------------------------

func TestSPPersistOrderIsProgramOrder(t *testing.T) {
	// Rule S1: versions must reach NVRAM in program order. The persist
	// log records ack order; versions are monotone per issue order.
	var b trace.Builder
	for i := 0; i < 10; i++ {
		b.Store(mem.Addr(i * 64))
	}
	cfg := testConfig(SP)
	cfg.RecordOpTimes = true
	r := run(t, cfg, singleTrace(&b))
	if len(r.PersistLog) != 10 {
		t.Fatalf("persist events = %d, want 10", len(r.PersistLog))
	}
	for i := 1; i < len(r.PersistLog); i++ {
		if r.PersistLog[i].Version < r.PersistLog[i-1].Version {
			t.Fatalf("SP persists out of program order: %+v", r.PersistLog)
		}
	}
}

func TestSPBlocksVisibilityOnPersist(t *testing.T) {
	// Rule S2: the next op cannot issue before the previous store
	// persisted, so 3 stores cost at least 3 NVRAM write latencies.
	var b trace.Builder
	b.Store(0).Store(64).Store(128)
	r := run(t, testConfig(SP), singleTrace(&b))
	min := sim.Cycle(3 * 360)
	if r.ExecCycles < min {
		t.Fatalf("SP exec %d cycles < 3 write latencies %d", r.ExecCycles, min)
	}
}

// --- Naive write-through BSP (WT) semantics ---------------------------------

func TestWTSerializesPersistsPerCore(t *testing.T) {
	// Rule S1 under WT: a core's persists issue one at a time, so N
	// stores need ~N*WriteLatency to all become durable — but visibility
	// is decoupled, so execution finishes long before the drain.
	var b trace.Builder
	for i := 0; i < 8; i++ {
		b.Store(mem.Addr(i * 64))
	}
	r := run(t, testConfig(WT), singleTrace(&b))
	if r.PersistedLines != 8 {
		t.Fatalf("persisted lines = %d, want 8", r.PersistedLines)
	}
	minDrain := sim.Cycle(8 * 360)
	if r.DrainCycles < minDrain {
		t.Fatalf("WT drain at %d < serialized bound %d", r.DrainCycles, minDrain)
	}
	if r.ExecCycles >= minDrain {
		t.Fatalf("WT exec %d not decoupled from the persist drain %d", r.ExecCycles, minDrain)
	}
}

func TestWTQueueBackpressure(t *testing.T) {
	// With a 2-entry persist queue, a burst of stores must stall the
	// core on the queue.
	cfg := testConfig(WT)
	cfg.WTQueue = 2
	var b trace.Builder
	for i := 0; i < 20; i++ {
		b.Store(mem.Addr(i * 64))
	}
	r := run(t, cfg, singleTrace(&b))
	if r.StallTotal(StallPersistQueue) == 0 {
		t.Fatal("no persist-queue stalls with a 2-entry queue")
	}
}

// --- EP vs LB barrier semantics ---------------------------------------------

// epEpochsProgram is one core's six epochs of two stores each.
func epEpochsProgram() *trace.Program {
	var b trace.Builder
	for i := 0; i < 6; i++ {
		b.Store(mem.Addr(i * 128)).Store(mem.Addr(i*128 + 64)).Barrier()
	}
	return singleTrace(&b)
}

// TestEPEpochAtomicOrderAtEveryCrash: EP holds at most one unpersisted
// epoch; any crash must show a prefix of whole epochs (ordering implies
// atomicity here because the barrier blocked until each epoch persisted).
// The sweep's ep-epochs row crashes epEpochsProgram at every image.
func TestEPEpochAtomicOrderAtEveryCrash(t *testing.T) { requireClean(t, "ep-epochs", 1) }

func TestEPWaitsFullPersistLatencyPerBarrier(t *testing.T) {
	var b trace.Builder
	b.Store(0).Barrier().Store(64).Barrier()
	r := run(t, testConfig(EP), singleTrace(&b))
	// Two barriers, each waiting at least an NVRAM write round trip.
	if r.ExecCycles < 2*360 {
		t.Fatalf("EP exec %d < two write latencies", r.ExecCycles)
	}
}

// --- Write buffer semantics --------------------------------------------------

func TestWriteBufferOverlapsStoreMisses(t *testing.T) {
	// Independent store misses should overlap through the write buffer:
	// wall time must be far below the serialized sum.
	mk := func() *trace.Program {
		var b trace.Builder
		for i := 0; i < 16; i++ {
			b.Store(mem.Addr(0x9000_0000 + i*64))
		}
		return singleTrace(&b)
	}
	posted := testConfig(LB)
	r1 := run(t, posted, mk())
	blocking := testConfig(LB)
	blocking.WriteBuffer = 0
	r2 := run(t, blocking, mk())
	if r1.ExecCycles*2 > r2.ExecCycles {
		t.Fatalf("posted stores (%d cyc) not at least 2x faster than blocking (%d cyc)",
			r1.ExecCycles, r2.ExecCycles)
	}
}

func TestBarrierDrainsWriteBuffer(t *testing.T) {
	// A barrier must not close the epoch while its stores are in flight:
	// every store before the barrier lands in epoch 0, after it in 1.
	var b trace.Builder
	for i := 0; i < 8; i++ {
		b.Store(mem.Addr(0x9100_0000 + i*64))
	}
	b.Barrier()
	b.Store(0x9200_0000)
	cfg := testConfig(LB)
	r := run(t, cfg, singleTrace(&b))
	var epoch0Writes, epoch1Writes int
	for _, hist := range r.Histories {
		for _, s := range hist {
			if s.ID.Core != 0 {
				continue
			}
			switch s.ID.Num {
			case 0:
				epoch0Writes = len(s.Writes)
			case 1:
				epoch1Writes = len(s.Writes)
			}
		}
	}
	if epoch0Writes != 8 || epoch1Writes != 1 {
		t.Fatalf("epoch writes = %d/%d, want 8/1 (barrier did not drain)", epoch0Writes, epoch1Writes)
	}
}

// --- Bulk-mode BSP details ----------------------------------------------------

func TestBulkCheckpointRotatesSlots(t *testing.T) {
	cfg := testConfig(LB)
	cfg.BulkEpochStores = 3
	cfg.CheckpointLines = 2
	var b trace.Builder
	for i := 0; i < 30; i++ {
		b.Store(mem.Addr(i * 64))
	}
	r := run(t, cfg, singleTrace(&b))
	// 30 data stores / 3 per epoch = 10 hardware epochs, each writing 2
	// checkpoint lines into one of 8 rotating slots (16 distinct lines).
	ckptLines := map[mem.Line]bool{}
	for l := range r.Latest {
		if l.Addr() >= 1<<40 {
			ckptLines[l] = true
		}
	}
	if len(ckptLines) != 16 {
		t.Fatalf("distinct checkpoint lines = %d, want 16 (8 slots x 2 lines)", len(ckptLines))
	}
}

func TestBulkLoggingOncePerLinePerEpoch(t *testing.T) {
	cfg := testConfig(LB)
	cfg.BulkEpochStores = 100
	cfg.CheckpointLines = 0
	cfg.Logging = true
	var b trace.Builder
	// Ten stores, all to one line, within one hardware epoch: one log
	// entry (the paper's first-modification rule, §5.2.1).
	for i := 0; i < 10; i++ {
		b.Store(0)
	}
	r := run(t, cfg, singleTrace(&b))
	if r.LogWrites != 1 {
		t.Fatalf("log writes = %d, want 1 (first modification only)", r.LogWrites)
	}
}

func TestBulkEpochStoreCountsCheckpointWrites(t *testing.T) {
	// Hardware epochs close on the data-store quota; the checkpoint
	// stores themselves must not recursively trigger barriers.
	cfg := testConfig(LB)
	cfg.BulkEpochStores = 4
	cfg.CheckpointLines = 4
	var b trace.Builder
	for i := 0; i < 12; i++ {
		b.Store(mem.Addr(i * 64))
	}
	r := run(t, cfg, singleTrace(&b))
	if got := r.Epochs.ByAdvance[epoch.HardwareAdvance]; got != 3 {
		t.Fatalf("hardware advances = %d, want 3", got)
	}
}

// --- Global-arbiter ablation ---------------------------------------------------

// TestGlobalArbiterSerializesFlushes: one flush in flight machine-wide
// is slower than one per core, and correctness holds under the
// serialization too (the sweep's global-arbiter row).
func TestGlobalArbiterSerializesFlushes(t *testing.T) {
	requireClean(t, "global-arbiter", 1)
	r1 := run(t, barrier("LB+PF"), randomProgram(17, 4, 150, true))
	r2 := cleanRun(t, "global-arbiter")
	if !r1.Finished {
		t.Fatal("per-core run did not finish")
	}
	if r2.ExecCycles < r1.ExecCycles {
		t.Fatalf("global arbiter (%d cyc) faster than per-core (%d cyc)?",
			r2.ExecCycles, r1.ExecCycles)
	}
}

// --- IDT register exhaustion ------------------------------------------------

func TestIDTRegisterExhaustionFallsBack(t *testing.T) {
	// One register per epoch and conflicts with many sources: the
	// fallback counter must fire and the run stays correct.
	cfg := testConfig(LB)
	cfg.IDT = true
	cfg.Epoch.DepRegs = 1
	var traces [][]trace.Op
	// Three source threads each write a distinct line and keep their
	// epochs alive; the reader thread touches all three lines in one
	// epoch, needing three registers.
	for s := 0; s < 3; s++ {
		var b trace.Builder
		b.Store(mem.Addr(s * 64)).Barrier().Compute(6000)
		traces = append(traces, b.Ops())
	}
	var rd trace.Builder
	rd.Compute(400).Load(0).Load(64).Load(128).Store(0x9300_0000).Barrier()
	traces = append(traces, rd.Ops())
	r := run(t, cfg, &trace.Program{Traces: traces})
	if r.Conflicts.IDTFallbacks == 0 {
		t.Fatal("no register-full fallbacks with DepRegs=1 and 3 sources")
	}
	if !r.Finished {
		t.Fatal("did not finish")
	}
}

// --- Epoch-split interaction with posted stores ------------------------------

// splitPostedProgram is a reader that conflicts with a writer's ongoing
// epoch while the writer has stores in flight.
func splitPostedProgram() *trace.Program {
	var w, rd trace.Builder
	// The writer dirties its hot line early, then keeps the epoch
	// ongoing with compute and more posted stores.
	w.Store(0x9500_0000)
	for i := 0; i < 20; i++ {
		w.Compute(400)
		w.Store(mem.Addr(0x9400_0000 + i*64))
	}
	w.Barrier()
	// The reader probes mid-epoch: after the hot store committed,
	// long before the writer's barrier.
	rd.Compute(2000).Load(0x9500_0000).Store(0x9600_0000).Barrier()
	return &trace.Program{Traces: [][]trace.Op{w.Ops(), rd.Ops()}}
}

// TestSplitDuringPostedStores: the reader's conflict splits the writer's
// ongoing epoch, and the split keeps ordering intact at every crash
// point (the sweep's split-posted row).
func TestSplitDuringPostedStores(t *testing.T) {
	requireClean(t, "split-posted", 1)
	if cleanRun(t, "split-posted").Epochs.Splits == 0 {
		t.Fatal("reader conflict with ongoing epoch did not split")
	}
}

// --- Monolithic-LLC configuration (§4.1's simpler protocol) -------------------

// TestMonolithicLLCWorks: one LLC bank (the sweep's monolithic-llc row)
// finishes and holds the recovery invariants at every instant crashed.
func TestMonolithicLLCWorks(t *testing.T) { requireClean(t, "monolithic-llc", 1) }

// --- Recovery integration: random graph property ------------------------------

func TestRecoveryRandomizedGraphs(t *testing.T) {
	// Randomized crash images over synthetic epoch graphs: any image
	// formed by persisting a downward-closed epoch set plus a partial
	// frontier epoch must pass CheckOrdering; adding a line from a
	// non-closed epoch must fail it.
	r := trace.NewRand(77)
	for iter := 0; iter < 60; iter++ {
		cores := 2 + r.Intn(3)
		perCore := 2 + r.Intn(4)
		var hist [][]*epoch.Summary
		ver := mem.Version(1)
		type write struct {
			line mem.Line
			v    mem.Version
		}
		all := map[epoch.ID][]write{}
		var order []epoch.ID
		for c := 0; c < cores; c++ {
			var col []*epoch.Summary
			for n := 0; n < perCore; n++ {
				id := epoch.ID{Core: c, Num: uint64(n)}
				writes := map[mem.Line]mem.Version{}
				for w := 0; w < 1+r.Intn(3); w++ {
					line := mem.Line(c*100 + n*10 + w)
					writes[line] = ver
					all[id] = append(all[id], write{line, ver})
					ver++
				}
				col = append(col, &epoch.Summary{ID: id, Writes: writes})
				order = append(order, id)
			}
			hist = append(hist, col)
		}
		// Persist a random per-core prefix.
		image := map[mem.Line]mem.Version{}
		closed := map[epoch.ID]bool{}
		for c := 0; c < cores; c++ {
			k := r.Intn(perCore + 1)
			for n := 0; n < k; n++ {
				id := epoch.ID{Core: c, Num: uint64(n)}
				closed[id] = true
				hist[c][n].PersistedFlag = true
				for _, w := range all[id] {
					image[w.line] = w.v
				}
			}
		}
		if err := recovery.CheckAll(hist, image, nil, false); err != nil {
			t.Fatalf("iter %d: valid prefix image rejected: %v", iter, err)
		}
		// Corrupt: persist one line of an epoch whose program-order
		// predecessor is NOT persisted.
		for c := 0; c < cores; c++ {
			var k int
			for k = 0; k < perCore; k++ {
				if !closed[epoch.ID{Core: c, Num: uint64(k)}] {
					break
				}
			}
			if k+1 < perCore {
				bad := epoch.ID{Core: c, Num: uint64(k + 1)}
				w := all[bad][0]
				image[w.line] = w.v
				if err := recovery.CheckAll(hist, image, nil, false); err == nil {
					t.Fatalf("iter %d: gap image accepted (epoch %v persisted past a hole)", iter, bad)
				}
				break
			}
		}
	}
}
