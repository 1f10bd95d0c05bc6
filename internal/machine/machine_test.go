package machine

import (
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/trace"
)

// testConfig returns a small 4-core machine for fast protocol tests.
func testConfig(model Model) Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.LLCBanks = 4
	cfg.LLCSets = 64
	cfg.Model = model
	cfg.RecordHistory = true
	return cfg
}

func run(t *testing.T, cfg Config, p *trace.Program) *Result {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func singleTrace(b *trace.Builder) *trace.Program {
	return &trace.Program{Traces: [][]trace.Op{b.Ops()}}
}

func TestConfigValidate(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 33 },
		func(c *Config) { c.LLCBanks = 0 },
		func(c *Config) { c.L1Sets = 0 },
		func(c *Config) { c.MemControllers = 0 },
		func(c *Config) { c.L1Latency = 0 },
		func(c *Config) { c.Model = WT; c.WTQueue = 0 },
		func(c *Config) { c.BulkEpochStores = -1 },
		func(c *Config) { c.Model = NP; c.BulkEpochStores = 100 },
		func(c *Config) { c.Model = EP; c.Logging = true },
	}
	for i, mut := range cases {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestBarrierName(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		idt, pf bool
		want    string
	}{
		{false, false, "LB"},
		{true, false, "LB+IDT"},
		{false, true, "LB+PF"},
		{true, true, "LB++"},
	}
	for _, c := range cases {
		cfg.IDT, cfg.PF = c.idt, c.pf
		if got := cfg.BarrierName(); got != c.want {
			t.Errorf("BarrierName(idt=%v,pf=%v) = %q, want %q", c.idt, c.pf, got, c.want)
		}
	}
	cfg.Model = NP
	if cfg.BarrierName() != "NP" {
		t.Errorf("NP name = %q", cfg.BarrierName())
	}
}

// TestSetBarrierRoundTrip: SetBarrier is BarrierName's inverse on every
// variant, and refuses a name BarrierName never renders.
func TestSetBarrierRoundTrip(t *testing.T) {
	for _, name := range []string{"NP", "SP", "WT", "EP", "LB", "LB+IDT", "LB+PF", "LB++"} {
		cfg := DefaultConfig()
		cfg.IDT, cfg.PF = true, true
		if err := cfg.SetBarrier(name); err != nil {
			t.Fatalf("SetBarrier(%q): %v", name, err)
		}
		if got := cfg.BarrierName(); got != name {
			t.Errorf("SetBarrier(%q) then BarrierName() = %q", name, got)
		}
	}
	for _, name := range []string{"bogus", "LB++NOLOG", "lb++", ""} {
		cfg := DefaultConfig()
		if err := cfg.SetBarrier(name); err == nil {
			t.Errorf("SetBarrier(%q) accepted", name)
		}
	}
}

func TestRunRequiresProgram(t *testing.T) {
	m, err := New(testConfig(NP))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("empty machine ran")
	}
}

func TestLoadRejectsTooManyTraces(t *testing.T) {
	m, err := New(testConfig(NP))
	if err != nil {
		t.Fatal(err)
	}
	p := &trace.Program{Traces: make([][]trace.Op, 5)}
	if err := m.Load(p); err == nil {
		t.Fatal("5 traces accepted on 4 cores")
	}
}

func TestNPSimpleRun(t *testing.T) {
	var b trace.Builder
	b.Store(0).Load(0).Store(64).Compute(10).TxEnd()
	r := run(t, testConfig(NP), singleTrace(&b))
	if !r.Finished || r.Deadlocked {
		t.Fatalf("run did not finish cleanly: %+v", r)
	}
	if r.Transactions != 1 {
		t.Fatalf("Transactions = %d, want 1", r.Transactions)
	}
	if r.ExecCycles == 0 {
		t.Fatal("zero exec cycles")
	}
	if r.Cores[0].OpsRetired != 5 {
		t.Fatalf("OpsRetired = %d, want 5", r.Cores[0].OpsRetired)
	}
}

func TestL1HitIsFast(t *testing.T) {
	var b trace.Builder
	b.Load(0).Load(0).Load(0)
	cfg := testConfig(NP)
	cfg.RecordOpTimes = true
	r := run(t, cfg, singleTrace(&b))
	times := r.Cores[0].OpTimes
	if len(times) != 3 {
		t.Fatalf("op times = %v", times)
	}
	// First load misses everywhere (LLC + NVRAM); subsequent loads hit L1.
	if times[0] < 200 {
		t.Errorf("cold load completed at %d, expected NVRAM-latency path", times[0])
	}
	if d := times[1] - times[0]; d != cfg.L1Latency {
		t.Errorf("warm load took %d, want L1 latency %d", d, cfg.L1Latency)
	}
}

func TestStoreThenLoadSameCore(t *testing.T) {
	var b trace.Builder
	b.Store(0).Load(0)
	r := run(t, testConfig(LB), singleTrace(&b))
	if !r.Finished {
		t.Fatal("did not finish")
	}
	if r.Conflicts != (ConflictCounts{}) {
		t.Fatalf("unexpected conflicts: %+v", r.Conflicts)
	}
}

func TestLBBarrierDoesNotBlock(t *testing.T) {
	// Under BEP the barrier itself must not wait for persists: execution
	// time should be far below the NVRAM write latency path that EP pays.
	var b1 trace.Builder
	b1.Store(0).Barrier().Store(64).Barrier().Store(128)
	lb := run(t, testConfig(LB), singleTrace(&b1))

	var b2 trace.Builder
	b2.Store(0).Barrier().Store(64).Barrier().Store(128)
	ep := run(t, testConfig(EP), singleTrace(&b2))

	if lb.ExecCycles >= ep.ExecCycles {
		t.Fatalf("LB exec %d not faster than EP exec %d", lb.ExecCycles, ep.ExecCycles)
	}
	if got := ep.StallTotal(StallBarrier); got == 0 {
		t.Fatal("EP recorded no barrier stalls")
	}
	if got := lb.StallTotal(StallBarrier); got != 0 {
		t.Fatalf("LB recorded %d barrier stall cycles", got)
	}
}

func TestDrainPersistsEverything(t *testing.T) {
	var b trace.Builder
	b.Store(0).Store(64).Barrier().Store(128)
	r := run(t, testConfig(LB), singleTrace(&b))
	if !r.Finished {
		t.Fatal("did not finish")
	}
	for _, line := range []mem.Line{0, 1, 2} {
		v, ok := r.Image[line]
		if !ok {
			t.Fatalf("line %d not durable after drain", line)
		}
		if v != r.Latest[line] {
			t.Fatalf("line %d durable version %d != latest %d", line, v, r.Latest[line])
		}
	}
	if r.Epochs.Persisted < 2 {
		t.Fatalf("Persisted epochs = %d, want >= 2", r.Epochs.Persisted)
	}
}

func TestIntraThreadConflictForcesFlush(t *testing.T) {
	// Store A in epoch 0, barrier, barrier, store A again in epoch 2:
	// the paper's Figure 3(b) — the second store must wait for epoch 0.
	var b trace.Builder
	b.Store(0).Barrier().Store(64).Barrier().Store(0)
	r := run(t, testConfig(LB), singleTrace(&b))
	if r.Conflicts.Intra != 1 {
		t.Fatalf("intra conflicts = %d, want 1", r.Conflicts.Intra)
	}
	if r.StallTotal(StallIntra) == 0 {
		t.Fatal("no intra-conflict stall recorded")
	}
	if r.Epochs.ByCause[epoch.CauseIntra] == 0 {
		t.Fatal("no epoch flushed for an intra cause")
	}
}

func TestIntraReadDoesNotConflict(t *testing.T) {
	// Figure 3(b): Ld A within the same thread is NOT a conflict.
	var b trace.Builder
	b.Store(0).Barrier().Load(0).Store(64)
	r := run(t, testConfig(LB), singleTrace(&b))
	if r.Conflicts.Intra != 0 {
		t.Fatalf("intra conflicts = %d, want 0 (reads don't conflict)", r.Conflicts.Intra)
	}
}

func TestSameEpochRewriteIsNotAConflict(t *testing.T) {
	var b trace.Builder
	b.Store(0).Store(0).Store(0)
	r := run(t, testConfig(LB), singleTrace(&b))
	if r.Conflicts.Intra != 0 {
		t.Fatalf("intra conflicts = %d, want 0 (same-epoch coalescing)", r.Conflicts.Intra)
	}
}

func TestInterThreadConflictLB(t *testing.T) {
	// T0 stores Y and completes its epoch; T1 then loads Y: Figure 3(a).
	// Under plain LB the load must wait for T0's epoch to flush online.
	var t0, t1 trace.Builder
	t0.Store(0).Barrier().Compute(4000)
	t1.Compute(500).Load(0).Store(64)
	p := &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}
	r := run(t, testConfig(LB), p)
	if r.Conflicts.Inter != 1 {
		t.Fatalf("inter conflicts = %d, want 1", r.Conflicts.Inter)
	}
	if r.StallTotal(StallInter) == 0 {
		t.Fatal("LB inter conflict did not stall the requester")
	}
	if r.Epochs.ByCause[epoch.CauseInter] == 0 {
		t.Fatal("no epoch flushed for an inter cause")
	}
}

func TestInterThreadConflictIDTAvoidsStall(t *testing.T) {
	var t0, t1 trace.Builder
	t0.Store(0).Barrier().Compute(4000)
	t1.Compute(500).Load(0).Store(64)
	p := &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}
	cfg := testConfig(LB)
	cfg.IDT = true
	r := run(t, cfg, p)
	if r.Conflicts.Inter != 1 {
		t.Fatalf("inter conflicts = %d, want 1", r.Conflicts.Inter)
	}
	if r.StallTotal(StallInter) != 0 {
		t.Fatalf("IDT stalled %d cycles on an inter conflict, want 0", r.StallTotal(StallInter))
	}
	if r.Epochs.Deps != 1 {
		t.Fatalf("IDT deps recorded = %d, want 1", r.Epochs.Deps)
	}
	if !r.Finished {
		t.Fatal("did not finish")
	}
}

// TestIDTOrderingPreserved verifies the key IDT safety property: the
// dependent epoch's lines must not persist before the source epoch's.
func TestIDTOrderingPreserved(t *testing.T) {
	var t0, t1 trace.Builder
	t0.Store(0).Barrier().Compute(8000)
	t1.Compute(200).Load(0).Store(64).Barrier().Compute(8000)
	p := &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}
	cfg := testConfig(LB)
	cfg.IDT = true
	cfg.PF = true
	cfg.RecordOpTimes = true
	r := run(t, cfg, p)
	var srcPersist, depPersist int64 = -1, -1
	for _, ev := range r.PersistLog {
		if ev.Line == 0 && ev.Epoch.Core == 0 {
			srcPersist = int64(ev.Cycle)
		}
		if ev.Line == 1 && ev.Epoch.Core == 1 {
			depPersist = int64(ev.Cycle)
		}
	}
	if srcPersist < 0 || depPersist < 0 {
		t.Fatalf("persist events missing: src=%d dep=%d (%d events)", srcPersist, depPersist, len(r.PersistLog))
	}
	if depPersist < srcPersist {
		t.Fatalf("dependent epoch persisted at %d before source at %d", depPersist, srcPersist)
	}
}

func TestEpochSplitOnOngoingSourceEpoch(t *testing.T) {
	// T1 conflicts with T0's *ongoing* epoch: with IDT+split, T0's epoch
	// must be split (SplitAdvance) rather than stalled on.
	var t0, t1 trace.Builder
	t0.Store(0).Compute(2000).Store(64) // no barrier: epoch stays ongoing
	t1.Compute(300).Load(0)
	p := &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}
	cfg := testConfig(LB)
	cfg.IDT = true
	r := run(t, cfg, p)
	if r.Epochs.Splits != 1 {
		t.Fatalf("splits = %d, want 1", r.Epochs.Splits)
	}
	if r.StallTotal(StallInter) != 0 {
		t.Fatal("split+IDT still stalled the requester")
	}
}

func TestDeadlockWithoutSplit(t *testing.T) {
	// Figure 5(a): circular dependence between two ongoing epochs. With
	// splitting disabled the system must deadlock (and be detected).
	var t0, t1 trace.Builder
	t0.Store(0).Compute(100).Load(64).Store(128)
	t1.Store(64).Compute(100).Load(0).Store(192)
	p := &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}
	cfg := testConfig(LB)
	cfg.IDT = true
	cfg.EnableSplit = false
	r := run(t, cfg, p)
	if !r.Deadlocked {
		t.Fatal("circular epoch dependence did not deadlock without splitting")
	}
}

func TestSplitAvoidsDeadlock(t *testing.T) {
	// Same pattern as above, with the §3.3 avoidance enabled.
	var t0, t1 trace.Builder
	t0.Store(0).Compute(100).Load(64).Store(128)
	t1.Store(64).Compute(100).Load(0).Store(192)
	p := &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}
	cfg := testConfig(LB)
	cfg.IDT = true
	r := run(t, cfg, p)
	if r.Deadlocked || !r.Finished {
		t.Fatalf("deadlock not avoided: deadlocked=%v finished=%v", r.Deadlocked, r.Finished)
	}
	if r.Epochs.Splits == 0 {
		t.Fatal("no epoch splits recorded")
	}
}

func TestInFlightWindowPressure(t *testing.T) {
	// More barriers than the window: the core must stall on pressure.
	cfg := testConfig(LB)
	cfg.Epoch.MaxInFlight = 2
	var b trace.Builder
	for i := 0; i < 6; i++ {
		b.Store(mem.Addr(i * 64)).Barrier()
	}
	r := run(t, cfg, singleTrace(&b))
	if !r.Finished {
		t.Fatal("did not finish")
	}
	if r.StallTotal(StallPressure) == 0 {
		t.Fatal("no pressure stalls with a 2-epoch window")
	}
	if r.Epochs.ByCause[epoch.CausePressure] == 0 {
		t.Fatal("no epoch flushed for pressure")
	}
}

func TestPFFlushesProactively(t *testing.T) {
	cfg := testConfig(LB)
	cfg.PF = true
	var b trace.Builder
	b.Store(0).Barrier().Compute(6000).Store(0)
	r := run(t, cfg, singleTrace(&b))
	// With PF, epoch 0 flushed during the compute gap; the second store
	// to line 0 must find it persisted -> no intra conflict.
	if r.Conflicts.Intra != 0 {
		t.Fatalf("intra conflicts = %d, want 0 with PF", r.Conflicts.Intra)
	}
	if r.Epochs.ByCause[epoch.CauseProactive] == 0 {
		t.Fatal("no proactive flushes recorded")
	}
}

func TestWithoutPFSameBecomesConflict(t *testing.T) {
	cfg := testConfig(LB)
	var b trace.Builder
	b.Store(0).Barrier().Compute(6000).Store(0)
	r := run(t, cfg, singleTrace(&b))
	if r.Conflicts.Intra != 1 {
		t.Fatalf("intra conflicts = %d, want 1 without PF", r.Conflicts.Intra)
	}
}

func TestSPPersistsEveryStore(t *testing.T) {
	var b trace.Builder
	b.Store(0).Store(0).Store(64)
	r := run(t, testConfig(SP), singleTrace(&b))
	if !r.Finished {
		t.Fatal("did not finish")
	}
	if r.PersistedLines != 3 {
		t.Fatalf("persisted lines = %d, want 3 (no coalescing under SP)", r.PersistedLines)
	}
	if r.StallTotal(StallPersistQueue) == 0 {
		t.Fatal("SP stores did not stall on persists")
	}
	if v := r.Image[0]; v != r.Latest[0] {
		t.Fatalf("line 0 durable version %d != latest %d", v, r.Latest[0])
	}
}

func TestWTOverlapsPersists(t *testing.T) {
	mk := func() *trace.Program {
		var b trace.Builder
		for i := 0; i < 40; i++ {
			b.Store(mem.Addr(i % 4 * 64)).Compute(5)
		}
		return singleTrace(&b)
	}
	sp := run(t, testConfig(SP), mk())
	wt := run(t, testConfig(WT), mk())
	np := run(t, testConfig(NP), mk())
	if wt.ExecCycles >= sp.ExecCycles {
		t.Fatalf("WT exec %d not faster than SP %d", wt.ExecCycles, sp.ExecCycles)
	}
	if wt.ExecCycles <= np.ExecCycles {
		t.Fatalf("WT exec %d not slower than NP %d", wt.ExecCycles, np.ExecCycles)
	}
	if wt.PersistedLines != 40 {
		t.Fatalf("WT persisted %d lines, want 40 (no coalescing)", wt.PersistedLines)
	}
}

func TestLBCoalescesStores(t *testing.T) {
	var b trace.Builder
	for i := 0; i < 10; i++ {
		b.Store(0) // same line, same epoch
	}
	b.Barrier()
	r := run(t, testConfig(LB), singleTrace(&b))
	if r.PersistedLines != 1 {
		t.Fatalf("persisted lines = %d, want 1 (coalesced)", r.PersistedLines)
	}
}

func TestBulkModeInsertsHardwareBarriers(t *testing.T) {
	cfg := testConfig(LB)
	cfg.BulkEpochStores = 5
	cfg.CheckpointLines = 0
	var b trace.Builder
	for i := 0; i < 20; i++ {
		b.Store(mem.Addr(i * 64))
	}
	r := run(t, cfg, singleTrace(&b))
	if got := r.Epochs.ByAdvance[epoch.HardwareAdvance]; got != 4 {
		t.Fatalf("hardware advances = %d, want 4 (20 stores / 5)", got)
	}
}

func TestBulkModeCheckpointWrites(t *testing.T) {
	cfg := testConfig(LB)
	cfg.BulkEpochStores = 10
	cfg.CheckpointLines = 4
	var b trace.Builder
	for i := 0; i < 10; i++ {
		b.Store(mem.Addr(i * 64))
	}
	r := run(t, cfg, singleTrace(&b))
	// 10 data lines + 4 checkpoint lines, all persisted by drain.
	if r.PersistedLines != 14 {
		t.Fatalf("persisted lines = %d, want 14 (10 data + 4 checkpoint)", r.PersistedLines)
	}
}

func TestLoggingWritesUndoEntries(t *testing.T) {
	cfg := testConfig(LB)
	cfg.Logging = true
	var b trace.Builder
	b.Store(0).Store(0).Store(64).Barrier().Store(0)
	r := run(t, cfg, singleTrace(&b))
	// First touches: line 0 in epoch 0, line 1 in epoch 0, line 0 in
	// epoch 1 -> 3 log writes (the second store to line 0 in epoch 0
	// coalesces).
	if r.LogWrites != 3 {
		t.Fatalf("log writes = %d, want 3", r.LogWrites)
	}
	if len(r.UndoLog) != 3 {
		t.Fatalf("durable undo entries = %d, want 3", len(r.UndoLog))
	}
	// The epoch-1 entry must record epoch 0's (persisted) version of
	// line 0 as the old value.
	var found bool
	for _, e := range r.UndoLog {
		if e.Line == 0 && e.EpochNum == 1 {
			found = true
			if e.Old == mem.NoVersion {
				t.Fatal("epoch-1 undo entry lost the old version")
			}
		}
	}
	if !found {
		t.Fatal("no undo entry for line 0 in epoch 1")
	}
}

func TestSharersInvalidatedOnRemoteStore(t *testing.T) {
	// T0 and T1 read the line; T2 stores it. Later reads by T0 must
	// miss (invalidation), not read a stale L1 copy.
	var t0, t1, t2 trace.Builder
	t0.Load(0).Compute(2000).Load(0)
	t1.Load(0)
	t2.Compute(500).Store(0)
	p := &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops(), t2.Ops()}}
	cfg := testConfig(LB)
	cfg.RecordOpTimes = true
	r := run(t, cfg, p)
	times := r.Cores[0].OpTimes
	reloadLat := times[2] - times[1] - 2000
	if reloadLat <= cfg.L1Latency {
		t.Fatalf("reload after remote store took %d cycles — stale L1 hit?", reloadLat)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() *trace.Program {
		r := trace.NewRand(7)
		var tr [][]trace.Op
		for c := 0; c < 4; c++ {
			var b trace.Builder
			for i := 0; i < 200; i++ {
				a := mem.Addr(r.Intn(64) * 64)
				switch r.Intn(4) {
				case 0:
					b.Load(a)
				case 1, 2:
					b.Store(a)
				case 3:
					b.Barrier()
				}
			}
			tr = append(tr, b.Ops())
		}
		return &trace.Program{Traces: tr}
	}
	cfg := testConfig(LB)
	cfg.IDT = true
	cfg.PF = true
	r1 := run(t, cfg, mk())
	r2 := run(t, cfg, mk())
	if r1.ExecCycles != r2.ExecCycles || r1.Transactions != r2.Transactions ||
		r1.Conflicts != r2.Conflicts || r1.PersistedLines != r2.PersistedLines {
		t.Fatalf("non-deterministic: %+v vs %+v", r1.Conflicts, r2.Conflicts)
	}
}

func TestCrashMidRunExposesPartialImage(t *testing.T) {
	var b trace.Builder
	b.Store(0).Barrier().Compute(100000).Store(64).Barrier()
	cfg := testConfig(LB)
	cfg.PF = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(singleTrace(&b)); err != nil {
		t.Fatal(err)
	}
	r, err := m.RunUntil(50000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Finished {
		t.Fatal("run finished before the crash point")
	}
	// Epoch 0 (line 0) persisted proactively during the compute gap;
	// line 1 was never written before the crash.
	if _, ok := r.Image[0]; !ok {
		t.Fatal("line 0 not durable before crash despite PF")
	}
	if _, ok := r.Image[1]; ok {
		t.Fatal("line 1 durable before it was stored")
	}
}
