package epoch

import (
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

func TestIDBasics(t *testing.T) {
	if None.Valid() {
		t.Error("None reported valid")
	}
	a := ID{Core: 1, Num: 3}
	b := ID{Core: 1, Num: 5}
	c := ID{Core: 2, Num: 4}
	if !a.Valid() || !a.Before(b) || b.Before(a) {
		t.Error("program-order comparison wrong")
	}
	if a.Before(c) || c.Before(a) {
		t.Error("cross-core IDs must not be program-ordered")
	}
	if a.String() != "E1.3" {
		t.Errorf("String = %q", a.String())
	}
	if None.String() != "epoch(none)" {
		t.Errorf("None.String = %q", None.String())
	}
}

func TestStateAndCauseStrings(t *testing.T) {
	for s, want := range map[State]string{Open: "open", Completed: "completed", Flushing: "flushing", Persisted: "persisted"} {
		if s.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(s), s.String(), want)
		}
	}
	if !CauseIntra.Conflicting() || !CauseInter.Conflicting() || !CauseEviction.Conflicting() {
		t.Error("conflict causes not conflicting")
	}
	if CauseProactive.Conflicting() || CauseNatural.Conflicting() || CauseDrain.Conflicting() || CausePressure.Conflicting() {
		t.Error("non-conflict causes reported conflicting")
	}
}

func newTable(t *testing.T, cfg Config) *Table {
	t.Helper()
	tbl, err := NewTable(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(0, Config{MaxInFlight: 1, DepRegs: 4}); err == nil {
		t.Error("MaxInFlight=1 accepted")
	}
	if _, err := NewTable(0, Config{MaxInFlight: 8, DepRegs: -1}); err == nil {
		t.Error("negative DepRegs accepted")
	}
}

func TestTableAdvanceNumbersEpochs(t *testing.T) {
	tbl := newTable(t, DefaultConfig())
	if cur := tbl.Current(); cur.ID.Num != 0 || cur.State != Open {
		t.Fatalf("initial epoch = %+v", cur)
	}
	next := tbl.Advance(10, BarrierAdvance)
	if next.ID.Num != 1 {
		t.Fatalf("next epoch num = %d, want 1", next.ID.Num)
	}
	old := tbl.Lookup(0)
	if old == nil || old.State != Completed || old.CompletedAt != 10 {
		t.Fatalf("old epoch = %+v", old)
	}
	if tbl.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", tbl.InFlight())
	}
}

func TestTableInFlightLimit(t *testing.T) {
	tbl := newTable(t, Config{MaxInFlight: 3, DepRegs: 4})
	tbl.Advance(0, BarrierAdvance)
	tbl.Advance(0, BarrierAdvance)
	if tbl.CanAdvance() {
		t.Fatal("CanAdvance true at limit")
	}
	defer func() {
		if recover() == nil {
			t.Error("advance past limit did not panic")
		}
	}()
	tbl.Advance(0, BarrierAdvance)
}

func TestTableIsPersisted(t *testing.T) {
	tbl := newTable(t, DefaultConfig())
	tbl.Advance(0, BarrierAdvance)
	if tbl.IsPersisted(0) {
		t.Fatal("unflushed epoch reported persisted")
	}
	if tbl.IsPersisted(99) {
		t.Fatal("future epoch reported persisted")
	}
	tbl.markPersisted(tbl.Oldest(), 5)
	if !tbl.IsPersisted(0) {
		t.Fatal("popped epoch not reported persisted")
	}
}

func TestAddDependenceRegisterLimit(t *testing.T) {
	tbl := newTable(t, Config{MaxInFlight: 8, DepRegs: 2})
	cur := tbl.Current()
	sigs := make([]*sim.Signal, 3)
	for i := range sigs {
		sigs[i] = &sim.Signal{}
	}
	if !tbl.AddDependence(cur, ID{Core: 1, Num: 0}, sigs[0]) {
		t.Fatal("first dep rejected")
	}
	// Duplicate source: accepted without consuming a register.
	if !tbl.AddDependence(cur, ID{Core: 1, Num: 0}, sigs[0]) {
		t.Fatal("duplicate dep rejected")
	}
	if !tbl.AddDependence(cur, ID{Core: 2, Num: 0}, sigs[1]) {
		t.Fatal("second dep rejected")
	}
	if tbl.AddDependence(cur, ID{Core: 3, Num: 0}, sigs[2]) {
		t.Fatal("third dep accepted past register limit")
	}
	s := tbl.Stats()
	if s.DepsRecorded != 2 || s.DepRegFull != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// fakeDriver drains all pending lines after a fixed delay.
type fakeDriver struct {
	eng     *sim.Engine
	delay   sim.Cycle
	flushes []ID
}

func (d *fakeDriver) FlushEpoch(rec *Record, done func()) {
	d.flushes = append(d.flushes, rec.ID)
	d.eng.After(d.delay, func() {
		for l := range rec.Pending {
			delete(rec.Pending, l)
		}
		done()
	})
}

func harness(t *testing.T, cfg Config) (*sim.Engine, *Table, *Arbiter, *fakeDriver) {
	t.Helper()
	eng := sim.NewEngine()
	tbl := newTable(t, cfg)
	drv := &fakeDriver{eng: eng, delay: 100}
	arb, err := NewArbiter(eng, tbl, drv)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tbl, arb, drv
}

func TestArbiterValidation(t *testing.T) {
	eng := sim.NewEngine()
	tbl := newTable(t, DefaultConfig())
	if _, err := NewArbiter(nil, tbl, &fakeDriver{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewArbiter(eng, nil, &fakeDriver{}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := NewArbiter(eng, tbl, nil); err == nil {
		t.Error("nil driver accepted")
	}
}

func TestArbiterDemandFlushesInOrder(t *testing.T) {
	eng, tbl, arb, drv := harness(t, DefaultConfig())
	// Epoch 0 writes a line, completes; epoch 1 writes a line, completes.
	tbl.Current().AddPending(10)
	tbl.Advance(0, BarrierAdvance)
	tbl.Current().AddPending(20)
	tbl.Advance(0, BarrierAdvance)
	arb.DemandThrough(1, CauseIntra)
	eng.Run()
	if len(drv.flushes) != 2 || drv.flushes[0].Num != 0 || drv.flushes[1].Num != 1 {
		t.Fatalf("flush order = %v", drv.flushes)
	}
	if !tbl.IsPersisted(0) || !tbl.IsPersisted(1) {
		t.Fatal("epochs not persisted after demanded flush")
	}
}

func TestArbiterDoesNotFlushOngoingEpoch(t *testing.T) {
	eng, tbl, arb, drv := harness(t, DefaultConfig())
	tbl.Current().AddPending(10)
	arb.DemandThrough(0, CauseInter) // demand on the ongoing epoch
	eng.Run()
	if len(drv.flushes) != 0 {
		t.Fatal("arbiter flushed an ongoing epoch")
	}
	// Once the barrier closes it, the demand proceeds.
	tbl.Advance(0, BarrierAdvance)
	arb.Kick()
	eng.Run()
	if len(drv.flushes) != 1 {
		t.Fatal("demand did not proceed after the epoch completed")
	}
}

func TestArbiterNaturalDrainPersistsWithoutFlush(t *testing.T) {
	eng, tbl, arb, drv := harness(t, DefaultConfig())
	cur := tbl.Current()
	cur.AddPending(10)
	tbl.Advance(0, BarrierAdvance)
	// Natural eviction writes the line to NVRAM.
	delete(cur.Pending, 10)
	arb.Kick()
	eng.Run()
	if len(drv.flushes) != 0 {
		t.Fatal("natural drain triggered a driver flush")
	}
	if !tbl.IsPersisted(0) {
		t.Fatal("drained epoch did not persist")
	}
	if arb.Stats().NaturalPersists != 1 {
		t.Fatalf("NaturalPersists = %d, want 1", arb.Stats().NaturalPersists)
	}
	if tbl.Stats().ByCause[CauseNatural] != 1 {
		t.Fatal("cause not recorded as natural")
	}
}

func TestArbiterWaitsForIDTSource(t *testing.T) {
	eng, tbl, arb, drv := harness(t, DefaultConfig())
	cur := tbl.Current()
	cur.AddPending(10)
	src := &sim.Signal{}
	if !tbl.AddDependence(cur, ID{Core: 1, Num: 7}, src) {
		t.Fatal("dep rejected")
	}
	tbl.Advance(0, BarrierAdvance)
	arb.DemandThrough(0, CauseInter)
	eng.Run()
	if len(drv.flushes) != 0 {
		t.Fatal("flushed before IDT source persisted")
	}
	src.Fire() // source epoch persists -> subscription kicks the arbiter
	eng.Run()
	if len(drv.flushes) != 1 || !tbl.IsPersisted(0) {
		t.Fatal("flush did not proceed after source persisted")
	}
}

func TestArbiterWaitsForLogWrites(t *testing.T) {
	eng, tbl, arb, drv := harness(t, DefaultConfig())
	cur := tbl.Current()
	cur.AddPending(10)
	cur.LogPending = 1
	tbl.Advance(0, BarrierAdvance)
	arb.DemandThrough(0, CauseIntra)
	eng.Run()
	if len(drv.flushes) != 0 {
		t.Fatal("flushed before undo-log writes were durable")
	}
	cur.LogPending = 0
	arb.Kick()
	eng.Run()
	if len(drv.flushes) != 1 {
		t.Fatal("flush did not proceed after log writes completed")
	}
}

func TestArbiterProactiveFlush(t *testing.T) {
	eng, tbl, arb, drv := harness(t, DefaultConfig())
	cur := tbl.Current()
	cur.AddPending(10)
	tbl.Advance(0, BarrierAdvance)
	arb.RequestProactive(0)
	eng.Run()
	if len(drv.flushes) != 1 {
		t.Fatal("proactive request did not flush")
	}
	if tbl.Stats().ByCause[CauseProactive] != 1 {
		t.Fatal("cause not proactive")
	}
}

func TestProactiveDoesNotOverrideConflictCause(t *testing.T) {
	eng, tbl, arb, _ := harness(t, DefaultConfig())
	cur := tbl.Current()
	cur.AddPending(10)
	tbl.Advance(0, BarrierAdvance)
	arb.DemandThrough(0, CauseIntra)
	arb.RequestProactive(0)
	eng.Run()
	if tbl.Stats().ByCause[CauseIntra] != 1 {
		t.Fatalf("cause stats = %+v, want intra recorded", tbl.Stats().ByCause)
	}
}

func TestArbiterSerializesFlushes(t *testing.T) {
	eng, tbl, arb, drv := harness(t, DefaultConfig())
	for i := 0; i < 3; i++ {
		tbl.Current().AddPending(mem.Line(10 * (i + 1)))
		tbl.Advance(0, BarrierAdvance)
	}
	arb.DemandThrough(2, CausePressure)
	// After the first event batch only one flush may be in flight.
	eng.RunUntil(50)
	if len(drv.flushes) != 1 {
		t.Fatalf("flushes in flight after demand = %d, want 1", len(drv.flushes))
	}
	eng.Run()
	if len(drv.flushes) != 3 {
		t.Fatalf("total flushes = %d, want 3", len(drv.flushes))
	}
	// Strictly ordered persists.
	if eng.Now() < 300 {
		t.Fatalf("three serialized 100-cycle flushes finished at %d, want >= 300", eng.Now())
	}
}

func TestHistoryRecordsWritesAndDeps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordHistory = true
	eng, tbl, arb, _ := harness(t, cfg)
	cur := tbl.Current()
	cur.AddPending(10)
	cur.Writes[10] = 42
	src := &sim.Signal{}
	src.Fire()
	tbl.AddDependence(cur, ID{Core: 3, Num: 1}, src)
	tbl.Advance(0, BarrierAdvance)
	tbl.Current().AddPending(11) // unpersisted at "crash"
	arb.DemandThrough(0, CauseInter)
	eng.Run()

	hist := tbl.History()
	if len(hist) != 2 { // persisted epoch 0 + the open, unpersisted epoch 1
		t.Fatalf("history length = %d, want 2: %+v", len(hist), hist)
	}
	if hist[0].ID.Num != 0 || !hist[0].PersistedFlag || hist[0].Writes[10] != 42 {
		t.Fatalf("persisted summary = %+v", hist[0])
	}
	if len(hist[0].Deps) != 1 || hist[0].Deps[0] != (ID{Core: 3, Num: 1}) {
		t.Fatalf("deps = %v", hist[0].Deps)
	}
	if hist[1].PersistedFlag {
		t.Fatal("unpersisted epoch flagged persisted")
	}
}

// TestDropHistory: dropping the oldest persisted summaries leaves the
// rest, in order, ahead of the unpersisted window in History, and the
// backing array lets go of what was dropped.
func TestDropHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordHistory = true
	eng, tbl, arb, _ := harness(t, cfg)
	for i := 0; i < 3; i++ {
		tbl.Current().AddPending(mem.Line(10 + i))
		tbl.Advance(0, BarrierAdvance)
	}
	arb.DemandThrough(2, CauseInter)
	eng.Run()
	if got := len(tbl.Persisted()); got != 3 {
		t.Fatalf("persisted summaries = %d, want 3", got)
	}
	backing := tbl.Persisted()
	tbl.DropHistory(2)
	if p := tbl.Persisted(); len(p) != 1 || p[0].ID.Num != 2 {
		t.Fatalf("after dropping 2: %+v", p)
	}
	if backing[1] != nil || backing[2] != nil {
		t.Fatal("dropped summaries still referenced from the backing array")
	}
	hist := tbl.History()
	if len(hist) != 2 || hist[0].ID.Num != 2 || !hist[0].PersistedFlag || hist[1].ID.Num != 3 || hist[1].PersistedFlag {
		t.Fatalf("history after drop = %+v", hist)
	}
	tbl.DropHistory(0)
	if len(tbl.Persisted()) != 1 {
		t.Fatal("DropHistory(0) dropped something")
	}
}

func TestHistoryDisabledReturnsNil(t *testing.T) {
	tbl := newTable(t, DefaultConfig())
	if tbl.History() != nil {
		t.Fatal("history returned without RecordHistory")
	}
}

func TestMarkPersistedOutOfOrderPanics(t *testing.T) {
	tbl := newTable(t, DefaultConfig())
	tbl.Advance(0, BarrierAdvance)
	cur := tbl.Current()
	defer func() {
		if recover() == nil {
			t.Error("out-of-order persist did not panic")
		}
	}()
	tbl.markPersisted(cur, 0)
}

func TestAddPendingReportsFirstWrite(t *testing.T) {
	tbl := newTable(t, DefaultConfig())
	cur := tbl.Current()
	if !cur.AddPending(5) {
		t.Fatal("first write not reported")
	}
	if cur.AddPending(5) {
		t.Fatal("second write reported as first")
	}
}

func TestDemandPropagatesToIDTSources(t *testing.T) {
	// Two tables: the dependent epoch's demanded flush must forward a
	// demand to its source core's arbiter instead of waiting forever.
	eng := sim.NewEngine()
	srcTbl, err := NewTable(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srcDrv := &fakeDriver{eng: eng, delay: 50}
	srcArb, err := NewArbiter(eng, srcTbl, srcDrv)
	if err != nil {
		t.Fatal(err)
	}
	depTbl, err := NewTable(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	depDrv := &fakeDriver{eng: eng, delay: 50}
	depArb, err := NewArbiter(eng, depTbl, depDrv)
	if err != nil {
		t.Fatal(err)
	}
	depArb.SetDemandSource(func(src ID, cause FlushCause) {
		if src.Core != 1 {
			t.Fatalf("demand forwarded to %v", src)
		}
		srcArb.DemandThrough(src.Num, cause)
	})

	// Source epoch 0 has a pending line and completes, but nobody
	// demands it directly.
	srcRec := srcTbl.Current()
	srcRec.AddPending(100)
	srcTbl.Advance(0, BarrierAdvance)

	// Dependent epoch 0 depends on it and is demanded.
	depRec := depTbl.Current()
	depRec.AddPending(200)
	if !depTbl.AddDependence(depRec, srcRec.ID, &srcRec.Persisted) {
		t.Fatal("dep rejected")
	}
	depTbl.Advance(0, BarrierAdvance)
	depArb.DemandThrough(0, CauseIntra)
	eng.Run()
	if !srcTbl.IsPersisted(0) {
		t.Fatal("source epoch never flushed (demand not propagated)")
	}
	if !depTbl.IsPersisted(0) {
		t.Fatal("dependent epoch never persisted")
	}
	if len(srcDrv.flushes) != 1 || len(depDrv.flushes) != 1 {
		t.Fatalf("flushes = %d/%d, want 1/1", len(srcDrv.flushes), len(depDrv.flushes))
	}
}

func TestArbiterReArmsAfterStragglerRedirty(t *testing.T) {
	// A flush completes while one pending line remains with no ack in
	// flight (it was re-dirtied); the arbiter must re-arm and flush again.
	eng := sim.NewEngine()
	tbl := newTable(t, DefaultConfig())
	passes := 0
	var arb *Arbiter
	drv := driverFunc(func(rec *Record, done func()) {
		passes++
		eng.After(20, func() {
			if passes == 1 {
				// First pass drains nothing (line re-dirtied elsewhere).
				done()
				return
			}
			for l := range rec.Pending {
				delete(rec.Pending, l)
			}
			done()
		})
	})
	arb, err := NewArbiter(eng, tbl, drv)
	if err != nil {
		t.Fatal(err)
	}
	cur := tbl.Current()
	cur.AddPending(7)
	tbl.Advance(0, BarrierAdvance)
	arb.DemandThrough(0, CauseIntra)
	eng.Run()
	if passes != 2 {
		t.Fatalf("flush passes = %d, want 2 (re-arm)", passes)
	}
	if !tbl.IsPersisted(0) {
		t.Fatal("epoch not persisted after re-armed flush")
	}
}

func TestConflictDemandedCountsInStats(t *testing.T) {
	eng, tbl, arb, _ := harness(t, DefaultConfig())
	cur := tbl.Current()
	cur.AddPending(1)
	cur.ConflictDemanded = true
	tbl.Advance(0, BarrierAdvance)
	arb.DemandThrough(0, CauseProactive) // non-conflicting cause
	eng.Run()
	if tbl.Stats().ConflictingEpochs != 1 {
		t.Fatalf("ConflictingEpochs = %d, want 1 (ConflictDemanded set)", tbl.Stats().ConflictingEpochs)
	}
}

// driverFunc adapts a function to the FlushDriver interface.
type driverFunc func(rec *Record, done func())

func (f driverFunc) FlushEpoch(rec *Record, done func()) { f(rec, done) }
