package epoch

import (
	"strings"
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

func TestIDBasics(t *testing.T) {
	if None.Valid() {
		t.Error("None reported valid")
	}
	a := ID{Core: 1, Num: 3}
	if !a.Valid() {
		t.Error("E1.3 reported invalid")
	}
	if a.String() != "E1.3" {
		t.Errorf("String = %q", a.String())
	}
	if None.String() != "epoch(none)" {
		t.Errorf("None.String = %q", None.String())
	}
}

func TestStateAndCauseStrings(t *testing.T) {
	for s, want := range map[State]string{Open: "open", Completed: "completed", Flushing: "flushing"} {
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
	tbl, err := NewTable(0, cfg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(0, Config{MaxInFlight: 1, DepRegs: 4}, false, nil); err == nil {
		t.Error("MaxInFlight=1 accepted")
	}
	if _, err := NewTable(0, Config{MaxInFlight: 8, DepRegs: -1}, false, nil); err == nil {
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
	if !tbl.AddDependence(cur, ID{Core: 1, Num: 0}) {
		t.Fatal("first dep rejected")
	}
	// Duplicate source: accepted without consuming a register.
	if !tbl.AddDependence(cur, ID{Core: 1, Num: 0}) {
		t.Fatal("duplicate dep rejected")
	}
	if !tbl.AddDependence(cur, ID{Core: 2, Num: 0}) {
		t.Fatal("second dep rejected")
	}
	if tbl.AddDependence(cur, ID{Core: 3, Num: 0}) {
		t.Fatal("third dep accepted past register limit")
	}
	if s := tbl.Stats(); s.DepsRecorded != 2 || len(cur.Deps) != 2 {
		t.Fatalf("stats = %+v, %d deps held", s, len(cur.Deps))
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
	eng, tbls, arbs, drvs := cores(t, 1, cfg, false)
	return eng, tbls[0], arbs[0], drvs[0]
}

// cores builds n cores' tables and arbiters on one engine, each arbiter
// the peer of every other, with 100-cycle fake flushes; history is each
// table's recordHistory.
func cores(t *testing.T, n int, cfg Config, history bool) (*sim.Engine, []*Table, []*Arbiter, []*fakeDriver) {
	t.Helper()
	eng := sim.NewEngine()
	tbls, arbs, drvs := make([]*Table, n), make([]*Arbiter, n), make([]*fakeDriver, n)
	for i := range tbls {
		tbl, err := NewTable(i, cfg, history, nil)
		if err != nil {
			t.Fatal(err)
		}
		drvs[i] = &fakeDriver{eng: eng, delay: 100}
		if arbs[i], err = NewArbiter(eng, tbl, drvs[i]); err != nil {
			t.Fatal(err)
		}
		arbs[i].SetPeers(arbs)
		tbls[i] = tbl
	}
	return eng, tbls, arbs, drvs
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
	eng, tbls, arbs, drvs := cores(t, 2, DefaultConfig(), false)
	// Core 0's epoch 0 depends on core 1's epoch 0, which is still open,
	// so the demand forwarded to it cannot flush it yet.
	cur := tbls[0].Current()
	cur.AddPending(10)
	if !tbls[0].AddDependence(cur, ID{Core: 1, Num: 0}) {
		t.Fatal("dep rejected")
	}
	tbls[0].Advance(0, BarrierAdvance)
	arbs[0].DemandThrough(0, CauseInter)
	eng.Run()
	if len(drvs[0].flushes) != 0 {
		t.Fatal("flushed before IDT source persisted")
	}
	if arbs[0].DepsPersisted(tbls[0].Lookup(0)) {
		t.Fatal("DepsPersisted with the source open")
	}
	// The source closes with nothing pending and persists at its next
	// Kick; its persist kicks the dependent's arbiter.
	tbls[1].Advance(0, BarrierAdvance)
	arbs[1].Kick()
	eng.Run()
	if len(drvs[0].flushes) != 1 || !tbls[0].IsPersisted(0) {
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
	eng, tbls, arbs, _ := cores(t, 2, DefaultConfig(), true)
	tbl, arb := tbls[0], arbs[0]
	tbls[1].Advance(0, BarrierAdvance) // E1.0 persists with nothing pending
	arbs[1].Kick()
	cur := tbl.Current()
	cur.AddPending(10)
	cur.Writes[10] = 42
	tbl.AddDependence(cur, ID{Core: 1, Num: 0})
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
	if len(hist[0].Deps) != 1 || hist[0].Deps[0] != (ID{Core: 1, Num: 0}) {
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
	eng, tbls, arbs, _ := cores(t, 1, DefaultConfig(), true)
	tbl, arb := tbls[0], arbs[0]
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
		t.Fatal("history returned without recordHistory")
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
	eng, tbls, arbs, drvs := cores(t, 2, DefaultConfig(), false)
	depTbl, depArb, depDrv := tbls[0], arbs[0], drvs[0]
	srcTbl, srcDrv := tbls[1], drvs[1]

	// Source epoch 0 has a pending line and completes, but nobody
	// demands it directly.
	srcRec := srcTbl.Current()
	srcRec.AddPending(100)
	srcTbl.Advance(0, BarrierAdvance)

	// Dependent epoch 0 depends on it and is demanded.
	depRec := depTbl.Current()
	depRec.AddPending(200)
	if !depTbl.AddDependence(depRec, srcRec.ID) {
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

// TestOnPersistedOrder: what waits on an epoch runs at its persist, in the
// order it subscribed; a wait on a persisted epoch runs at once; and a
// waiter that opens epoch n+MaxInFlight into the slot whose persist is
// being announced, then waits on that epoch, runs at its persist, not n's.
func TestOnPersistedOrder(t *testing.T) {
	_, tbl, arb, _ := harness(t, Config{MaxInFlight: 2, DepRegs: 4})
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	tbl.OnPersisted(0, note("a"))
	tbl.OnPersisted(0, func() {
		order = append(order, "b")
		tbl.Advance(1, BarrierAdvance) // closes E0.1, opens E0.2 in E0.0's slot
		tbl.OnPersisted(2, note("E0.2"))
	})
	tbl.OnPersisted(0, note("c"))
	tbl.Advance(0, BarrierAdvance)
	arb.Kick() // E0.0 and then E0.1 persist: nothing is pending
	if got := strings.Join(order, " "); got != "a b c" || !tbl.IsPersisted(1) || tbl.IsPersisted(2) {
		t.Fatalf("after E0.0 and E0.1 persisted: ran %q (want \"a b c\"), persisted(1)=%v persisted(2)=%v",
			got, tbl.IsPersisted(1), tbl.IsPersisted(2))
	}
	ran := false
	tbl.OnPersisted(0, func() { ran = true })
	if !ran {
		t.Fatal("a wait on a persisted epoch did not run at once")
	}
	tbl.Advance(2, BarrierAdvance)
	arb.Kick()
	if got := strings.Join(order, " "); got != "a b c E0.2" {
		t.Fatalf("after E0.2 persisted: ran %q, want \"a b c E0.2\"", got)
	}
}

// TestRingWrapKeepsHistory drives more than 3*MaxInFlight epochs through a
// four-slot ring, a full window at a time, each with a dependence and an
// online edge on core 1's persisted epoch 0. Every reopened slot must read
// as a fresh epoch, and with history on History() must name every epoch
// once, in order, with exactly the writes and edges it had.
func TestRingWrapKeepsHistory(t *testing.T) {
	const slots, epochs = 4, 3*4 + 3
	src := ID{Core: 1, Num: 0}
	for _, history := range []bool{false, true} {
		eng, tbls, arbs, _ := cores(t, 2, Config{MaxInFlight: slots, DepRegs: 4}, history)
		tbl, arb := tbls[0], arbs[0]
		tbls[1].Advance(0, BarrierAdvance)
		arbs[1].Kick() // src persists with nothing pending
		for n := uint64(0); n < epochs; n++ {
			cur := tbl.Current()
			if cur.ID.Num != n || cur.State != Open || len(cur.Pending) != 0 || len(cur.Deps) != 0 ||
				len(cur.OnlineEdges) != 0 || cur.flushWanted || cur.FlushCompleted || cur.StoreCount != 0 ||
				(cur.Writes != nil) != history {
				t.Fatalf("history=%v: epoch %d opened as %+v", history, n, cur)
			}
			cur.AddPending(mem.Line(n))
			cur.StoreCount++
			tbl.AddDependence(cur, src)
			cur.OnlineEdges = append(cur.OnlineEdges, src)
			if history {
				cur.Writes[mem.Line(n)] = mem.Version(100 + n)
			}
			if !tbl.CanAdvance() {
				arb.DemandThrough(tbl.Oldest().ID.Num, CausePressure)
				eng.Run()
			}
			tbl.Advance(sim.Cycle(n), BarrierAdvance)
		}
		arb.DemandThrough(epochs-1, CauseDrain)
		eng.Run()
		if tbl.InFlight() != 1 || !tbl.IsPersisted(epochs-1) || tbl.IsPersisted(epochs) || tbl.Lookup(epochs-1) != nil {
			t.Fatalf("history=%v: %d in flight after the drain", history, tbl.InFlight())
		}
		hist := tbl.History()
		if !history {
			if hist != nil {
				t.Fatal("history returned without recordHistory")
			}
			continue
		}
		if len(hist) != epochs+1 {
			t.Fatalf("%d summaries, want %d", len(hist), epochs+1)
		}
		for i, s := range hist {
			n := uint64(i)
			if s.ID != (ID{Core: 0, Num: n}) || s.PersistedFlag != (n < epochs) {
				t.Fatalf("summary %d is %v (persisted %v)", i, s.ID, s.PersistedFlag)
			}
			if n == epochs {
				break // the open epoch: nothing written yet
			}
			if len(s.Writes) != 1 || s.Writes[mem.Line(n)] != mem.Version(100+n) || len(s.Deps) != 2 || s.Deps[0] != src || s.Deps[1] != src {
				t.Fatalf("%v kept writes %v, edges %v", s.ID, s.Writes, s.Deps)
			}
		}
	}
}

// TestRingRoundZeroAlloc: once every slot has served, an epoch round —
// write a line, wait on the epoch, close it, drain it, persist it — reuses
// the slot's Pending map and subscriber array: with history off the table
// allocates nothing.
func TestRingRoundZeroAlloc(t *testing.T) {
	_, tbl, arb, _ := harness(t, DefaultConfig())
	hits := 0
	woke := func() { hits++ }
	round := func() {
		cur := tbl.Current()
		cur.AddPending(7)
		tbl.OnPersisted(cur.ID.Num, woke)
		tbl.Advance(0, BarrierAdvance)
		delete(cur.Pending, 7) // drained naturally
		arb.Kick()
	}
	warm := 2 * DefaultConfig().MaxInFlight
	for i := 0; i < warm; i++ {
		round()
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("an epoch round allocates %.2f times, want 0", n)
	}
	if hits != warm+101 {
		t.Fatalf("%d wake-ups, want %d: every round's epoch must persist once", hits, warm+101)
	}
}
