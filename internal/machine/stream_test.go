package machine

import (
	"strings"
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/recovery"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

func lbStreamConfig() Config {
	cfg := testConfig(LB)
	cfg.IDT, cfg.PF = true, true
	return cfg
}

func TestStreamFeedAndDrain(t *testing.T) {
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Builder
	b.Store(0x1000).Barrier().Store(0x2000).Barrier().TxEnd()
	if err := m.Feed(0, b.Ops()); err != nil {
		t.Fatal(err)
	}
	if !m.PumpUntilIdle(sim.MaxCycle) {
		t.Fatal("machine did not go idle")
	}
	// Cores retired their ops but the run is still open: feed more.
	var b2 trace.Builder
	b2.Store(0x3000).Barrier().TxEnd()
	if err := m.Feed(1, b2.Ops()); err != nil {
		t.Fatal(err)
	}
	if !m.PumpUntilIdle(sim.MaxCycle) {
		t.Fatal("machine did not go idle after second feed")
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Finished || r.Deadlocked {
		t.Fatalf("Finished=%v Deadlocked=%v", r.Finished, r.Deadlocked)
	}
	if r.Transactions != 2 {
		t.Fatalf("transactions = %d, want 2", r.Transactions)
	}
	// After the drain, every store must be durable.
	for _, l := range []mem.Line{mem.LineOf(0x1000), mem.LineOf(0x2000), mem.LineOf(0x3000)} {
		if r.Image[l] == mem.NoVersion {
			t.Fatalf("line %v not durable after drain", l)
		}
	}
}

func TestStreamCrashLimit(t *testing.T) {
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Builder
	for i := 0; i < 50; i++ {
		b.Store(mem.Addr(0x1000 + i*64)).Barrier()
	}
	if err := m.Feed(0, b.Ops()); err != nil {
		t.Fatal(err)
	}
	const crash = 500
	if m.PumpUntilIdle(crash) {
		t.Fatal("50 barriered stores retired within 500 cycles")
	}
	if m.Deadlocked() {
		t.Fatal("crash limit misreported as deadlock")
	}
	if m.Now() != crash {
		t.Fatalf("clock = %d at crash, want %d", m.Now(), crash)
	}
	r := m.Snapshot()
	if r.Finished {
		t.Fatal("crashed run reported finished")
	}
}

func TestStreamTokenVersions(t *testing.T) {
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Builder
	b.StoreTagged(0x1000, 7).Barrier().StoreTagged(0x1000, 8).Barrier()
	if err := m.Feed(0, b.Ops()); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	v7, ok7 := r.TokenVersions[7]
	v8, ok8 := r.TokenVersions[8]
	if !ok7 || !ok8 {
		t.Fatalf("tokens missing: %v", r.TokenVersions)
	}
	if v8 <= v7 {
		t.Fatalf("later tagged store got version %d <= %d", v8, v7)
	}
	if r.Image[mem.LineOf(0x1000)] != v8 {
		t.Fatalf("image holds %d, want final version %d", r.Image[mem.LineOf(0x1000)], v8)
	}
}

func TestStreamFeedErrors(t *testing.T) {
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Feed(99, nil); err == nil {
		t.Fatal("Feed to out-of-range core accepted")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Feed(0, nil); err == nil {
		t.Fatal("Feed after Run accepted")
	}
}

// TestLoadIsAClosedFeed: a machine has one lifecycle. Loading a program
// and running it gives the Result that feeding each core its trace and
// running gives, on an LB++ micro run and on a bulk BSP run with undo
// logging; three traces on four cores also cover a core nothing reaches.
func TestLoadIsAClosedFeed(t *testing.T) {
	spec := workload.Spec{Threads: 3, OpsPerThread: 40, Seed: 3}
	queue, err := workload.Queue(spec)
	if err != nil {
		t.Fatal(err)
	}
	ssca2, err := workload.Apps()["ssca2"].Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	bulk := lbStreamConfig()
	bulk.BulkEpochStores, bulk.Logging, bulk.CheckpointLines = 8, true, 4
	for _, tc := range []struct {
		name string
		cfg  Config
		p    *trace.Program
	}{
		{"queue LB++", lbStreamConfig(), queue},
		{"ssca2 bulk logging", bulk, ssca2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loaded := run(t, tc.cfg, tc.p)
			m, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for core, ops := range tc.p.Traces {
				if err := m.Feed(core, ops); err != nil {
					t.Fatal(err)
				}
			}
			fed, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !loaded.Finished || loaded.PersistedLines == 0 {
				t.Fatalf("loaded run is empty: finished %v, %d lines persisted", loaded.Finished, loaded.PersistedLines)
			}
			if got, want := stats.MustFingerprint(fed), stats.MustFingerprint(loaded); got != want {
				t.Fatalf("fed run fingerprint %s, loaded %s", got[:12], want[:12])
			}
		})
	}
}

// TestEmptyStreamRuns: a machine nothing was fed is a valid run (a pmkv
// shard that received no request), finished at cycle 0 with nothing done.
func TestEmptyStreamRuns(t *testing.T) {
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Finished || r.Deadlocked || r.DrainCycles != 0 || m.Now() != 0 || r.Transactions != 0 {
		t.Fatalf("empty run: finished %v, deadlocked %v, drained at %d, clock %d, %d txs",
			r.Finished, r.Deadlocked, r.DrainCycles, m.Now(), r.Transactions)
	}
}

// TestLoadClosesFeed: Load is the whole stream, so nothing may be fed
// after it, and a machine whose feed is closed takes no program.
func TestLoadClosesFeed(t *testing.T) {
	var b trace.Builder
	b.Store(0x1000).Barrier()
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(singleTrace(&b)); err != nil {
		t.Fatal(err)
	}
	if err := m.Feed(0, b.Ops()); err == nil {
		t.Fatal("Feed after Load accepted")
	}
	m, err = New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.CloseFeed()
	if err := m.Load(singleTrace(&b)); err == nil {
		t.Fatal("Load after CloseFeed accepted")
	}
}

// TestLoadRequiresProgram: a program without ops is refused at Load (an
// empty stream is only what a machine nothing was fed runs).
func TestLoadRequiresProgram(t *testing.T) {
	for _, p := range []*trace.Program{{}, {Traces: make([][]trace.Op, 4)}} {
		m, err := New(testConfig(NP))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(p); err == nil {
			t.Fatalf("program with %d empty traces loaded", p.Cores())
		}
	}
}

// TestStreamTaggedSameLineOverlapPanics: a second tagged store issued to
// a line while the first is still posted in the write buffer must be a
// hard error — silently rebinding the entry would attach the new token to
// the first store's version and drop the old token from TokenVersions.
func TestStreamTaggedSameLineOverlapPanics(t *testing.T) {
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Builder
	b.StoreTagged(0x1000, 7).StoreTagged(0x1000, 8) // no draining barrier between
	if err := m.Feed(0, b.Ops()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping same-line tagged stores did not panic")
		}
	}()
	m.PumpUntilIdle(sim.MaxCycle)
}

// streamTagged runs n barriered tagged stores (tokens 1..n, one line each)
// on core 0 of a fed machine and lets every epoch persist.
func streamTagged(t *testing.T, n int) *Machine {
	t.Helper()
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Builder
	for i := 0; i < n; i++ {
		b.StoreTagged(mem.Addr(0x1000+i*64), uint64(i+1)).Barrier()
	}
	if err := m.Feed(0, b.Ops()); err != nil {
		t.Fatal(err)
	}
	if !m.PumpUntilIdle(sim.MaxCycle) {
		t.Fatal("machine did not go idle")
	}
	for m.Engine().Pending() > 0 {
		m.Step(1000)
	}
	return m
}

// TestForgetTokensThrough: forgotten tokens leave both the live query and
// the result; later ones stay.
func TestForgetTokensThrough(t *testing.T) {
	m := streamTagged(t, 6)
	if len(m.tokenVersions) != 6 {
		t.Fatalf("tagged stores = %d, want 6", len(m.tokenVersions))
	}
	m.ForgetTokensThrough(4)
	if _, ok := m.TokenVersion(4); ok {
		t.Fatal("token 4 still known after ForgetTokensThrough(4)")
	}
	if v, ok := m.TokenVersion(5); !ok || v == mem.NoVersion {
		t.Fatal("token 5 forgotten")
	}
	if r := m.Snapshot(); len(r.TokenVersions) != 2 {
		t.Fatalf("result carries %d token versions, want 2", len(r.TokenVersions))
	}
}

// TestTrimHistory: history below the keep bound goes, the epoch holding
// the bound and everything after it stays, untouched cores are untouched,
// and what is left still passes the recovery checks.
func TestTrimHistory(t *testing.T) {
	m := streamTagged(t, 6)
	before := len(m.Snapshot().Histories[0])
	v4, _ := m.TokenVersion(4)
	keep := []mem.Version{v4, ^mem.Version(0), ^mem.Version(0), ^mem.Version(0)}
	trimmed, err := m.TrimHistory(keep)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed != 3 {
		t.Fatalf("trimmed %d epochs, want the 3 that wrote tokens 1..3", trimmed)
	}
	r := m.Snapshot()
	if got := len(r.Histories[0]); got != before-3 {
		t.Fatalf("core 0 history = %d epochs, want %d", got, before-3)
	}
	g := recovery.NewGraph(r.Histories)
	if _, ok := g.WriterOf(v4); !ok {
		t.Fatal("the epoch that wrote the keep bound was trimmed")
	}
	v3, _ := m.TokenVersion(3)
	if _, ok := g.WriterOf(v3); ok {
		t.Fatal("an epoch below the keep bound survived")
	}
	if err := recovery.CheckAll(r.Histories, r.Image, nil, false); err != nil {
		t.Fatalf("trimmed history fails recovery checks: %v", err)
	}
	if again, err := m.TrimHistory(keep); again != 0 || err != nil {
		t.Fatalf("second trim at the same bound = %d, %v", again, err)
	}
}

// TestTrimHistoryRefusesUndurableWrite plants the bug the trim check
// exists for: an epoch offered for trimming while one of its writes is not
// in NVRAM. The trim must refuse it — and everything after it on the core
// — and say why, while epochs before it still go.
func TestTrimHistoryRefusesUndurableWrite(t *testing.T) {
	m := streamTagged(t, 6)
	all := []mem.Version{^mem.Version(0), ^mem.Version(0), ^mem.Version(0), ^mem.Version(0)}
	hist := m.cores[0].table.Persisted()
	before := len(hist)
	lost := mem.LineOf(0x9000)
	hist[2].Writes[lost] = hist[2].Writes[mem.LineOf(0x1000+2*64)] // never written back
	trimmed, err := m.TrimHistory(all)
	if err == nil || !strings.Contains(err.Error(), "is not durable") {
		t.Fatalf("trim of an epoch with an undurable write: err = %v", err)
	}
	if trimmed != 2 || len(m.cores[0].table.Persisted()) != before-2 {
		t.Fatalf("trimmed %d, %d left of %d: want exactly the two epochs before the bad one gone",
			trimmed, len(m.cores[0].table.Persisted()), before)
	}
	if again, err := m.TrimHistory(all); again != 0 || err == nil {
		t.Fatalf("second attempt = %d, %v: the bad epoch must keep blocking", again, err)
	}
}
