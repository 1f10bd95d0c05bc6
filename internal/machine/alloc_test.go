package machine

import (
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// The gates below hold the access path and the §4.1 flush handshake to
// their allocation budget where the frames live: a fed machine of
// four cores with history off, warmed until every free list, event bucket
// and cache set it will use exists. They are what keeps README's "the
// simulator's hot path is allocation-free" true; CI runs them by name.

func allocMachine(t *testing.T, model Model) *Machine {
	t.Helper()
	cfg := testConfig(model)
	cfg.RecordHistory = false
	cfg.IDT, cfg.PF = true, true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// feedAndRun feeds ops to core and runs the machine until its cores are
// idle again.
func feedAndRun(t *testing.T, m *Machine, core int, ops []trace.Op) {
	if err := m.Feed(core, ops); err != nil {
		t.Fatal(err)
	}
	if !m.PumpUntilIdle(sim.MaxCycle) {
		t.Fatal("machine did not go idle")
	}
}

// TestEpochRoundAllocs: store to a resident line, barrier, run until the
// epoch has persisted — access, posted store, commit, barrier, proactive
// flush, FlushEpoch broadcast, bank drain, NVRAM write, PersistAck,
// BankAcks, PersistCMP. Nothing may allocate: the epoch table reopens a
// slot of its ring for the next epoch, Pending map and subscribers kept.
func TestEpochRoundAllocs(t *testing.T) {
	m := allocMachine(t, LB)
	var b trace.Builder
	ops := b.Store(0x4000).Barrier().Ops()
	round := func() {
		before := m.Counters().Epochs.Persisted
		feedAndRun(t, m, 0, ops)
		for m.Counters().Epochs.Persisted == before {
			m.Step(200)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	flushes := m.Counters().Epochs.Flushes
	n := testing.AllocsPerRun(200, round)
	if got := m.Counters().Epochs.Flushes - flushes; got != 201 {
		t.Fatalf("%d flush handshakes in 201 rounds: the gate is not measuring the handshake", got)
	}
	if n != 0 {
		t.Fatalf("one store+barrier+persist round allocates %.2f times, want 0", n)
	}
}

// TestPingPongZeroAlloc: two cores store to one line in turn while a third
// reads it, so every access recalls the line from its owner, grants it and
// invalidates or downgrades the other copies. NP keeps the epoch table out
// of it: what is left is the request path alone, and it allocates nothing.
func TestPingPongZeroAlloc(t *testing.T) {
	m := allocMachine(t, NP)
	var st, ld trace.Builder
	store, load := st.Store(0x4000).Ops(), ld.Load(0x4000).Ops()
	round := func() {
		feedAndRun(t, m, 0, store)
		feedAndRun(t, m, 2, load)
		feedAndRun(t, m, 1, store)
		feedAndRun(t, m, 2, load)
	}
	for i := 0; i < 16; i++ {
		round()
	}
	m.Step(10_000) // let the posted stores land before counting
	misses := m.Counters().L1.Misses
	n := testing.AllocsPerRun(200, round)
	// Three misses a round: core 1's store finds the shared copy its last
	// downgrade left and upgrades it through the bank instead.
	if got := m.Counters().L1.Misses - misses; got != 201*3 {
		t.Fatalf("%d L1 misses in 201 rounds, want 3 a round: the line is not ping-ponging", got)
	}
	if n != 0 {
		t.Fatalf("a recall+grant+invalidate round allocates %.2f times, want 0", n)
	}
}

// TestLLCMissZeroAlloc: one core walks a working set one LLC set cannot
// hold, so every access misses the LLC, fetches from NVRAM and evicts a
// victim — clean for the loads, dirty (an untagged writeback to NVRAM,
// behind a dirty L1 victim's writeback) for the stores. Every line was
// touched in warm-up, so the L1 and LLC sets it maps to have already grown
// to full width (cache.grow) and the line table's growth is behind us. (With several cores walking it the LLC's victim is
// still dirty in some L1 and is recalled first; that rare path keeps its
// two closures.)
func TestLLCMissZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  func(*trace.Builder, mem.Addr) *trace.Builder
	}{{"loads", (*trace.Builder).Load}, {"stores", (*trace.Builder).Store}} {
		t.Run(tc.name, func(t *testing.T) {
			m := allocMachine(t, NP)
			cfg := m.cfg
			// Lines of one bank and one LLC set (hence also one L1 set).
			stride := mem.Addr(cfg.LLCBanks*cfg.LLCSets) * mem.LineSize
			n := 2 * cfg.LLCWays
			next := 0
			var b trace.Builder
			round := func() {
				tc.add(b.Reset(), 0x100000+mem.Addr(next%n)*stride)
				next++
				feedAndRun(t, m, 0, b.Ops())
				m.Step(2_000)
			}
			for i := 0; i < 4*n; i++ {
				round()
			}
			fills := m.Counters().MC.Reads
			allocs := testing.AllocsPerRun(200, round)
			if got := m.Counters().MC.Reads - fills; got != 201 {
				t.Fatalf("%d NVRAM reads in 201 accesses: the working set fits", got)
			}
			if allocs != 0 {
				t.Fatalf("an LLC-miss round allocates %.2f times, want 0", allocs)
			}
		})
	}
}

// TestPostedLoadWindowAllocs: one commit window of pmkv's shape — a store,
// posted loads, the barrier, more posted loads — with every load an L1
// miss (twelve lines of one L1 set, more than its ways and than
// loadSlots), so the window fills the slots, parks on a full set of
// them, drains them at the barrier and at the end of the feed, and
// persists its epoch. Nothing may allocate.
func TestPostedLoadWindowAllocs(t *testing.T) {
	m := allocMachine(t, LB)
	stride := mem.Addr(m.cfg.L1Sets) * mem.LineSize
	var b trace.Builder
	b.Store(0x4000)
	for i := 0; i < 12; i++ {
		b.PostedLoad(0x100000 + mem.Addr(i)*stride)
		if i == 8 {
			b.Barrier()
		}
	}
	ops := b.Ops()
	round := func() {
		before := m.Counters().Epochs.Persisted
		feedAndRun(t, m, 0, ops)
		for m.Counters().Epochs.Persisted == before {
			m.Step(200)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	misses := m.Counters().L1.Misses
	n := testing.AllocsPerRun(200, round)
	if got := m.Counters().L1.Misses - misses; got < 201*12 {
		t.Fatalf("%d L1 misses in 201 windows of 12 posted loads: the loads hit", got)
	}
	if n != 0 {
		t.Fatalf("a posted-load window allocates %.2f times, want 0", n)
	}
}
