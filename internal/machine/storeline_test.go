package machine

import (
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/nvram"
	"persistbarriers/internal/trace"
)

// TestStoreLineSkipsTheFill: a whole-line store to a line no cache holds
// takes ownership without reading NVRAM, so it completes in less than one
// device read, where a Store to the same line reads the line first. On a
// line the LLC holds, its grant carries no data: fewer flits than a
// Store's.
func TestStoreLineSkipsTheFill(t *testing.T) {
	line := missLines(1)[0]
	miss := func(whole bool) *Result {
		var b trace.Builder
		if whole {
			b.StoreLine(line, 1)
		} else {
			b.Store(line)
		}
		return run(t, testConfig(LB), &trace.Program{Traces: [][]trace.Op{b.Ops()}})
	}
	sl, st := miss(true), miss(false)
	t.Logf("store to an absent line: StoreLine %d NVRAM reads, done at cycle %d; Store %d, at %d",
		sl.MC.Reads, sl.ExecCycles, st.MC.Reads, st.ExecCycles)
	if sl.MC.Reads != 0 || sl.ExecCycles >= nvram.ReadLatency {
		t.Fatalf("a StoreLine to an absent line read NVRAM %d times and completed at cycle %d, want 0 reads and under %d cycles",
			sl.MC.Reads, sl.ExecCycles, nvram.ReadLatency)
	}
	if st.MC.Reads != 1 {
		t.Fatalf("a Store to an absent line read NVRAM %d times, want 1", st.MC.Reads)
	}
	if got := sl.TokenVersions[1]; got == 0 {
		t.Fatal("the StoreLine's token has no committed version")
	}

	// Core 1 reads the line into the LLC; core 0 then stores to it, an LLC
	// hit whose grant also invalidates core 1's copy.
	hit := func(whole bool) *Result {
		var t0, t1 trace.Builder
		t1.Load(line)
		t0.Compute(2000)
		if whole {
			t0.StoreLine(line, 1)
		} else {
			t0.Store(line)
		}
		return run(t, testConfig(LB), &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}})
	}
	sl, st = hit(true), hit(false)
	if sl.MC.Reads != 1 || st.MC.Reads != 1 {
		t.Fatalf("the load's fill read NVRAM %d and %d times, want once: the store missed the LLC", sl.MC.Reads, st.MC.Reads)
	}
	if sl.NoC.Messages != st.NoC.Messages || sl.NoC.Flits >= st.NoC.Flits {
		t.Fatalf("LLC hit: StoreLine sent %d messages in %d flits, Store %d in %d; want as many messages in fewer flits",
			sl.NoC.Messages, sl.NoC.Flits, st.NoC.Messages, st.NoC.Flits)
	}
}

// TestStoreLineConflictsAsStore: a whole-line store that hits another
// core's unpersisted epoch is the same inter-thread conflict as a Store —
// the recall, the conflict check and the IDT edge do not depend on the
// data fetch.
func TestStoreLineConflictsAsStore(t *testing.T) {
	cfg := testConfig(LB)
	cfg.IDT, cfg.PF = true, false
	conflict := func(whole bool) *Result {
		var t0, t1 trace.Builder
		t0.Store(0).Barrier().Compute(4000)
		t1.Compute(500)
		if whole {
			t1.StoreLine(0, 1)
		} else {
			t1.Store(0)
		}
		t1.Barrier()
		return run(t, cfg, &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}})
	}
	sl, st := conflict(true), conflict(false)
	t.Logf("StoreLine: %+v conflicts, %d IDT edges; Store: %+v, %d", sl.Conflicts, sl.Epochs.Deps, st.Conflicts, st.Epochs.Deps)
	if st.Conflicts.Inter == 0 || st.Epochs.Deps == 0 {
		t.Fatalf("the Store found %d inter conflicts and %d IDT edges: the trace has no conflict to compare", st.Conflicts.Inter, st.Epochs.Deps)
	}
	if sl.Conflicts != st.Conflicts || sl.Epochs.Deps != st.Epochs.Deps {
		t.Fatalf("StoreLine: %+v conflicts, %d IDT edges; Store: %+v, %d; want them equal",
			sl.Conflicts, sl.Epochs.Deps, st.Conflicts, st.Epochs.Deps)
	}
}

// TestStoreLineAllocs: a tagged whole-line store that misses the LLC (one
// core walking more lines of one LLC set than it holds), then the barrier
// and the epoch's persist, with the token forgotten as pmkv forgets it.
// The fill it skips and the payload-free grant allocate nothing.
func TestStoreLineAllocs(t *testing.T) {
	m := allocMachine(t, LB)
	cfg := m.cfg
	stride := mem.Addr(cfg.LLCBanks*cfg.LLCSets) * mem.LineSize
	n := 2 * cfg.LLCWays
	next, tok := 0, uint64(0)
	var b trace.Builder
	round := func() {
		tok++
		b.Reset().StoreLine(0x100000+mem.Addr(next%n)*stride, tok).Barrier()
		next++
		before := m.Counters().Epochs.Persisted
		feedAndRun(t, m, 0, b.Ops())
		for m.Counters().Epochs.Persisted == before {
			m.Step(200)
		}
		m.ForgetTokensThrough(tok)
	}
	for i := 0; i < 4*n; i++ {
		round()
	}
	c0 := m.Counters()
	allocs := testing.AllocsPerRun(200, round)
	c1 := m.Counters()
	// The bank tests residency without counting a miss, so an LLC miss
	// shows as the victim its insert evicts.
	if got := c1.LLC.Evictions - c0.LLC.Evictions; got != 201 {
		t.Fatalf("%d LLC evictions in 201 whole-line stores: the working set fits", got)
	}
	if got := c1.MC.Reads - c0.MC.Reads; got != 0 {
		t.Fatalf("%d NVRAM reads in 201 whole-line stores, want 0", got)
	}
	if allocs != 0 {
		t.Fatalf("a whole-line store round allocates %.2f times, want 0", allocs)
	}
}
