package server

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/sim"
)

// TestDrainReportClocks holds the two clocks a closed shard carries apart.
// ShardResult.Cycles is read before the closing drain and is what the
// drain report prints (and the benchmark sums into kv-* cycles per op,
// and scripted sweeps size their crash instants by); Stats.Cycle is read
// after it. The machine runs LB+IDT, without proactive flushing:
// a closed epoch persists only when something forces it out (a
// conflicting store, an eviction, the in-flight limit), so the last epoch
// each core closed is still in the caches when the worker, its mailbox
// closed and the machinery dry, acks early and the drain begins. Only the
// closing drain persists it, so a clean shard's
// Stats.Cycle must be past its Cycles at any bucket count; a crashed shard
// drains nothing, so both clocks are the crash instant. The crash must
// fall inside the crash run, whose clock host timing sets: the worker
// gathers what is queued, and 64 writes in one batch end near cycle 2 700
// where 64 batches of one run past cycle 35 000. Whatever the batching,
// the first batch holds the first write and its window does at least the
// work of that write alone, so power is lost halfway through a clean run
// of that one write, which every batching reaches.
func TestDrainReportClocks(t *testing.T) {
	mc := pmkv.SmallMachine()
	mc.PF = false
	for _, buckets := range []int{64, pmkv.DefaultBuckets} {
		drainClocks(t, pmkv.Config{Machine: mc, Buckets: buckets}, 64)
		one := drainClocks(t, pmkv.Config{Machine: mc, Buckets: buckets}, 1)
		if one < 2 {
			t.Fatalf("%d buckets: one write took %d cycles, too few to crash inside", buckets, one)
		}
		drainClocks(t, pmkv.Config{Machine: mc, Buckets: buckets, CrashAt: one / 2}, 64)
	}
}

// drainClocks puts writes keys to one shard, closes it and checks its two
// clocks; it returns the ShardResult.Cycles the drain report printed.
func drainClocks(t *testing.T, cfg pmkv.Config, writes int) sim.Cycle {
	t.Helper()
	at := cfg.CrashAt
	s, err := New(pmkv.ShardedConfig{Engine: cfg}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.store.NewSession()
	done := make(chan pmkv.Completion, writes)
	for i := range writes {
		// A shard that lost power starts the drain itself, which refuses
		// what comes after.
		_, err := s.store.DoAsync(sess, pmkv.Put, fmt.Sprintf("k%02d", i), []byte("value"), nil, uint64(i), done)
		if err == pmkv.ErrDraining && at != 0 {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatalf("%d buckets, crash at %d: %v", cfg.Buckets, at, err)
	}
	results, _ := s.store.Close() // a second Close hands back the first's results
	r := results[0]
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`shard 0: (clean|crashed at cycle \d+) after (\d+) cycles`).FindStringSubmatch(text.String())
	if m == nil {
		t.Fatalf("%d buckets, crash at %d: no shard line in the drain report:\n%s", cfg.Buckets, at, text.String())
	}
	if printed, _ := strconv.ParseUint(m[2], 10, 64); sim.Cycle(printed) != r.Cycles {
		t.Errorf("%d buckets, crash at %d: the report prints %d cycles, ShardResult.Cycles is %d", cfg.Buckets, at, printed, r.Cycles)
	}
	switch {
	case at == 0 && (r.Crashed || r.Cycles >= r.Stats.Cycle):
		t.Errorf("%d buckets, clean drain: crashed %v, Cycles %d, Stats.Cycle %d; want the drain to end after it began",
			cfg.Buckets, r.Crashed, r.Cycles, r.Stats.Cycle)
	case at != 0 && (!r.Crashed || r.Cycles != at || r.Stats.Cycle != at):
		t.Errorf("%d buckets, crash at %d: crashed %v, Cycles %d, Stats.Cycle %d; want both at the crash instant",
			cfg.Buckets, at, r.Crashed, r.Cycles, r.Stats.Cycle)
	}
	return r.Cycles
}
