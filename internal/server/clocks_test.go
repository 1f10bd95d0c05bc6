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
// drain report prints (and the benchmark sums into kv-* cycles per op);
// Stats.Cycle is read after it and is what every scripted sweep sizes its
// crash instants by. The writes are still queued when the drain begins and
// the closing drain still has the cores' open epochs to close, so a clean
// shard's Stats.Cycle must be past its Cycles; a crashed shard drains
// nothing, so both clocks are the crash instant.
func TestDrainReportClocks(t *testing.T) {
	const crashAt = 3000
	for _, at := range []sim.Cycle{0, crashAt} {
		s, err := New(pmkv.ShardedConfig{Engine: pmkv.Config{CrashAt: at}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		const writes = 64
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
			t.Fatalf("crash at %d: %v", at, err)
		}
		results, _ := s.store.Close() // a second Close hands back the first's results
		r := results[0]
		var text bytes.Buffer
		if err := rep.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`shard 0: (clean|crashed at cycle \d+) after (\d+) cycles`).FindStringSubmatch(text.String())
		if m == nil {
			t.Fatalf("crash at %d: no shard line in the drain report:\n%s", at, text.String())
		}
		if printed, _ := strconv.ParseUint(m[2], 10, 64); sim.Cycle(printed) != r.Cycles {
			t.Errorf("crash at %d: the report prints %d cycles, ShardResult.Cycles is %d", at, printed, r.Cycles)
		}
		switch {
		case at == 0 && (r.Crashed || r.Cycles >= r.Stats.Cycle):
			t.Errorf("clean drain: crashed %v, Cycles %d, Stats.Cycle %d; want the drain to end after it began",
				r.Crashed, r.Cycles, r.Stats.Cycle)
		case at != 0 && (!r.Crashed || r.Cycles != at || r.Stats.Cycle != at):
			t.Errorf("crash at %d: crashed %v, Cycles %d, Stats.Cycle %d; want both at the crash instant",
				at, r.Crashed, r.Cycles, r.Stats.Cycle)
		}
	}
}
