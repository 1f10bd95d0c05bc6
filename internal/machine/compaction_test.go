package machine

import (
	"testing"

	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// TestStreamFeedCompaction: a long-lived stream must not accumulate every
// op ever fed — once a core has consumed its whole op slice, the next
// Feed reclaims the prefix. OpsRetired must still count every retired op
// across the compactions.
func TestStreamFeedCompaction(t *testing.T) {
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	const rounds, opsPerRound = 50, 4 // store+barrier+store+barrier
	var b trace.Builder
	total := 0
	for i := 0; i < rounds; i++ {
		b.Reset()
		b.Store(0x1000).Barrier().Store(0x2000).Barrier()
		total += opsPerRound
		if err := m.Feed(0, b.Ops()); err != nil {
			t.Fatal(err)
		}
		if !m.PumpUntilIdle(sim.MaxCycle) {
			t.Fatalf("round %d: machine did not go idle", i)
		}
		// The core drained everything: the next Feed must reclaim its op
		// slice instead of appending behind the consumed prefix.
		if got := len(m.cores[0].ops); got > opsPerRound {
			t.Fatalf("round %d: core op slice holds %d ops, want <= %d (prefix not compacted)",
				i, got, opsPerRound)
		}
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Cores[0].OpsRetired; got != total {
		t.Fatalf("OpsRetired = %d, want %d (retired counter lost across compactions)", got, total)
	}
}
