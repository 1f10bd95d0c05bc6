package machine

import (
	"fmt"
	"testing"
	"time"

	"persistbarriers/internal/stats"
	"persistbarriers/internal/workload"
)

// runQuickGrid runs the Fig. 11 quick grid (the five micro-benchmarks under
// the four LB variants, at harness.Quick's sizes) and fingerprints every
// result in grid order. plant, if not nil, is applied to each machine
// before it runs. A panic inside a run is returned, not raised.
func runQuickGrid(plant func(*Machine)) (fp string, panicked any) {
	defer func() { panicked = recover() }()
	var all []*Result
	for _, bench := range workload.MicrobenchmarkNames() {
		for _, v := range []struct{ idt, pf bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			p, err := workload.Microbenchmarks()[bench](workload.Spec{Threads: 8, OpsPerThread: 15, Seed: 42})
			if err != nil {
				panic(err)
			}
			cfg := DefaultConfig()
			cfg.Cores, cfg.Model, cfg.IDT, cfg.PF = 8, LB, v.idt, v.pf
			m, err := New(cfg)
			if err != nil {
				panic(err)
			}
			if plant != nil {
				plant(m)
			}
			if err := m.Load(p); err != nil {
				panic(err)
			}
			r, err := m.Run()
			if err != nil {
				panic(err)
			}
			if r.Deadlocked {
				panic(fmt.Sprintf("%s under %s deadlocked", bench, cfg.BarrierName()))
			}
			all = append(all, r)
		}
	}
	return stats.MustFingerprint(all), nil
}

// TestPlantedEarlyFlushRelease tests the tester: the frames' lifetime rule
// (flush.go) is only as good as the goldens' ability to notice a frame
// released while a continuation on it is still scheduled. The plant returns
// a flushOp to its free list when the last BankAck is sent, a mesh
// crossing before it arrives; the quick grid must notice at once — the
// late BankAck finds the frame's pointers cleared and panics, or finds the
// next flush in it and moves a fingerprint.
func TestPlantedEarlyFlushRelease(t *testing.T) {
	requireCaught(t, "a flushOp released before its last BankAck arrived", func(m *Machine) {
		m.plantEarlyFlushRelease = true
	})
}

// TestPlantedShortRing tests the tester for epoch naming: every wait and
// every in-flight write names its epoch by ID, which is sound only if a
// ring slot is reused after its epoch persisted, never before. The plant
// makes each core's ring one slot short of the in-flight limit, so the
// eighth epoch in flight reopens the slot of the oldest; the quick grid
// must notice at once.
func TestPlantedShortRing(t *testing.T) {
	requireCaught(t, "an epoch slot reused before its epoch persisted", func(m *Machine) {
		for _, c := range m.cores {
			c.table.PlantShortRing()
		}
	})
}

// requireCaught runs the quick grid clean, twice, then with plant, and
// fails unless the planted grid panics, deadlocks or moves a fingerprint,
// within 5 s.
func requireCaught(t *testing.T, bug string, plant func(*Machine)) {
	t.Helper()
	clean, p := runQuickGrid(nil)
	if p != nil {
		t.Fatalf("clean grid panicked: %v", p)
	}
	if again, _ := runQuickGrid(nil); again != clean {
		t.Fatalf("clean grid is not deterministic: %.12s then %.12s", clean, again)
	}
	start := time.Now()
	planted, p := runQuickGrid(plant)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the planted grid took %v to give its verdict, want under 5s", took)
	}
	switch {
	case p != nil:
		t.Logf("caught in %v: panic: %v", time.Since(start), p)
	case planted != clean:
		t.Logf("caught in %v: fingerprint %.12s, clean %.12s", time.Since(start), planted, clean)
	default:
		t.Fatalf("%s went unnoticed", bug)
	}
}
