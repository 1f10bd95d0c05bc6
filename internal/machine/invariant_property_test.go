package machine

import (
	"fmt"
	"testing"

	"persistbarriers/internal/recovery"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// propertyEngines is every barrier engine the machine implements, in the
// order DESIGN §5 lists the models: the three non-epoch baselines, the
// unbuffered epoch barrier, and the four LB variants.
var propertyEngines = []struct {
	name    string
	model   Model
	idt, pf bool
}{
	{"NP", NP, false, false},
	{"SP", SP, false, false},
	{"WT", WT, false, false},
	{"EP", EP, false, false},
	{"LB", LB, false, false},
	{"LB+IDT", LB, true, false},
	{"LB+PF", LB, false, true},
	{"LB++", LB, true, true},
}

// TestInvariantsUnderRandomInterleavings property-tests DESIGN §5
// invariants 1 and 2 across all 8 barrier engines: for randomized
// multi-threaded trace interleavings crashed at pseudorandom instants,
//
//  1. epoch order — no line of epoch E2 is durable before every line of
//     any happens-before predecessor E1 (recovery.CheckOrdering), and
//  2. crash prefix-closure — the epoch set the hardware declared
//     persisted is downward-closed under happens-before and fully
//     durable (recovery.CheckPersistedClosed).
//
// Engines without epoch machinery (NP, SP, WT) have empty histories, for
// which the checks hold vacuously; for them (and everyone else) we also
// assert the image never holds a version newer than the newest written —
// a persist can lag the store stream but never invent the future.
// 8 engines x 5 seeds x 5 crash instants = 200 table-driven cases.
func TestInvariantsUnderRandomInterleavings(t *testing.T) {
	const (
		seeds   = 5
		crashes = 5
	)
	for _, eng := range propertyEngines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			cfg := testConfig(eng.model)
			cfg.IDT, cfg.PF = eng.idt, eng.pf
			for seed := uint64(1); seed <= seeds; seed++ {
				p := randomProgram(seed*31+uint64(eng.model), 4, 100, true)
				// Crash instants are drawn per (engine, seed) so the suite
				// explores different cut points of different interleavings.
				r := trace.NewRand(seed ^ 0xabcdef<<uint(eng.model))
				for c := 0; c < crashes; c++ {
					crash := sim.Cycle(300 + r.Intn(60000))
					checkInvariants(t, cfg, p, crash, fmt.Sprintf("%s/seed=%d/crash=%d", eng.name, seed, crash))
				}
			}
		})
	}
}

// checkInvariants crashes one run and applies the §5 invariant checks.
func checkInvariants(t *testing.T, cfg Config, p *trace.Program, crash sim.Cycle, label string) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	r, err := m.RunUntil(crash)
	if err != nil {
		t.Fatal(err)
	}
	g := recovery.NewGraph(r.Histories)
	if err := recovery.CheckOrdering(g, r.Image); err != nil {
		t.Fatalf("%s: invariant 1 (epoch order): %v", label, err)
	}
	if err := recovery.CheckPersistedClosed(g, r.Image); err != nil {
		t.Fatalf("%s: invariant 2 (prefix closure): %v", label, err)
	}
	for line, durable := range r.Image {
		if latest, ok := r.Latest[line]; !ok || durable > latest {
			t.Fatalf("%s: line %v durable version %d exceeds latest written %d",
				label, line, durable, r.Latest[line])
		}
	}
}

// TestInvariantsBulkBSPPrefixAndAtomicity extends invariant 2 to the
// bulk-mode BSP engine with hardware undo logging: after rollback the
// recovered image must reflect whole epochs only. This is the rollback
// half of DESIGN §5 invariant 2, property-tested over random
// interleavings without programmer barriers (bulk mode inserts its own).
func TestInvariantsBulkBSPPrefixAndAtomicity(t *testing.T) {
	cfg := testConfig(LB)
	cfg.IDT, cfg.PF = true, true
	cfg.Logging = true
	cfg.BulkEpochStores = 16
	cfg.CheckpointLines = 2
	for seed := uint64(1); seed <= 4; seed++ {
		p := randomProgram(seed*137, 4, 120, false)
		r := trace.NewRand(seed * 9176)
		for c := 0; c < 3; c++ {
			crash := sim.Cycle(500 + r.Intn(40000))
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Load(p); err != nil {
				t.Fatal(err)
			}
			res, err := m.RunUntil(crash)
			if err != nil {
				t.Fatal(err)
			}
			if err := recovery.CheckAll(res.Histories, res.Image, res.UndoLog, true); err != nil {
				t.Fatalf("bulk/seed=%d/crash=%d: %v", seed, crash, err)
			}
		}
	}
}
