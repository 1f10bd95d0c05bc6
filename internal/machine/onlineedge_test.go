package machine

import (
	"slices"
	"testing"

	"persistbarriers/internal/recovery"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// wholePrivateStores rewrites p's stores to randomProgram's private
// regions (0x10000 and up) as whole-line stores.
func wholePrivateStores(p *trace.Program) *trace.Program {
	out := &trace.Program{}
	for _, ops := range p.Traces {
		ops = slices.Clone(ops)
		for i, op := range ops {
			if op.Kind() == trace.Store && op.Addr() >= 0x10000 {
				ops[i] = new(trace.Builder).StoreLine(op.Addr(), 0).Ops()[0]
			}
		}
		out.Traces = append(out.Traces, ops)
	}
	return out
}

// TestOnlineEdgeLandsAfterTheWait: under LB, a request that conflicts
// with another core's epoch waits for it to persist, and the ordering it
// enforces is recorded as an online edge. While it waits, a third core can
// split the requester's epoch, which then persists on its own; the edge
// must be on the epoch that performs the access, not on that one. With it
// on the split epoch, a crash between the two persists left an image where
// E1.9 is durable and its edge's source E2.14 is not (seed 3, private
// stores as whole lines, LB + PF, crash at cycle 5000). The sweep crashes
// LB and LB + PF runs of twelve programs every 500 cycles.
func TestOnlineEdgeLandsAfterTheWait(t *testing.T) {
	lbpf := testConfig(LB)
	lbpf.PF = true
	crashCheck(t, lbpf, wholePrivateStores(randomProgram(3, 4, 120, true)), 5000, false)

	images := 0
	for _, pf := range []bool{false, true} {
		cfg := testConfig(LB)
		cfg.PF = pf
		for seed := uint64(1); seed <= 12; seed++ {
			plain := randomProgram(seed, 4, 120, true)
			for _, p := range []*trace.Program{plain, wholePrivateStores(plain)} {
				for crash := sim.Cycle(500); crash <= 12000; crash += 500 {
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
					if err := recovery.CheckAll(r.Histories, r.Image, nil, false); err != nil {
						t.Fatalf("%s, seed %d, crash at %d: %v", cfg.BarrierName(), seed, crash, err)
					}
					images++
				}
			}
		}
	}
	t.Logf("%d crash images hold every edge", images)
}
