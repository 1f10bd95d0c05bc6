package workload

import (
	"fmt"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// AppProfile is a synthetic stand-in for one of the PARSEC/SPLASH-2/STAMP
// workloads the paper uses for bulk-mode BSP (Section 6). Each profile
// captures the characteristics that drive the BSP results: store
// intensity, inter-thread sharing density, footprint, spatial locality,
// and compute density. DESIGN.md documents this substitution.
type AppProfile struct {
	Name string
	// StoreRatio is the fraction of memory operations that are stores.
	StoreRatio float64
	// SharedFraction is the fraction of accesses that target the
	// process-shared region (inter-thread conflict pressure).
	SharedFraction float64
	// SharedLines and PrivateLines size the shared region and each
	// thread's private region, in cache lines.
	SharedLines  int
	PrivateLines int
	// Locality is the probability that the next access continues
	// sequentially in the current block instead of jumping.
	Locality float64
	// BlockLines is the sequential-run block length.
	BlockLines int
	// ComputePerOp is the mean compute between memory operations.
	ComputePerOp sim.Cycle
	// HotLines and HotFraction model the small per-thread working set
	// (metadata, counters, structure roots) that is re-written at short
	// intervals. Re-writes inside one hardware epoch coalesce; across
	// epochs they raise intra-thread conflicts — the mechanism behind the
	// Figure 13 epoch-size sensitivity.
	HotLines    int
	HotFraction float64
}

// Apps returns the nine BSP workload models keyed by the paper's names.
func Apps() map[string]AppProfile {
	profiles := []AppProfile{
		// PARSEC
		{Name: "canneal", StoreRatio: 0.35, SharedFraction: 0.40, SharedLines: 8192, PrivateLines: 2048, Locality: 0.30, BlockLines: 4, ComputePerOp: 6, HotLines: 96, HotFraction: 0.30},
		{Name: "dedup", StoreRatio: 0.30, SharedFraction: 0.25, SharedLines: 4096, PrivateLines: 2048, Locality: 0.60, BlockLines: 8, ComputePerOp: 8, HotLines: 80, HotFraction: 0.30},
		{Name: "freqmine", StoreRatio: 0.15, SharedFraction: 0.30, SharedLines: 4096, PrivateLines: 2048, Locality: 0.65, BlockLines: 8, ComputePerOp: 10, HotLines: 96, HotFraction: 0.20},
		// SPLASH-2
		{Name: "barnes", StoreRatio: 0.25, SharedFraction: 0.30, SharedLines: 4096, PrivateLines: 1024, Locality: 0.55, BlockLines: 6, ComputePerOp: 10, HotLines: 128, HotFraction: 0.20},
		{Name: "cholesky", StoreRatio: 0.30, SharedFraction: 0.15, SharedLines: 4096, PrivateLines: 2048, Locality: 0.80, BlockLines: 16, ComputePerOp: 8, HotLines: 144, HotFraction: 0.15},
		{Name: "radix", StoreRatio: 0.50, SharedFraction: 0.10, SharedLines: 8192, PrivateLines: 4096, Locality: 0.85, BlockLines: 32, ComputePerOp: 4, HotLines: 160, HotFraction: 0.10},
		// STAMP
		{Name: "intruder", StoreRatio: 0.35, SharedFraction: 0.50, SharedLines: 2048, PrivateLines: 1024, Locality: 0.40, BlockLines: 4, ComputePerOp: 6, HotLines: 64, HotFraction: 0.35},
		{Name: "ssca2", StoreRatio: 0.55, SharedFraction: 0.60, SharedLines: 2048, PrivateLines: 512, Locality: 0.25, BlockLines: 2, ComputePerOp: 4, HotLines: 48, HotFraction: 0.30},
		{Name: "vacation", StoreRatio: 0.30, SharedFraction: 0.45, SharedLines: 4096, PrivateLines: 1024, Locality: 0.45, BlockLines: 4, ComputePerOp: 8, HotLines: 72, HotFraction: 0.35},
	}
	m := make(map[string]AppProfile, len(profiles))
	for _, p := range profiles {
		m[p.Name] = p
	}
	return m
}

// AppNames returns the workloads in the paper's Figure 13/14 order.
func AppNames() []string {
	return []string{
		"canneal", "dedup", "freqmine",
		"barnes", "cholesky", "radix",
		"intruder", "ssca2", "vacation",
	}
}

// Generate builds the per-core trace for the profile. Spec.OpsPerThread is
// the number of memory operations each thread issues; the traces carry no
// persist barriers (bulk-mode hardware inserts them).
func (p AppProfile) Generate(spec Spec) (*trace.Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p.SharedLines <= 0 || p.PrivateLines <= 0 || p.BlockLines <= 0 {
		return nil, fmt.Errorf("workload: profile %q has non-positive region sizes", p.Name)
	}
	sharedBase := mem.Addr(0x6000_0000)
	return trace.Build(spec.Threads, func(bs []trace.Builder) {
		for t := range bs {
			r := threadRand(spec, t)
			privBase := mem.Addr(0x7000_0000) + mem.Addr(t)*mem.Addr(p.PrivateLines+256)*mem.LineSize + mem.Addr(t)*17*mem.LineSize
			b := &bs[t]

			// Per-region locality cursors.
			sharedPos := r.Intn(p.SharedLines)
			privPos := r.Intn(p.PrivateLines)

			for i := 0; i < spec.OpsPerThread; i++ {
				if p.ComputePerOp > 0 {
					b.Compute(sim.Cycle(r.Intn(int(p.ComputePerOp)*2 + 1)))
				}
				var addr mem.Addr
				if p.HotLines > 0 && r.Float64() < p.HotFraction {
					// Hot per-thread metadata line.
					addr = privBase + mem.Addr(p.PrivateLines+r.Intn(p.HotLines))*mem.LineSize
					if r.Float64() < p.StoreRatio {
						b.Store(addr)
					} else {
						b.Load(addr)
					}
					if (i+1)%100 == 0 {
						b.TxEnd()
					}
					continue
				}
				shared := r.Float64() < p.SharedFraction
				if shared {
					if r.Float64() < p.Locality {
						sharedPos = (sharedPos + 1) % p.SharedLines
					} else {
						sharedPos = (r.Intn(p.SharedLines/p.BlockLines)*p.BlockLines + r.Intn(p.BlockLines)) % p.SharedLines
					}
					addr = sharedBase + mem.Addr(sharedPos)*mem.LineSize
				} else {
					if r.Float64() < p.Locality {
						privPos = (privPos + 1) % p.PrivateLines
					} else {
						privPos = (r.Intn(p.PrivateLines/p.BlockLines)*p.BlockLines + r.Intn(p.BlockLines)) % p.PrivateLines
					}
					addr = privBase + mem.Addr(privPos)*mem.LineSize
				}
				if r.Float64() < p.StoreRatio {
					b.Store(addr)
				} else {
					b.Load(addr)
				}
				if (i+1)%100 == 0 {
					b.TxEnd()
				}
			}
		}
	}), nil
}
