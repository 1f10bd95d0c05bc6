package harness

import (
	"persistbarriers/internal/cache"
	"persistbarriers/internal/epoch"
	"persistbarriers/internal/machine"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/workload"
)

// RunBEP executes the buffered-epoch-persistency study behind Figures 11
// and 12 (Section 7.1): every micro-benchmark under every BEPVariants
// barrier.
func RunBEP(opt Options) (*Grid, error) {
	return runGrid(opt, workload.MicrobenchmarkNames(), BEPVariants, func(bench, variant string) Job {
		return microJob(bench, opt, config(opt.Threads, variant))
	})
}

// conflicting is the percentage of a run's persisted epochs flushed
// because of a conflict: one bar of Figure 12.
func conflicting(row map[string]*machine.Result, col string) float64 {
	return row[col].Epochs.ConflictingFraction() * 100
}

// Fig11Table renders Figure 11 from RunBEP's grid: transaction throughput
// normalized to LB.
func Fig11Table(g *Grid) *stats.Table {
	return g.table("Figure 11: Transaction throughput normalized to LB (BEP micro-benchmarks)",
		append([]string{"bench"}, g.Cols...), g.Cols, "%.3f", relative("LB", (*machine.Result).Throughput), "gmean")
}

// Fig12Table renders Figure 12 from RunBEP's grid: percentage of
// conflicting epochs.
func Fig12Table(g *Grid) *stats.Table {
	return g.table("Figure 12: Percentage of conflicting epochs (out of all persisted epochs)",
		append([]string{"bench"}, g.Cols...), g.Cols, "%.1f", conflicting, "amean")
}

// ConflictKindsTable breaks epoch-flush causes down per variant over
// RunBEP's grid — the §7.2 "86% of conflicts are inter-thread" style
// analysis, applied to the BEP runs.
func ConflictKindsTable(g *Grid) *stats.Table {
	t := stats.NewTable(
		"Epoch flush causes (suite totals, % of persisted epochs)",
		"variant", "intra", "inter", "eviction", "pressure", "proactive", "natural", "drain")
	for _, v := range g.Cols {
		var agg machine.EpochAggregate
		for _, bench := range g.Rows {
			e := g.Results[bench][v].Epochs
			agg.Persisted += e.Persisted
			for i := range e.ByCause {
				agg.ByCause[i] += e.ByCause[i]
			}
		}
		pct := func(c epoch.FlushCause) float64 {
			if agg.Persisted == 0 {
				return 0
			}
			return 100 * float64(agg.ByCause[c]) / float64(agg.Persisted)
		}
		t.AddF(v, "%.1f",
			pct(epoch.CauseIntra), pct(epoch.CauseInter), pct(epoch.CauseEviction),
			pct(epoch.CausePressure), pct(epoch.CauseProactive), pct(epoch.CauseNatural),
			pct(epoch.CauseDrain))
	}
	return t
}

// RunFlushMode runs the §7 invalidating-vs-non-invalidating study ("using
// a non-invalidating flush is significantly faster, around 30%"): every
// micro-benchmark under LB++ with clwb-style and clflush-style persists.
func RunFlushMode(opt Options) (*Grid, error) {
	return runGrid(opt, workload.MicrobenchmarkNames(), []string{"clwb", "clflush"}, func(bench, mode string) Job {
		cfg := config(opt.Threads, "LB++")
		if mode == "clflush" {
			cfg.FlushMode = cache.Invalidating
		}
		return microJob(bench, opt, cfg)
	})
}

// FlushModeTable renders RunFlushMode's grid: clwb throughput normalized
// to clflush per benchmark.
func FlushModeTable(g *Grid) *stats.Table {
	return g.table("Flush-mode study: clwb (non-invalidating) throughput normalized to clflush",
		[]string{"bench", "clwb/clflush"}, []string{"clwb"}, "%.3f", relative("clflush", (*machine.Result).Throughput), "gmean")
}
