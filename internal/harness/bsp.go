package harness

import (
	"fmt"
	"strings"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/workload"
)

// RunFig13 executes the epoch-size study behind Figure 13: every app model
// under NP and under the unoptimized LB barrier at each of
// opt.EpochSizes dynamic stores per hardware epoch (columns "LB<size>").
func RunFig13(opt Options) (*Grid, error) {
	if len(opt.EpochSizes) == 0 {
		return nil, fmt.Errorf("harness: no epoch sizes configured")
	}
	cols := []string{"NP"}
	sizes := map[string]int{}
	for _, size := range opt.EpochSizes {
		col := fmt.Sprintf("LB%d", size)
		cols = append(cols, col)
		sizes[col] = size
	}
	return runGrid(opt, workload.AppNames(), cols, func(app, col string) Job {
		if col == "NP" {
			return appJob(app, opt, config(opt.Threads, "NP"))
		}
		return appJob(app, opt, bspConfig(config(opt.Threads, "LB"), sizes[col], true))
	})
}

// Fig13Table renders Figure 13 from RunFig13's grid: execution time
// normalized to NP.
func Fig13Table(g *Grid) *stats.Table {
	return g.table("Figure 13: Execution time with varying epoch sizes, normalized to NP",
		append([]string{"app"}, g.Cols[1:]...), g.Cols[1:], "%.2f", relative("NP", execCycles), "gmean")
}

// BSPResults backs Figure 14: every app model under NP and under each
// BSPVariants barrier at the configured bulk epoch size. NP and Runs are
// the views of the grid's Results that benchmark/sim.go reads.
type BSPResults struct {
	*Grid
	NP   map[string]*machine.Result            // app -> NP run
	Runs map[string]map[string]*machine.Result // app -> variant -> run (= Results)
}

// RunFig14 executes the BSP barrier-variant study. LB++NOLOG is LB++
// without undo logging.
func RunFig14(opt Options) (*BSPResults, error) {
	g, err := runGrid(opt, workload.AppNames(), append([]string{"NP"}, BSPVariants...), func(app, col string) Job {
		if col == "NP" {
			return appJob(app, opt, config(opt.Threads, "NP"))
		}
		barrier, nolog := strings.CutSuffix(col, "NOLOG")
		return appJob(app, opt, bspConfig(config(opt.Threads, barrier), opt.BulkEpoch, !nolog))
	})
	if err != nil {
		return nil, err
	}
	out := &BSPResults{Grid: g, NP: make(map[string]*machine.Result), Runs: g.Results}
	for _, app := range g.Rows {
		out.NP[app] = g.Results[app]["NP"]
	}
	return out, nil
}

// Fig14Table renders Figure 14: execution time normalized to NP.
func (b *BSPResults) Fig14Table() *stats.Table {
	return b.table("Figure 14: BSP execution time normalized to NP",
		append([]string{"app"}, BSPVariants...), BSPVariants, "%.2f", relative("NP", execCycles), "gmean")
}

// InterConflictShare returns the fraction of (intra+inter) conflicts that
// were inter-thread across the suite for one variant — the paper's "a
// large number (86%) of conflicts are inter-thread conflicts" claim.
func (b *BSPResults) InterConflictShare(variant string) float64 {
	var intra, inter uint64
	for _, app := range b.Rows {
		c := b.Runs[app][variant].Conflicts
		intra += c.Intra
		inter += c.Inter
	}
	if intra+inter == 0 {
		return 0
	}
	return float64(inter) / float64(intra+inter)
}

// RunWriteThrough measures the naive write-through BSP design (WT)
// against NP on every app model: the §7.2 comparison (~8x NP).
func RunWriteThrough(opt Options) (*Grid, error) {
	return runGrid(opt, workload.AppNames(), []string{"NP", "WT"}, func(app, model string) Job {
		return appJob(app, opt, config(opt.Threads, model))
	})
}

// WriteThroughTable renders RunWriteThrough's grid: the write-through
// overhead per app and its gmean.
func WriteThroughTable(g *Grid) *stats.Table {
	return g.table("Naive write-through BSP: execution time normalized to NP (§7.2 text, ~8x)",
		[]string{"app", "WT/NP"}, []string{"WT"}, "%.2f", relative("NP", execCycles), "gmean")
}
