package harness

import (
	"fmt"
	"strconv"
	"strings"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/workload"
)

// ablationCols are the design-choice configurations DESIGN.md calls out,
// each named knob=setting: IDT register pairs, in-flight epoch window,
// posted-store write-buffer depth, and per-core arbiters (the paper's
// design) vs one global arbiter serializing all flushes (§4.1's
// bottleneck). Each is LB++ at the default sizing with one knob moved;
// "base", plain LB, is the baseline every table normalizes to.
var ablationCols = []string{
	"base",
	"depregs=0", "depregs=1", "depregs=4", "depregs=16",
	"window=2", "window=4", "window=8", "window=32",
	"writebuffer=0", "writebuffer=8", "writebuffer=32", "writebuffer=128",
	"arbiter=percore", "arbiter=global",
}

// ablationConfig builds the machine one ablation column names.
func ablationConfig(threads int, col string) machine.Config {
	if col == "base" {
		return config(threads, "LB")
	}
	cfg := config(threads, "LB++")
	knob, setting, _ := strings.Cut(col, "=")
	n, _ := strconv.Atoi(setting)
	switch knob {
	case "depregs":
		cfg.Epoch.DepRegs = n
	case "window":
		cfg.Epoch.MaxInFlight = n
	case "writebuffer":
		cfg.WriteBuffer = n
	case "arbiter":
		cfg.GlobalArbiter = setting == "global"
	}
	return cfg
}

// RunAblations executes the design-choice sweeps: every micro-benchmark
// under every ablation column, as one sweep.
func RunAblations(opt Options) (*Grid, error) {
	return runGrid(opt, workload.MicrobenchmarkNames(), ablationCols, func(bench, col string) Job {
		return microJob(bench, opt, ablationConfig(opt.Threads, col))
	})
}

// AblationTables renders RunAblations' grid, one table per knob: each
// setting's gmean throughput normalized to base, plus the suite's
// register-full fallbacks for the IDT registers.
func AblationTables(g *Grid) []*stats.Table {
	vsLB := relative("base", (*machine.Result).Throughput)
	labels := map[string]string{"percore": "per-core (paper)", "global": "single global"}
	var tables []*stats.Table
	for _, k := range []struct{ knob, title, header string }{
		{"depregs", "Ablation: IDT dependence registers per epoch (LB++ vs LB gmean throughput)", "regs"},
		{"window", "Ablation: in-flight epoch window (LB++ vs LB gmean throughput)", "window"},
		{"writebuffer", "Ablation: posted-store write buffer (LB++ vs LB gmean throughput)", "entries"},
		{"arbiter", "Ablation: flush arbiter placement (LB++ vs LB gmean throughput, §4.1)", "arbiter"},
	} {
		headers := []string{k.header, "gmean vs LB"}
		if k.knob == "depregs" {
			headers = append(headers, "register-full fallbacks")
		}
		t := stats.NewTable(k.title, headers...)
		for _, col := range g.Cols {
			knob, setting, _ := strings.Cut(col, "=")
			if knob != k.knob {
				continue
			}
			if l, ok := labels[setting]; ok {
				setting = l
			}
			cells := []string{setting, fmt.Sprintf("%.3f", stats.Gmean(g.column(col, vsLB)))}
			if k.knob == "depregs" {
				var n uint64
				for _, bench := range g.Rows {
					n += g.Results[bench][col].Conflicts.IDTFallbacks
				}
				cells = append(cells, fmt.Sprintf("%d", n))
			}
			t.AddRow(cells...)
		}
		tables = append(tables, t)
	}
	return tables
}
