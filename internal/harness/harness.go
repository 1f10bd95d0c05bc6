// Package harness runs the paper's experiments end to end: it builds
// machines, generates workloads, sweeps parameters, and renders tables
// whose rows correspond to the bars of each figure in the evaluation
// (Section 7). Every figure and table of the paper has a RunFigN /
// TableN entry point here; cmd/figures exposes them on the command line.
package harness

import (
	"fmt"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

// Options scales the experiments. The paper's full-size parameters (32
// cores, epochs of 300/1K/10K dynamic stores) are the defaults; tests and
// quick runs scale them down.
type Options struct {
	// Threads is the core/thread count (paper: 32).
	Threads int
	// MicroOps is data-structure transactions per thread for the BEP
	// micro-benchmarks.
	MicroOps int
	// AppOps is memory operations per thread for the BSP app models.
	AppOps int
	// EpochSizes is the Figure 13 sweep (dynamic stores per hardware
	// epoch).
	EpochSizes []int
	// BulkEpoch is the hardware epoch size for Figure 14 (paper: 10000,
	// "as this is what gave the best results").
	BulkEpoch int
	// Seed drives workload generation.
	Seed uint64

	// Parallelism is the sweep worker-pool size: how many independent
	// simulations run concurrently inside each RunFig*/RunAblations
	// entry point. <= 0 means GOMAXPROCS. Results are identical at any
	// setting — runs are independent and collected in submission order.
	Parallelism int
	// VerifyDeterminism re-executes every sweep job serially and fails
	// on any divergence from the pooled run (see SweepOptions).
	VerifyDeterminism bool
}

// Defaults returns the paper-faithful option set. A full figure
// regeneration at these sizes takes a few minutes of host CPU.
func Defaults() Options {
	return Options{
		Threads:    32,
		MicroOps:   40,
		AppOps:     12000,
		EpochSizes: []int{300, 1000, 10000},
		BulkEpoch:  10000,
		Seed:       42,
	}
}

// Quick returns a scaled-down option set for tests and smoke runs. The
// epoch sweep is scaled with the shorter traces so every size still closes
// multiple epochs per thread.
func Quick() Options {
	return Options{
		Threads:    8,
		MicroOps:   15,
		AppOps:     2500,
		EpochSizes: []int{30, 100, 1000},
		BulkEpoch:  250,
		Seed:       42,
	}
}

func (o Options) validate() error {
	if o.Threads <= 0 || o.Threads > 32 {
		return fmt.Errorf("harness: Threads must be in 1..32, got %d", o.Threads)
	}
	if o.MicroOps <= 0 || o.AppOps <= 0 {
		return fmt.Errorf("harness: op counts must be positive")
	}
	if o.BulkEpoch <= 0 {
		return fmt.Errorf("harness: BulkEpoch must be positive")
	}
	for _, size := range o.EpochSizes {
		if size <= 0 {
			return fmt.Errorf("harness: EpochSizes must be positive, got %d", size)
		}
	}
	return nil
}

// Variant names in the paper's figure order.
var (
	// BEPVariants are the Figure 11/12 bars.
	BEPVariants = []string{"LB", "LB+IDT", "LB+PF", "LB++"}
	// BSPVariants are the Figure 14 bars.
	BSPVariants = []string{"LB", "LB+IDT", "LB++", "LB++NOLOG"}
)

// bepConfig builds the machine for a buffered-epoch-persistency run.
func bepConfig(threads int, idt, pf bool) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = threads
	cfg.Model = machine.LB
	cfg.IDT = idt
	cfg.PF = pf
	return cfg
}

// variantFlags maps a variant name to its IDT/PF switches.
func variantFlags(name string) (idt, pf bool, err error) {
	switch name {
	case "LB":
		return false, false, nil
	case "LB+IDT":
		return true, false, nil
	case "LB+PF":
		return false, true, nil
	case "LB++", "LB++NOLOG":
		return true, true, nil
	default:
		return false, false, fmt.Errorf("harness: unknown variant %q", name)
	}
}

// kernelJob builds one sweep job over a hand-written kernel (Figures 1, 4
// and 7).
func kernelJob(key string, cfg machine.Config, kernel func() *trace.Program) Job {
	return Job{Key: key, Cfg: cfg, Gen: func() (*trace.Program, error) { return kernel(), nil }}
}

// microProgram generates a micro-benchmark's program. Jobs call it from
// Gen when they run, so no two runs share a trace and a sweep holds only
// the programs of the runs in flight.
func microProgram(name string, opt Options) (*trace.Program, error) {
	gen, ok := workload.Microbenchmarks()[name]
	if !ok {
		return nil, fmt.Errorf("harness: unknown micro-benchmark %q", name)
	}
	return gen(workload.Spec{Threads: opt.Threads, OpsPerThread: opt.MicroOps, Seed: opt.Seed})
}

// appProgram regenerates a BSP app-model trace.
func appProgram(name string, opt Options) (*trace.Program, error) {
	prof, ok := workload.Apps()[name]
	if !ok {
		return nil, fmt.Errorf("harness: unknown app %q", name)
	}
	return prof.Generate(workload.Spec{Threads: opt.Threads, OpsPerThread: opt.AppOps, Seed: opt.Seed})
}

// microJob builds one sweep job over a micro-benchmark trace.
func microJob(key, bench string, opt Options, cfg machine.Config) Job {
	return Job{
		Key: key,
		Cfg: cfg,
		Gen: func() (*trace.Program, error) { return microProgram(bench, opt) },
	}
}

// appJob builds one sweep job over a BSP app-model trace.
func appJob(key, app string, opt Options, cfg machine.Config) Job {
	return Job{
		Key: key,
		Cfg: cfg,
		Gen: func() (*trace.Program, error) { return appProgram(app, opt) },
	}
}
