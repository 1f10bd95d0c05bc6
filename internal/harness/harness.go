// Package harness runs the paper's experiments end to end: it builds
// machines, generates workloads, sweeps parameters, and renders tables
// whose rows correspond to the bars of each figure in the evaluation
// (Section 7). Every study is a Grid of workloads × machine
// configurations, run as one sweep and rendered by one table function;
// the hand-written kernels of Figures 1, 4 and 7 are one-row grids.
// cmd/figures exposes every figure and table on the command line.
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
	// simulations run concurrently inside each Run* entry point. <= 0
	// means GOMAXPROCS. Results are identical at any setting — runs are
	// independent and collected in submission order.
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

// config builds the default machine with threads cores under the named
// barrier (machine.Config.SetBarrier). Every name the harness passes is
// one of its own constants, so an unknown one is a programming error.
func config(threads int, barrier string) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = threads
	if err := cfg.SetBarrier(barrier); err != nil {
		panic(err)
	}
	return cfg
}

// bspConfig turns an LB-family machine into a bulk-mode BSP one (§5.2):
// hardware-inserted barriers every epochStores dynamic stores, register
// checkpointing, and undo logging unless disabled.
func bspConfig(cfg machine.Config, epochStores int, logging bool) machine.Config {
	cfg.BulkEpochStores = epochStores
	cfg.Logging = logging
	cfg.CheckpointLines = 4
	return cfg
}

// kernelJob builds one sweep job over a hand-written kernel (Figures 1, 4
// and 7).
func kernelJob(cfg machine.Config, kernel func() *trace.Program) Job {
	return Job{Cfg: cfg, Gen: func() (*trace.Program, error) { return kernel(), nil }}
}

// microJob builds one sweep job over a micro-benchmark trace. Gen
// generates the program when the job runs, so no two runs share a trace
// and a sweep holds only the programs of the runs in flight.
func microJob(bench string, opt Options, cfg machine.Config) Job {
	return Job{Cfg: cfg, Gen: func() (*trace.Program, error) {
		gen, ok := workload.Microbenchmarks()[bench]
		if !ok {
			return nil, fmt.Errorf("harness: unknown micro-benchmark %q", bench)
		}
		return gen(workload.Spec{Threads: opt.Threads, OpsPerThread: opt.MicroOps, Seed: opt.Seed})
	}}
}

// appJob builds one sweep job over a BSP app-model trace.
func appJob(app string, opt Options, cfg machine.Config) Job {
	return Job{Cfg: cfg, Gen: func() (*trace.Program, error) {
		prof, ok := workload.Apps()[app]
		if !ok {
			return nil, fmt.Errorf("harness: unknown app %q", app)
		}
		return prof.Generate(workload.Spec{Threads: opt.Threads, OpsPerThread: opt.AppOps, Seed: opt.Seed})
	}}
}
