// Command persistsim runs one simulation: a chosen workload on a chosen
// persist-barrier configuration, printing the run summary. It is the
// exploratory front end to the library; cmd/figures reproduces the paper's
// full evaluation.
//
// Observability: -trace writes a Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing to see per-core epoch spans, per-bank
// flush spans, and conflict markers on the simulated-cycle timebase);
// -metrics writes, per -window cycles, how much each of the machine's
// counters moved (CSV, or JSON when the path ends in .json), one column
// per machine.Families sample, named as pmkvd's /metrics names them; -json
// prints the run summary as machine-readable JSON on stdout. Failure
// diagnostics go to stderr so stdout stays parseable.
//
// Every invocation is a sweep of -repeat N runs (default 1) with seeds
// seed, seed+1, ..., seed+N-1 fanned across the -j worker pool (the
// harness sweep engine). One run prints the full summary, or one JSON
// document with -json; more print one summary line per run in seed order,
// or a JSON array. Observability exports stay per-run: with
// -trace/-metrics each run gets its own private tracer and windows and,
// when N > 1, its own output file (a ".seedN" suffix is inserted before
// the extension), so concurrent machines never share one.
//
// Examples:
//
//	persistsim -workload queue -barrier LB++ -threads 32 -ops 100
//	persistsim -workload queue -barrier LB++ -trace out.json -metrics out.csv -window 5000
//	persistsim -workload ssca2 -barrier LB -bulk 10000 -logging -ops 20000
//	persistsim -workload hash -barrier NP -json
//	persistsim -workload queue -barrier LB++ -repeat 8 -j 4 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"persistbarriers/internal/harness"
	"persistbarriers/internal/machine"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/profiling"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "queue", "workload: hash|queue|rbtree|sdg|sps or a BSP app (canneal, ssca2, ...)")
		barrier = flag.String("barrier", "LB++", "barrier/model: NP|SP|WT|EP|LB|LB+IDT|LB+PF|LB++")
		threads = flag.Int("threads", 8, "threads/cores (1..32)")
		ops     = flag.Int("ops", 50, "operations per thread (transactions for micro-benchmarks, memory ops for apps)")
		seed    = flag.Uint64("seed", 42, "workload seed")
		bulk    = flag.Int("bulk", 0, "bulk-mode BSP: hardware epoch size in stores (0 = programmer barriers)")
		logging = flag.Bool("logging", false, "enable hardware undo logging (bulk mode)")
		verbose = flag.Bool("v", false, "print per-cause stall and conflict breakdown")

		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-viewable) to this file")
		metricsOut = flag.String("metrics", "", "write cycle-windowed metrics to this file (CSV, or JSON if it ends in .json)")
		window     = flag.Uint64("window", 10000, "metrics window size in cycles")
		jsonOut    = flag.Bool("json", false, "print the run summary as JSON on stdout")
		repeat     = flag.Int("repeat", 1, "run N times with seeds seed..seed+N-1 (one summary per run)")
		parallel   = flag.Int("j", runtime.GOMAXPROCS(0), "worker-pool size for -repeat runs")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (pprof) to this file on exit")
	)
	flag.Parse()
	if err := profiling.Start(*cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "persistsim:", err)
		profiling.Exit(1)
	}
	defer profiling.Stop()

	// Reject bad inputs before any machine or worker pool is built.
	if *threads < 1 || *threads > 32 {
		fmt.Fprintf(os.Stderr, "persistsim: -threads must be in 1..32, got %d\n", *threads)
		profiling.Exit(2)
	}
	if *ops < 1 {
		fmt.Fprintf(os.Stderr, "persistsim: -ops must be >= 1, got %d\n", *ops)
		profiling.Exit(2)
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "persistsim: -j must be >= 1, got %d\n", *parallel)
		profiling.Exit(2)
	}
	if *bulk < 0 {
		fmt.Fprintf(os.Stderr, "persistsim: -bulk must be >= 0, got %d\n", *bulk)
		profiling.Exit(2)
	}
	if *logging && *bulk == 0 {
		fmt.Fprintln(os.Stderr, "persistsim: -logging requires -bulk (undo logging belongs to hardware epochs)")
		profiling.Exit(2)
	}
	if *repeat < 1 {
		fmt.Fprintf(os.Stderr, "persistsim: -repeat must be >= 1, got %d\n", *repeat)
		profiling.Exit(2)
	}
	if *window < 1 {
		fmt.Fprintln(os.Stderr, "persistsim: -window must be >= 1")
		profiling.Exit(2)
	}

	cfg := machine.DefaultConfig()
	cfg.Cores = *threads
	if err := cfg.SetBarrier(strings.ToUpper(*barrier)); err != nil {
		fmt.Fprintf(os.Stderr, "persistsim: unknown barrier %q\n", *barrier)
		profiling.Exit(2)
	}
	if *bulk > 0 {
		if cfg.Model != machine.LB {
			fmt.Fprintln(os.Stderr, "persistsim: -bulk requires an LB-family barrier")
			profiling.Exit(2)
		}
		cfg.BulkEpochStores = *bulk
		cfg.Logging = *logging
	}
	gen, isMicro := workload.Microbenchmarks()[*wl]
	prof, isApp := workload.Apps()[*wl]
	if !isMicro && !isApp {
		fmt.Fprintf(os.Stderr, "persistsim: unknown workload %q\n", *wl)
		profiling.Exit(2)
	}

	// One sweep job per seed, -repeat 1 included. Each job gets its own
	// machine config and, when exporting, its own tracer and windows:
	// machines run concurrently and a stream shared across runs would
	// interleave.
	type run struct {
		spec    workload.Spec
		prog    *trace.Program // what Gen last generated
		tracer  *obs.ChromeTracer
		metrics *windows
	}
	runs := make([]run, *repeat)
	jobs := make([]harness.Job, *repeat)
	for i := range runs {
		rn := &runs[i]
		rn.spec = workload.Spec{Threads: *threads, OpsPerThread: *ops, Seed: *seed + uint64(i)}
		jobs[i] = harness.Job{
			Key: fmt.Sprintf("%s/seed=%d", *wl, rn.spec.Seed),
			Cfg: cfg,
			Gen: func() (p *trace.Program, err error) {
				if isMicro {
					p, err = gen(rn.spec)
				} else {
					p, err = prof.Generate(rn.spec)
				}
				rn.prog = p
				return p, err
			},
		}
		if *traceOut != "" {
			rn.tracer = obs.NewChromeTracer()
			jobs[i].Cfg.Probe = obs.NewProbe(rn.tracer)
		}
		if *metricsOut != "" {
			rn.metrics = &windows{window: sim.Cycle(*window)}
			jobs[i].Window, jobs[i].Each = rn.metrics.window, rn.metrics.observe
		}
	}
	results, err := harness.Sweep(jobs, harness.SweepOptions{Parallelism: *parallel, AllowDeadlock: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "persistsim:", err)
		profiling.Exit(1)
	}

	// A lone run writes the file it was given; a repeat tags each with its
	// seed.
	exportPath := func(path string, seed uint64) string {
		if *repeat == 1 {
			return path
		}
		return seedPath(path, seed)
	}
	deadlocked := false
	var summaries []runSummary
	for i, r := range results {
		rn := &runs[i]
		// Exports are written even for deadlocked runs — a trace of the
		// cycle the machine wedged at is exactly the debugging artifact.
		if rn.tracer != nil {
			if err := writeFile(exportPath(*traceOut, rn.spec.Seed), rn.tracer.Export); err != nil {
				fmt.Fprintln(os.Stderr, "persistsim:", err)
				profiling.Exit(1)
			}
		}
		if rn.metrics != nil {
			export := rn.metrics.writeCSV
			if strings.HasSuffix(*metricsOut, ".json") {
				export = rn.metrics.writeJSON
			}
			if err := writeFile(exportPath(*metricsOut, rn.spec.Seed), export); err != nil {
				fmt.Fprintln(os.Stderr, "persistsim:", err)
				profiling.Exit(1)
			}
		}
		if r.Deadlocked {
			// Diagnostics go to stderr so stdout stays machine-parseable.
			deadlocked = true
			fmt.Fprintf(os.Stderr, "persistsim: seed %d DEADLOCKED (see §3.3 — enable splitting or fix barrier placement)\n", rn.spec.Seed)
		}
		switch {
		case *jsonOut:
			summaries = append(summaries, buildSummary(*wl, rn.spec, rn.prog, cfg, r))
		case *repeat == 1:
			printRun(*wl, rn.spec, rn.prog, cfg, r, *verbose)
		default:
			status := ""
			if r.Deadlocked {
				status = "  DEADLOCKED"
			}
			fmt.Printf("seed %-6d %s  %12d cycles  %6d tx (%.3f/kcyc)  %6d epochs  %5.1f%% conflicting%s\n",
				rn.spec.Seed, r.Barrier, uint64(r.ExecCycles), r.Transactions, r.Throughput(),
				r.Epochs.Persisted, 100*r.Epochs.ConflictingFraction(), status)
			if *verbose {
				fmt.Printf("           conflicts: %d intra, %d inter, %d eviction; %d line persists\n",
					r.Conflicts.Intra, r.Conflicts.Inter, r.Conflicts.Eviction, r.PersistedLines)
			}
		}
	}
	if *jsonOut {
		// One run is a document, a repeat an array of them.
		var doc any = summaries
		if *repeat == 1 {
			doc = &summaries[0]
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "persistsim:", err)
			profiling.Exit(1)
		}
	}
	if deadlocked {
		profiling.Exit(1)
	}
}

// printRun renders one run's text summary; a deadlocked run has no
// numbers past its configuration.
func printRun(wl string, spec workload.Spec, p *trace.Program, cfg machine.Config, r *machine.Result, verbose bool) {
	fmt.Printf("workload:        %s (%d threads x %d ops, %d trace ops, %d stores)\n",
		wl, spec.Threads, spec.OpsPerThread, p.Ops(), p.Stores())
	fmt.Printf("barrier:         %s", r.Barrier)
	if cfg.BulkEpochStores > 0 {
		fmt.Printf(" (bulk BSP, %d stores/epoch, logging=%v)", cfg.BulkEpochStores, cfg.Logging)
	}
	fmt.Println()
	if r.Deadlocked {
		return
	}
	fmt.Printf("exec cycles:     %d (drain at %d)\n", r.ExecCycles, r.DrainCycles)
	fmt.Printf("transactions:    %d (%.3f per kilocycle)\n", r.Transactions, r.Throughput())
	fmt.Printf("epochs:          %d persisted, %.1f%% conflicting, %d IDT deps, %d splits\n",
		r.Epochs.Persisted, 100*r.Epochs.ConflictingFraction(), r.Epochs.Deps, r.Epochs.Splits)
	fmt.Printf("conflicts:       %d intra, %d inter, %d eviction (%d IDT fallbacks)\n",
		r.Conflicts.Intra, r.Conflicts.Inter, r.Conflicts.Eviction, r.Conflicts.IDTFallbacks)
	fmt.Printf("NVRAM:           %d line persists, %d log writes, %d reads\n",
		r.PersistedLines, r.LogWrites, r.MC.Reads)
	fmt.Printf("caches:          L1 %.1f%% hit, LLC %.1f%% hit\n",
		stats.HitPct(r.L1.Hits, r.L1.Misses), stats.HitPct(r.LLC.Hits, r.LLC.Misses))
	if verbose {
		fmt.Println("stalls (cycles summed over cores):")
		for cause := machine.StallIntra; cause <= machine.StallWriteBuffer; cause++ {
			fmt.Printf("  %-14s %d\n", cause, r.StallTotal(cause))
		}
	}
}

// seedPath inserts a ".seedN" tag before the path's extension so per-run
// exports of a repeat sweep never collide.
func seedPath(path string, seed uint64) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.seed%d%s", strings.TrimSuffix(path, ext), seed, ext)
}

// writeFile creates path and streams export into it.
func writeFile(path string, export func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSummary is the -json schema: one flat document with the same
// numbers the text summary prints, plus the per-cause stall breakdown.
type runSummary struct {
	Workload     string `json:"workload"`
	Barrier      string `json:"barrier"`
	Threads      int    `json:"threads"`
	OpsPerThread int    `json:"ops_per_thread"`
	Seed         uint64 `json:"seed"`
	TraceOps     int    `json:"trace_ops"`
	TraceStores  int    `json:"trace_stores"`
	BulkStores   int    `json:"bulk_epoch_stores,omitempty"`
	Logging      bool   `json:"logging,omitempty"`

	Deadlocked          bool    `json:"deadlocked"`
	ExecCycles          uint64  `json:"exec_cycles"`
	DrainCycles         uint64  `json:"drain_cycles"`
	Transactions        uint64  `json:"transactions"`
	ThroughputPerKcycle float64 `json:"throughput_per_kcycle"`

	Epochs struct {
		Opened         uint64  `json:"opened"`
		Persisted      uint64  `json:"persisted"`
		ConflictingPct float64 `json:"conflicting_pct"`
		IDTDeps        uint64  `json:"idt_deps"`
		Splits         uint64  `json:"splits"`
		Flushes        uint64  `json:"flushes"`
		Natural        uint64  `json:"natural_persists"`
	} `json:"epochs"`

	Conflicts struct {
		Intra        uint64 `json:"intra"`
		Inter        uint64 `json:"inter"`
		Eviction     uint64 `json:"eviction"`
		IDTFallbacks uint64 `json:"idt_fallbacks"`
		IDTResolved  uint64 `json:"idt_resolved"`
	} `json:"conflicts"`

	NVRAM struct {
		LinePersists uint64 `json:"line_persists"`
		LogWrites    uint64 `json:"log_writes"`
		Reads        uint64 `json:"reads"`
	} `json:"nvram"`

	Caches struct {
		L1HitPct  float64 `json:"l1_hit_pct"`
		LLCHitPct float64 `json:"llc_hit_pct"`
	} `json:"caches"`

	Stalls map[string]uint64 `json:"stalls"`
}

// buildSummary flattens one run into the -json schema.
func buildSummary(wl string, spec workload.Spec, p *trace.Program, cfg machine.Config, r *machine.Result) runSummary {
	var s runSummary
	s.Workload = wl
	s.Barrier = r.Barrier
	s.Threads = spec.Threads
	s.OpsPerThread = spec.OpsPerThread
	s.Seed = spec.Seed
	s.TraceOps = p.Ops()
	s.TraceStores = p.Stores()
	s.BulkStores = cfg.BulkEpochStores
	s.Logging = cfg.Logging
	s.Deadlocked = r.Deadlocked
	s.ExecCycles = uint64(r.ExecCycles)
	s.DrainCycles = uint64(r.DrainCycles)
	s.Transactions = r.Transactions
	s.ThroughputPerKcycle = r.Throughput()
	s.Epochs.Opened = r.Epochs.Opened
	s.Epochs.Persisted = r.Epochs.Persisted
	s.Epochs.ConflictingPct = 100 * r.Epochs.ConflictingFraction()
	s.Epochs.IDTDeps = r.Epochs.Deps
	s.Epochs.Splits = r.Epochs.Splits
	s.Epochs.Flushes = r.Epochs.Flushes
	s.Epochs.Natural = r.Epochs.Natural
	s.Conflicts.Intra = r.Conflicts.Intra
	s.Conflicts.Inter = r.Conflicts.Inter
	s.Conflicts.Eviction = r.Conflicts.Eviction
	s.Conflicts.IDTFallbacks = r.Conflicts.IDTFallbacks
	s.Conflicts.IDTResolved = r.Conflicts.IDTResolved()
	s.NVRAM.LinePersists = r.PersistedLines
	s.NVRAM.LogWrites = r.LogWrites
	s.NVRAM.Reads = r.MC.Reads
	s.Caches.L1HitPct = stats.HitPct(r.L1.Hits, r.L1.Misses)
	s.Caches.LLCHitPct = stats.HitPct(r.LLC.Hits, r.LLC.Misses)
	s.Stalls = make(map[string]uint64)
	for cause := machine.StallIntra; cause <= machine.StallWriteBuffer; cause++ {
		s.Stalls[cause.String()] = uint64(r.StallTotal(cause))
	}
	return s
}
