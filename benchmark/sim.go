package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"persistbarriers/internal/harness"
	"persistbarriers/internal/machine"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

// The two simulator workloads run the paper's grids: sim-bep is Figures
// 11/12 (five micro-benchmarks under the four LB variants, programmer
// barriers), sim-bsp is Figure 14 (nine app models under NP and four
// bulk-mode variants, hardware-inserted epochs with undo logging). One
// pass simulates the whole grid once; passes repeat, on identical inputs,
// until the measuring time is used, and host-time metrics are medians
// over passes. An untraced pass is one call of the figure's own entry
// point, harness.RunBEP or harness.RunFig14; a traced pass is this file's
// loop over the layers that call crosses, and must reproduce it bit for
// bit.

// simSizes scales a grid. The paper-size grids take 14-18 s a pass on the
// 2-core reference host; these are a tenth of that so a ten-second run
// holds six to eight passes.
type simSizes struct {
	Threads, MicroOps, AppOps, BulkEpoch int
}

var (
	simFull  = simSizes{Threads: 32, MicroOps: 40, AppOps: 400, BulkEpoch: 100}
	simSmoke = simSizes{Threads: 4, MicroOps: 4, AppOps: 60, BulkEpoch: 20}
)

// Paper values the variant gmeans are compared against (Fig. 11
// throughput over LB; Fig. 14 execution time over NP).
var (
	paperBEP = map[string]float64{"LB+IDT": 1.03, "LB+PF": 1.17, "LB++": 1.22}
	paperBSP = map[string]float64{"LB": 1.5, "LB+IDT": 1.35, "LB++": 1.3, "LB++NOLOG": 1.16}
)

type simJob struct {
	bench, variant string
	cfg            machine.Config
	traceID        string
	gen            func() (*trace.Program, error)
}

func (j simJob) key() string { return j.bench + "/" + j.variant }

// lbConfig is the machine for one LB-family variant. It restates what
// internal/harness builds privately, for the traced loop and the set-up's
// dry pass; the traced run's reference check (every job's fingerprint
// against harness.RunBEP/RunFig14) is what keeps the two from drifting.
func lbConfig(threads int, variant string) (machine.Config, error) {
	cfg := machine.DefaultConfig()
	cfg.Cores = threads
	cfg.Model = machine.LB
	switch variant {
	case "LB":
	case "LB+IDT":
		cfg.IDT = true
	case "LB+PF":
		cfg.PF = true
	case "LB++", "LB++NOLOG":
		cfg.IDT, cfg.PF = true, true
	default:
		return cfg, fmt.Errorf("unknown variant %q", variant)
	}
	return cfg, nil
}

func bepJobs(sz simSizes, seed uint64) ([]simJob, error) {
	var jobs []simJob
	for _, bench := range workload.MicrobenchmarkNames() {
		gen := workload.Microbenchmarks()[bench]
		spec := workload.Spec{Threads: sz.Threads, OpsPerThread: sz.MicroOps, Seed: seed}
		for _, variant := range harness.BEPVariants {
			cfg, err := lbConfig(sz.Threads, variant)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, simJob{
				bench: bench, variant: variant, cfg: cfg,
				traceID: fmt.Sprintf("micro:%s/threads=%d/ops=%d/seed=%d", bench, sz.Threads, sz.MicroOps, seed),
				gen:     func() (*trace.Program, error) { return gen(spec) },
			})
		}
	}
	return jobs, nil
}

func bspJobs(sz simSizes, seed uint64) ([]simJob, error) {
	var jobs []simJob
	for _, app := range workload.AppNames() {
		prof := workload.Apps()[app]
		spec := workload.Spec{Threads: sz.Threads, OpsPerThread: sz.AppOps, Seed: seed}
		gen := func() (*trace.Program, error) { return prof.Generate(spec) }
		id := fmt.Sprintf("app:%s/threads=%d/ops=%d/seed=%d", app, sz.Threads, sz.AppOps, seed)
		np := machine.DefaultConfig()
		np.Cores = sz.Threads
		np.Model = machine.NP
		jobs = append(jobs, simJob{bench: app, variant: "NP", cfg: np, traceID: id, gen: gen})
		for _, variant := range harness.BSPVariants {
			cfg, err := lbConfig(sz.Threads, variant)
			if err != nil {
				return nil, err
			}
			cfg.BulkEpochStores = sz.BulkEpoch
			cfg.Logging = variant != "LB++NOLOG"
			cfg.CheckpointLines = 4
			jobs = append(jobs, simJob{bench: app, variant: variant, cfg: cfg, traceID: id, gen: gen})
		}
	}
	return jobs, nil
}

// simPass is one trip round the grid.
type simPass struct {
	results []*machine.Result
	wall    time.Duration
	ops     int64 // trace ops retired
	events  uint64
	fp      string // fingerprint of every result, grid order

	// Traced pass only.
	jobUS                   []float64 // per-job host latency
	genS, newS, loadS, runS float64
	traceOps                int64
}

func opsRetired(r *machine.Result) int64 {
	var n int64
	for i := range r.Cores {
		n += int64(r.Cores[i].OpsRetired)
	}
	return n
}

func fingerprintResults(rs []*machine.Result) (string, error) {
	h := sha256.New()
	for _, r := range rs {
		fp, err := stats.Fingerprint(r)
		if err != nil {
			return "", err
		}
		h.Write([]byte(fp))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (p *simPass) seal() error {
	for _, r := range p.results {
		p.ops += opsRetired(r)
	}
	var err error
	p.fp, err = fingerprintResults(p.results)
	return err
}

// tracedPass is the benchmark's own loop over the layers a sweep job
// crosses, with a span around each call.
func tracedPass(jobs []simJob, tr *tracer, pass int) (*simPass, error) {
	p := &simPass{}
	start := time.Now()
	for i, j := range jobs {
		op := int64(pass*len(jobs) + i)
		t0 := time.Now()
		root := tr.begin("harness.job:"+j.key(), -1, op)

		s := tr.begin("workload.gen", root, op)
		prog, err := j.gen()
		p.genS += tr.end(s).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.key(), err)
		}
		p.traceOps += int64(prog.Ops())

		s = tr.begin("machine.new", root, op)
		m, err := machine.New(j.cfg)
		p.newS += tr.end(s).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.key(), err)
		}

		s = tr.begin("machine.load", root, op)
		err = m.Load(prog)
		p.loadS += tr.end(s).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.key(), err)
		}

		s = tr.begin("machine.run", root, op)
		r, err := m.Run()
		p.runS += tr.end(s).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.key(), err)
		}
		tr.end(root)

		p.events += m.Engine().Fired()
		p.jobUS = append(p.jobUS, float64(time.Since(t0))/1e3)
		p.results = append(p.results, r)
	}
	p.wall = time.Since(start)
	return p, p.seal()
}

// dryPass does what a pass does before any cycle is simulated: generate
// every trace, construct and load every machine. It is the sim-*
// workloads' set-up, so work moved out of Run into New or Load shows.
func dryPass(jobs []simJob) error {
	for _, j := range jobs {
		prog, err := j.gen()
		if err != nil {
			return err
		}
		m, err := machine.New(j.cfg)
		if err != nil {
			return err
		}
		if err := m.Load(prog); err != nil {
			return err
		}
	}
	return nil
}

// kernelNSPerEvent times the bare event kernel: one million events
// scheduled a few cycles ahead, each scheduling its successor — the
// At/Run loop with nothing of the machine on top.
func kernelNSPerEvent(n int) float64 {
	eng := sim.NewEngine()
	left := n
	var tick func()
	tick = func() {
		left--
		if left > 0 {
			eng.After(sim.Cycle(1+left%7), tick)
		}
	}
	// Eight chains keep the calendar ring populated like a small machine.
	t0 := time.Now()
	for i := 0; i < 8; i++ {
		eng.After(sim.Cycle(i+1), tick)
	}
	eng.Run()
	return float64(time.Since(t0)) / float64(eng.Fired())
}

// passFailures lists what is wrong with one pass: a simulation that did
// not finish or deadlocked, or statistics that differ from the
// reference fingerprint (the first pass's — every pass has the same
// inputs).
func passFailures(jobs []simJob, p *simPass, refFP string) []string {
	var bad []string
	for i, r := range p.results {
		if !r.Finished || r.Deadlocked {
			bad = append(bad, fmt.Sprintf("%s: finished=%v deadlocked=%v", jobs[i].key(), r.Finished, r.Deadlocked))
		}
	}
	if p.fp != refFP {
		bad = append(bad, fmt.Sprintf("simulated statistics %.12s differ from the reference %.12s", p.fp, refFP))
	}
	return bad
}

// simDerived computes the simulated headline numbers from one pass.
type simDerived struct {
	lbppGmean float64            // LB++ vs LB (bep) or vs NP (bsp)
	gmeans    map[string]float64 // per variant
	paperErr  float64
	conflPct  float64 // amean conflicting-epoch % under LB++
}

func deriveSim(bsp bool, jobs []simJob, rs []*machine.Result) simDerived {
	by := make(map[string]map[string]*machine.Result)
	var benches []string
	for i, j := range jobs {
		if by[j.bench] == nil {
			by[j.bench] = make(map[string]*machine.Result)
			benches = append(benches, j.bench)
		}
		by[j.bench][j.variant] = rs[i]
	}
	d := simDerived{gmeans: make(map[string]float64)}
	paper, variants := paperBEP, harness.BEPVariants
	if bsp {
		paper, variants = paperBSP, harness.BSPVariants
	}
	for _, v := range variants {
		var ratios []float64
		for _, b := range benches {
			if bsp {
				ratios = append(ratios, float64(by[b][v].ExecCycles)/float64(by[b]["NP"].ExecCycles))
			} else {
				ratios = append(ratios, by[b][v].Throughput()/by[b]["LB"].Throughput())
			}
		}
		d.gmeans[v] = stats.Gmean(ratios)
		if want, ok := paper[v]; ok {
			d.paperErr = math.Max(d.paperErr, math.Abs(d.gmeans[v]-want)/want)
		}
	}
	d.lbppGmean = d.gmeans["LB++"]
	var confl []float64
	for _, b := range benches {
		confl = append(confl, by[b]["LB++"].Epochs.ConflictingFraction()*100)
	}
	d.conflPct = stats.Amean(confl)
	return d
}

// machineCounters sums the simulated counters of a pass into the
// per-layer metrics. They are exact per seed: a change that only speeds
// the simulator up must leave every one identical.
func machineCounters(ms metricSet, rs []*machine.Result, ops int64) {
	var exec, stallAll sim.Cycle
	var stalls [5]sim.Cycle
	causes := [5]machine.StallCause{machine.StallIntra, machine.StallInter,
		machine.StallEviction, machine.StallPressure, machine.StallWriteBuffer}
	var l1, llc struct{ hits, misses, dirty uint64 }
	var hopSum float64
	for _, r := range rs {
		exec += r.ExecCycles
		for i, c := range causes {
			stalls[i] += r.StallTotal(c)
			stallAll += r.StallTotal(c)
		}
		ms["machine.conflicts_intra"] += float64(r.Conflicts.Intra)
		ms["machine.conflicts_inter"] += float64(r.Conflicts.Inter)
		ms["machine.conflicts_eviction"] += float64(r.Conflicts.Eviction)
		ms["machine.idt_fallbacks"] += float64(r.Conflicts.IDTFallbacks)
		ms["machine.epochs_persisted"] += float64(r.Epochs.Persisted)
		ms["machine.epoch_splits"] += float64(r.Epochs.Splits)
		ms["machine.epoch_deps"] += float64(r.Epochs.Deps)
		ms["machine.flushes"] += float64(r.Epochs.Flushes)
		ms["machine.natural_flushes"] += float64(r.Epochs.Natural)
		ms["machine.persisted_lines"] += float64(r.PersistedLines)
		ms["machine.log_writes"] += float64(r.LogWrites)
		l1.hits += r.L1.Hits
		l1.misses += r.L1.Misses
		llc.hits += r.LLC.Hits
		llc.misses += r.LLC.Misses
		llc.dirty += r.LLC.DirtyEvicts
		ms["nvram.writes"] += float64(r.MC.Writes)
		ms["nvram.busy_cycles"] += float64(r.MC.BusyCycles)
		ms["nvram.stall_cycles"] += float64(r.MC.StallCycles)
		ms["noc.messages"] += float64(r.NoC.Messages)
		hopSum += r.NoC.AvgHops * float64(r.NoC.Messages)
	}
	ms["machine.exec_cycles"] = float64(exec)
	for i, name := range []string{"intra", "inter", "eviction", "pressure", "wbuf"} {
		ms["machine.stall_"+name+"_cycles"] = float64(stalls[i])
	}
	ms["machine.stall_cycles_per_op"] = ratio(float64(stallAll), float64(ops))
	ms["cache.l1_miss_frac"] = ratio(float64(l1.misses), float64(l1.hits+l1.misses))
	ms["cache.llc_miss_frac"] = ratio(float64(llc.misses), float64(llc.hits+llc.misses))
	ms["cache.llc_dirty_evicts"] = float64(llc.dirty)
	ms["noc.avg_hops"] = ratio(hopSum, ms["noc.messages"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// harnessPass is the untraced pass: the figure's own entry point, once,
// timed from outside, with its results put in the benchmark's grid order.
func harnessPass(bsp bool, sz simSizes, seed uint64, jobs []simJob) (*simPass, error) {
	opt := harness.Options{Threads: sz.Threads, MicroOps: sz.MicroOps, AppOps: sz.AppOps,
		BulkEpoch: sz.BulkEpoch, Seed: seed, Parallelism: 1}
	t0 := time.Now()
	var lookup func(j simJob) *machine.Result
	if bsp {
		res, err := harness.RunFig14(opt)
		if err != nil {
			return nil, err
		}
		lookup = func(j simJob) *machine.Result {
			if j.variant == "NP" {
				return res.NP[j.bench]
			}
			return res.Runs[j.bench][j.variant]
		}
	} else {
		res, err := harness.RunBEP(opt)
		if err != nil {
			return nil, err
		}
		lookup = func(j simJob) *machine.Result { return res.Results[j.bench][j.variant] }
	}
	p := &simPass{wall: time.Since(t0), results: make([]*machine.Result, len(jobs))}
	for i, j := range jobs {
		if p.results[i] = lookup(j); p.results[i] == nil {
			return nil, fmt.Errorf("harness has no result for %s", j.key())
		}
	}
	return p, p.seal()
}

func runSim(cfg runConfig) (*runOutput, error) {
	bsp := cfg.Workload == "sim-bsp"
	sz := simFull
	if cfg.Smoke {
		sz = simSmoke
	}
	mkJobs := bepJobs
	if bsp {
		mkJobs = bspJobs
	}
	out := newRunOutput()
	tr := newTracer(cfg.Trace)

	// Set-up, several times: build the job list and do a pass's worth of
	// trace generation and machine construction.
	var jobs []simJob
	var setups []float64
	for i := 0; i < cfg.setupReps(); i++ {
		t0 := time.Now()
		var err error
		if jobs, err = mkJobs(sz, cfg.Seed); err != nil {
			return nil, err
		}
		if err := dryPass(jobs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.Metrics["setup_s"] = median(setups)
	out.Spreads["setup_s"] = quartileSpread(setups)
	out.Info["setup_reps_s"] = setups

	// A traced run first makes one untraced pass: the reference its loop
	// must reproduce, and the base of trace_overhead_frac.
	var ref *simPass
	if cfg.Trace {
		var err error
		if ref, err = harnessPass(bsp, sz, cfg.Seed, jobs); err != nil {
			return nil, err
		}
	}

	// Timed region: whole passes until the measuring time is used.
	var passes []*simPass
	var cpu time.Duration
	for start := time.Now(); len(passes) == 0 || time.Since(start).Seconds() < cfg.Seconds; {
		var p *simPass
		var err error
		cpu0 := selfCPU()
		if cfg.Trace {
			p, err = tracedPass(jobs, tr, len(passes))
		} else {
			p, err = harnessPass(bsp, sz, cfg.Seed, jobs)
		}
		if err != nil {
			return nil, err
		}
		cpu += selfCPU() - cpu0
		if len(passes) == 0 {
			out.Metrics["rss_mb"] = selfPeakRSSMB()
		}
		passes = append(passes, p)
	}

	// Correctness: every simulation finished, none deadlocked, every pass
	// reproduced the first bit for bit, and (traced) the benchmark's loop
	// reproduced the harness's.
	first := passes[0]
	var totalOps int64
	var opsPerS, jobUS []float64
	for pi, p := range passes {
		out.Attempted += int64(len(p.results))
		for _, bad := range passFailures(jobs, p, first.fp) {
			out.fail("pass %d: %s", pi, bad)
		}
		totalOps += p.ops
		opsPerS = append(opsPerS, float64(p.ops)/p.wall.Seconds())
		jobUS = append(jobUS, float64(p.wall)/1e3/float64(len(jobs)))
	}
	if ref != nil && ref.fp != first.fp {
		out.fail("traced loop's simulated statistics differ from harness (%s vs %s)", first.fp[:12], ref.fp[:12])
	}
	out.Fingerprints["sim_stats"] = first.fp

	out.Info["passes"] = len(passes)
	out.Info["pass_ops_per_s"] = opsPerS
	out.Info["jobs_per_pass"] = len(jobs)
	out.Info["sizes"] = sz

	d := deriveSim(bsp, jobs, first.results)
	out.Info["variant_gmeans"] = d.gmeans

	out.Host["ops_per_s"] = median(opsPerS)
	out.Host["cpu_us_per_op"] = float64(cpu) / 1e3 / float64(totalOps)
	out.Host["p50_us"] = median(jobUS)
	out.Spreads["ops_per_s"] = quartileSpread(opsPerS)
	out.Spreads["p50_us"] = quartileSpread(jobUS)
	if !cfg.Trace {
		var exec sim.Cycle
		var epochs uint64
		for _, r := range first.results {
			exec += r.ExecCycles
			epochs += r.Epochs.Persisted
		}
		out.Metrics["sim_cycles_per_op"] = ratio(float64(exec), float64(first.ops))
		out.Metrics["epochs_per_op"] = ratio(float64(epochs), float64(first.ops))
		return out, nil
	}

	// Per-layer metrics, from the traced passes.
	ms := metricSet{}
	var genS, newS, runS, loadS []float64
	var windows [][]float64
	for _, p := range passes {
		windows = append(windows, p.jobUS)
		genS = append(genS, p.genS)
		newS = append(newS, p.newS)
		loadS = append(loadS, p.loadS)
		runS = append(runS, p.runS)
	}
	ms["sim.events"] = float64(first.events)
	ms["sim.events_per_op"] = ratio(float64(first.events), float64(first.ops))
	ms["sim.host_ns_per_event"] = ratio(median(runS)*1e9, float64(first.events))
	ms["sim.kernel_ns_per_event"] = kernelNSPerEvent(cfg.kernelEvents())
	ms["machine.new_ms"] = median(newS) * 1e3
	ms["machine.run_s"] = median(runS)
	machineCounters(ms, first.results, first.ops)
	ms["machine.host_ns_per_cycle"] = ratio(median(runS)*1e9, ms["machine.exec_cycles"])
	ms["machine.conflict_epoch_pct"] = d.conflPct
	ms["workload.gen_s"] = median(genS)
	ms["workload.trace_ops"] = float64(first.traceOps)
	ms["harness.sweep_s"] = ref.wall.Seconds()
	ms["sim_ops_per_s"] = median(opsPerS)
	ms["p99_us"], out.Info["p99_us_percentile_used"] = windowTail(windows)
	out.Info["latency_samples"] = len(passes) * len(jobs)
	if bsp {
		ms["lbpp_vs_np_gmean"] = d.lbppGmean
	} else {
		ms["lbpp_vs_lb_gmean"] = d.lbppGmean
	}
	ms["paper_err_max"] = d.paperErr
	ms["fail_frac"] = ratio(float64(out.Failed), float64(out.Attempted))
	// The harness reference is the untraced way through the same work.
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	ms["trace_overhead_frac"] = median(walls)/ref.wall.Seconds() - 1
	out.Info["layer_sum_vs_wall"] = ratio(median(genS)+median(newS)+median(loadS)+median(runS), median(walls))
	out.Metrics = ms
	out.tracer = tr
	return out, nil
}
