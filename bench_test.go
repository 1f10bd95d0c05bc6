// Package persistbarriers' top-level benchmarks regenerate every table and
// figure of the paper's evaluation (Section 7) as testing.B benchmarks.
// Each benchmark iteration runs the full experiment at a scaled-down
// configuration (harness.Quick-like) and reports the figure's headline
// numbers as custom metrics, so `go test -bench=. -benchmem` reproduces
// the whole evaluation and its shape in one command. EXPERIMENTS.md
// records the paper-vs-measured comparison at full scale.
package persistbarriers

import (
	"testing"

	"persistbarriers/internal/harness"
	"persistbarriers/internal/machine"
	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

// benchOpt is the scaled-down option set benchmarks run at; the figures
// CLI runs the same experiments at paper scale.
func benchOpt() harness.Options {
	return harness.Options{
		Threads:    8,
		MicroOps:   15,
		AppOps:     2000,
		EpochSizes: []int{30, 100, 1000},
		BulkEpoch:  250,
		Seed:       42,
	}
}

// BenchmarkTable1Config measures machine construction at the paper's
// Table 1 parameters (32 cores, 32 LLC banks, 4 MCs).
func BenchmarkTable1Config(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := machine.New(machine.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Timelines runs the Figure 1 SP/EP/BEP timeline probe.
func BenchmarkFig1Timelines(b *testing.B) {
	var last *harness.Fig1Result
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig1(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Exec["SP"]), "SP-cycles")
	b.ReportMetric(float64(last.Exec["EP"]), "EP-cycles")
	b.ReportMetric(float64(last.Exec["BEP(LB)"]), "BEP-cycles")
}

// BenchmarkFig4IDT runs the Figure 4 inter-thread conflict kernel.
func BenchmarkFig4IDT(b *testing.B) {
	var last *harness.Fig4Result
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.StallLB), "LB-conflict-stall-cycles")
	b.ReportMetric(float64(last.StallIDT), "IDT-conflict-stall-cycles")
	b.ReportMetric(float64(last.ExecLB+last.ExecIDT), "sim-cycles/op")
}

// BenchmarkFig11BEPThroughput regenerates Figure 11: micro-benchmark
// throughput of every barrier variant normalized to LB (paper gmeans:
// LB+IDT 1.03x, LB+PF 1.17x, LB++ 1.22x).
func BenchmarkFig11BEPThroughput(b *testing.B) {
	b.ReportAllocs()
	var last *harness.Grid
	for i := 0; i < b.N; i++ {
		r, err := harness.RunBEP(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, v := range harness.BEPVariants {
		b.ReportMetric(gmeanVs(last, v, "LB", (*machine.Result).Throughput), "gmean-"+v)
	}
}

// BenchmarkFig12ConflictingEpochs regenerates Figure 12: the percentage of
// epochs flushed because of a conflict (paper ameans: LB 90%, LB+IDT ~90%,
// LB+PF 77%, LB++ 75%).
func BenchmarkFig12ConflictingEpochs(b *testing.B) {
	var last *harness.Grid
	for i := 0; i < b.N; i++ {
		r, err := harness.RunBEP(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, v := range harness.BEPVariants {
		var vs []float64
		for _, bench := range last.Rows {
			vs = append(vs, last.Results[bench][v].Epochs.ConflictingFraction()*100)
		}
		b.ReportMetric(stats.Amean(vs), "pct-"+v)
	}
}

// BenchmarkFig13EpochSize regenerates Figure 13: bulk-BSP execution time
// normalized to NP across hardware epoch sizes (paper: LB300 1.9x with the
// overhead shrinking as epochs grow).
func BenchmarkFig13EpochSize(b *testing.B) {
	opt := benchOpt()
	var last *harness.Grid
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig13(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, col := range last.Cols[1:] {
		b.ReportMetric(gmeanVs(last, col, "NP", execCycles), "gmean-"+col)
	}
}

// BenchmarkFig14BSP regenerates Figure 14: BSP execution time normalized
// to NP for LB, LB+IDT, LB++, LB++NOLOG (paper gmeans: 1.5x, 1.35x, 1.3x,
// 1.16x; ~86% of conflicts inter-thread).
func BenchmarkFig14BSP(b *testing.B) {
	b.ReportAllocs()
	var last *harness.BSPResults
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig14(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, v := range harness.BSPVariants {
		b.ReportMetric(gmeanVs(last.Grid, v, "NP", execCycles), "gmean-"+v)
	}
	b.ReportMetric(100*last.InterConflictShare("LB"), "inter-share-pct")
}

// BenchmarkFlushMode regenerates the §7 clwb-vs-clflush comparison (paper:
// non-invalidating ~30% faster).
func BenchmarkFlushMode(b *testing.B) {
	var last *harness.Grid
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFlushMode(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	sum := 0.0
	for _, bench := range last.Rows {
		sum += last.Results[bench]["clwb"].Throughput() / last.Results[bench]["clflush"].Throughput()
	}
	b.ReportMetric(sum/float64(len(last.Rows)), "clwb-vs-clflush")
}

// BenchmarkWriteThrough regenerates the §7.2 naive write-through BSP
// comparison (paper: ~8x NP at 32 threads; scaled runs saturate less).
func BenchmarkWriteThrough(b *testing.B) {
	opt := benchOpt()
	opt.Threads = 16
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := harness.RunWriteThrough(opt)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, app := range r.Rows {
			v := float64(r.Results[app]["WT"].ExecCycles) / float64(r.Results[app]["NP"].ExecCycles)
			if v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "worst-WT-vs-NP")
}

// BenchmarkAblations runs the DESIGN.md §6 design-choice sweeps.
func BenchmarkAblations(b *testing.B) {
	opt := benchOpt()
	opt.MicroOps = 8
	var last *harness.Grid
	for i := 0; i < b.N; i++ {
		r, err := harness.RunAblations(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	var fallbacks uint64
	for _, bench := range last.Rows {
		fallbacks += last.Results[bench]["depregs=1"].Conflicts.IDTFallbacks
	}
	b.ReportMetric(gmeanVs(last, "depregs=4", "base", (*machine.Result).Throughput), "gmean-4-depregs")
	b.ReportMetric(float64(fallbacks), "fallbacks-1-reg")
}

// gmeanVs is the suite gmean of col's metric normalized to base's in the
// same row: a figure's closing gmean bar.
func gmeanVs(g *harness.Grid, col, base string, metric func(*machine.Result) float64) float64 {
	var vs []float64
	for _, row := range g.Rows {
		vs = append(vs, metric(g.Results[row][col])/metric(g.Results[row][base]))
	}
	return stats.Gmean(vs)
}

func execCycles(r *machine.Result) float64 { return float64(r.ExecCycles) }

// BenchmarkMicroGeneration measures trace generation for each Table 2
// micro-benchmark (the workload substrate itself).
func BenchmarkMicroGeneration(b *testing.B) {
	spec := workload.Spec{Threads: 32, OpsPerThread: 50, Seed: 1}
	for _, name := range workload.MicrobenchmarkNames() {
		gen := workload.Microbenchmarks()[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gen(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorCore measures raw simulation speed: events per second
// on a queue run under LB++.
func BenchmarkSimulatorCore(b *testing.B) {
	spec := workload.Spec{Threads: 8, OpsPerThread: 25, Seed: 1}
	var prog *trace.Program
	var err error
	if prog, err = workload.Queue(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events, cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := machine.DefaultConfig()
		cfg.Cores = spec.Threads
		cfg.IDT, cfg.PF = true, true
		m, err := machine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(prog); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		events += m.Engine().Fired()
		cycles += uint64(m.Engine().Now())
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkEngineOpCost measures the per-operation cost of the engine's
// group-commit path (SubmitAppend + PumpRetire) as the batch width
// grows. Wider batches amortize the fixed pump cost over more ops, and
// -benchmem exposes the zero-alloc submit layer: allocs/op must stay
// far below one per logical operation.
func BenchmarkEngineOpCost(b *testing.B) {
	for _, batchLen := range []int{1, 16, 64, 256} {
		b.Run("batch="+itoa(batchLen), func(b *testing.B) {
			e, err := pmkv.New(pmkv.Config{})
			if err != nil {
				b.Fatal(err)
			}
			sessions := make([]*pmkv.Session, 4)
			for i := range sessions {
				sessions[i] = e.NewSession()
			}
			val := make([]byte, 64)
			batch := make([]pmkv.Request, batchLen)
			for i := range batch {
				batch[i] = pmkv.Request{
					Sess:  sessions[i%len(sessions)],
					Op:    pmkv.Put,
					Key:   "oc" + itoa(i%32),
					Value: val,
				}
			}
			resps := make([]pmkv.Response, 0, batchLen)
			// Warm up arenas and op buffers before the measured runs.
			for i := 0; i < 4; i++ {
				if resps, err = e.SubmitAppend(resps[:0], batch); err != nil {
					b.Fatal(err)
				}
				if err := e.PumpRetire(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resps, err = e.SubmitAppend(resps[:0], batch); err != nil {
					b.Fatal(err)
				}
				if err := e.PumpRetire(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batchLen)*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
			if _, err := e.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
