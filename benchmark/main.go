// Command benchmark is the repository's one benchmark: six seeded
// workloads that between them make the simulator, the KV engine, the
// read path, the wire codec, recovery and the live pmkvd server each do
// most of the work once, measured end to end (untraced) and layer by
// layer (traced). README.md in this directory is the manual.
//
//	go run -C benchmark . -seed 1                   every workload, both ways
//	go run -C benchmark . --workload kv-write --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . compare A.json B.json
//	go run -C benchmark . manifest > BENCHMARK.json
//
// The second form is what the driver described by BENCHMARK.json runs:
// one workload, one way, and the last line of standard output is the
// result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

type workloadDef struct {
	Name string
	Why  string
	run  func(runConfig) (*runOutput, error)
	// exact marks workloads whose simulated statistics and recovery
	// fingerprint are a pure function of the seed, so the traced and
	// untraced runs (and any two runs) must agree on them bit for bit.
	exact bool
}

var workloads = []workloadDef{
	{"sim-bep", "Fig. 11/12 grid: programmer barriers and tiny conflict-dense epochs, so sim+machine do all the work and pmkv, proto and the server none", runSim, true},
	{"sim-bsp", "Fig. 14 grid: hardware-inserted epochs with undo logging, flush-heavy and bound by LLC and NVRAM queues, so a kernel change that hurts bulk flushing shows", runSim, true},
	{"engine-crash", "one pmkv.Engine driven directly with a mid-run power loss and recovery, so translate/retire and Verify/replay dominate and every count repeats exactly", runEngine, true},
	{"kv-write", "closed loop 45/50/5 uniform against live pmkvd, so the write pipeline (queue_wait, translate, retire, durable_wait) dominates", runKV, false},
	{"kv-read", "closed loop 95/5 Zipf 1.2 against live pmkvd, so the read fast path, codec and ack writes dominate and an engine-only change must not move it", runKV, false},
	{"kv-paced", "open loop 70/25/5 at 10k then 40k ops/s with a fixed op count, so the write pipeline is measured for latency from the due time, not throughput", runKV, false},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Smoke    bool
	Root     string // module root: where ./cmd/pmkvd is built from
	OutDir   string // records, traces and results (benchmark/out)
	BinDir   string // the pmkvd build (.bench_build)
}

// newRunConfig fills in the directories every run derives from the root.
func newRunConfig(root, workload string, seed uint64, seconds float64, trace, smoke bool) runConfig {
	return runConfig{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Smoke: smoke,
		Root: root, OutDir: filepath.Join(root, "benchmark", "out"), BinDir: filepath.Join(root, ".bench_build")}
}

// setupReps is how many times set-up is repeated for its median. A server
// lifetime with its drain takes a third of a second; an in-process set-up
// takes well under a tenth, and its first few repetitions in a new process
// can run at half speed, so it gets enough of them to outvote those.
func (c runConfig) setupReps() int {
	switch {
	case c.Smoke:
		return 1
	case strings.HasPrefix(c.Workload, "kv-"):
		return 11
	}
	return 31
}

// warmup is how long a kv-* workload runs its traffic, unrecorded,
// between set-up and the timed region.
func (c runConfig) warmup() time.Duration {
	if c.Smoke {
		return 20 * time.Millisecond
	}
	return 500 * time.Millisecond
}

func (c runConfig) kernelEvents() int {
	if c.Smoke {
		return 50_000
	}
	return 1_000_000
}

func (c runConfig) replayOps() int {
	if c.Smoke {
		return 4_000
	}
	return 200_000
}

func (c runConfig) mode() string {
	if c.Trace {
		return "traced"
	}
	return "untraced"
}

// runOutput is what a workload hands back.
type runOutput struct {
	Metrics metricSet
	// Host holds the hostTime metrics, which every run fills the same
	// way whether or not it is traced.
	Host              metricSet
	Attempted, Failed int64
	Errors            []string
	Fingerprints      map[string]string
	Info              map[string]any
	// Spreads holds, for metrics that are medians over a run's windows
	// (passes, rounds, seconds), the quartile spread of those windows as
	// a share of the median: the run's own noise, which compare uses to
	// tell "worse" from "unresolved".
	Spreads map[string]float64
	tracer  *tracer
}

func newRunOutput() *runOutput {
	return &runOutput{Metrics: metricSet{}, Host: metricSet{}, Fingerprints: map[string]string{}, Info: map[string]any{}, Spreads: map[string]float64{}}
}

// fail records one failed operation or check. The run continues — every
// failure is worth seeing — and ends incorrect.
func (o *runOutput) fail(format string, args ...any) {
	o.Failed++
	if len(o.Errors) < 10 {
		o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
	}
}

// runRecord is what one run leaves in benchmark/out/<workload>.<mode>.json.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Smoke    bool      `json:"smoke"`
	Result   runResult `json:"result"`
	// HostTime is filled by untraced runs; a traced run's is in Result.
	HostTime     map[string]metricValue `json:"host_time,omitempty"`
	Errors       []string               `json:"errors,omitempty"`
	Fingerprints map[string]string      `json:"fingerprints"`
	Info         map[string]any         `json:"info"`
	Spreads      map[string]float64     `json:"spreads"`
	WallS        float64                `json:"wall_s"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readRecord(path string) (*runRecord, error) {
	var r runRecord
	if err := readJSON(path, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// execute runs one workload one way and writes its record and trace.
func execute(cfg runConfig) (*runRecord, error) {
	w := findWorkload(cfg.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	t0 := time.Now()
	out, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	host, err := out.Host.finish(hostTime)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
		for name, v := range out.Host {
			out.Metrics[name] = v
		}
		host = nil
	}
	vals, err := out.Metrics.finish(defs)
	if err != nil {
		return nil, err
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted nothing", cfg.Workload)
	}
	rec := &runRecord{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Smoke: cfg.Smoke,
		Result:       runResult{Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: vals},
		HostTime:     host,
		Errors:       out.Errors,
		Fingerprints: out.Fingerprints, Info: out.Info, Spreads: out.Spreads,
		WallS: time.Since(t0).Seconds(),
	}
	if cfg.Trace {
		counts := make(map[string]float64, len(vals))
		for name, v := range vals {
			counts[name] = v.Value
		}
		path := filepath.Join(cfg.OutDir, cfg.Workload+".trace.json")
		if err := out.tracer.write(path, cfg.Workload, cfg.Seed, counts); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	if err := writeJSON(filepath.Join(cfg.OutDir, cfg.Workload+"."+cfg.mode()+".json"), rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// moduleRoot walks up from the working directory (the driver's checkout
// root, or this directory under `go run -C benchmark`) to the root
// module: the go.mod with cmd/pmkvd beside it.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && len(b) > 0 {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "pmkvd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the persistbarriers repository: no go.mod with cmd/pmkvd at or above the working directory")
		}
		dir = parent
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) == 2 && os.Args[1] == "manifest" {
		os.Stdout.Write(manifest())
		return
	}
	var (
		workload = flag.String("workload", "", "run one workload (default: all six, untraced then traced, each in a fresh child)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measuring time per run")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics, spans recorded")
		smoke    = flag.Bool("smoke", false, "tiny grids and sub-second windows: exercises every path, measures nothing")
		outPath  = flag.String("out", "", "results file of an all-workloads run (default <outdir>/results.seed<N>.json)")
		outDir   = flag.String("outdir", "", "where records, traces and results go (default benchmark/out)")
		binDir   = flag.String("bindir", "", "where pmkvd is built (default .bench_build)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds <= 0 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be in (0, 60] and -trace 0 or 1")
		os.Exit(2)
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *smoke && *seconds == 10 {
		*seconds = 0.3
	}

	// Whatever ends this process, no pmkvd outlives it.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllServers()
		killChildren()
		os.Exit(130)
	}()

	cfg := newRunConfig(root, *workload, *seed, *seconds, *trace == 1, *smoke)
	if *outDir != "" {
		cfg.OutDir = *outDir
	}
	if *binDir != "" {
		cfg.BinDir = *binDir
	}
	if *workload == "" {
		os.Exit(runAll(cfg, workloads, *outPath))
	}

	// One workload, the driver's way: it must end within 180 s.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170 s; killing children and giving up")
		killAllServers()
		os.Exit(3)
	})
	defer watchdog.Stop()
	rec, err := execute(cfg)
	killAllServers() // none should be left; this is the belt to execute's braces
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	printMetrics(os.Stderr, cfg.Workload, defs, rec.Result.Metrics)
	if !cfg.Trace {
		printMetrics(os.Stderr, cfg.Workload, hostTime, rec.HostTime)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", e)
	}
	if note, ok := rec.Info["invalid"]; ok {
		fmt.Fprintln(os.Stderr, "benchmark: INVALID:", note)
	}
	// How well the traced run's layers account for what the client (or
	// the pass) saw as a whole.
	for _, name := range []string{"unattributed_share", "layer_sum_vs_wall"} {
		if v, ok := rec.Info[name]; ok {
			fmt.Fprintf(os.Stderr, "%-12s %-32s %16.6g fraction\n", cfg.Workload, name, v)
		}
	}
	fmt.Printf("%s\n", mustJSON(rec.Result))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}
