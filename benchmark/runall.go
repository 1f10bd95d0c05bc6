package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The all-workloads run. Each workload runs twice — untraced for the
// end-to-end metrics, traced for the per-layer ones — and each run is a
// fresh child of this executable, so peak RSS and CPU are per run and
// nothing one workload allocates, warms or leaks reaches the next.

var (
	childMu  sync.Mutex
	children = map[*exec.Cmd]bool{}
)

func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for c := range children {
		c.Process.Kill()
	}
}

// workloadResults is one workload's slice of a results file.
type workloadResults struct {
	Correct      bool                   `json:"correct"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	HostTime     map[string]metricValue `json:"host_time"`
	PerLayer     map[string]metricValue `json:"per_layer"`
	Fingerprints map[string]string      `json:"fingerprints"`
	Spreads      map[string]float64     `json:"spreads"`
	Info         map[string]any         `json:"info"`
	TracedInfo   map[string]any         `json:"traced_info"`
	// ChildRSSMB and ChildCPUS are the untraced child's own rusage.
	ChildRSSMB float64 `json:"child_rss_mb"`
	ChildCPUS  float64 `json:"child_cpu_s"`
}

// resultsFile is what the all-workloads run writes and `compare` reads.
type resultsFile struct {
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Smoke     bool                       `json:"smoke"`
	GoVersion string                     `json:"go_version"`
	CPUs      int                        `json:"cpus"`
	WallS     float64                    `json:"wall_s"`
	Workloads map[string]workloadResults `json:"workloads"`
}

// runChild runs one workload one way in a child and returns its record.
func runChild(self string, cfg runConfig) (*runRecord, *syscall.Rusage, error) {
	args := []string{"-workload", cfg.Workload, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", "0"}
	if cfg.Trace {
		args[len(args)-1] = "1"
	}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	args = append(args, "-outdir", cfg.OutDir, "-bindir", cfg.BinDir)
	cmd := exec.Command(self, args...)
	cmd.Dir = cfg.Root
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	childMu.Lock()
	children[cmd] = true
	childMu.Unlock()
	err := cmd.Wait()
	childMu.Lock()
	delete(children, cmd)
	childMu.Unlock()

	// Exit 1 is a completed but incorrect run: its record is still valid.
	if ee, ok := err.(*exec.ExitError); err != nil && !(ok && ee.ExitCode() == 1) {
		return nil, nil, fmt.Errorf("%s (%s): %v", cfg.Workload, cfg.mode(), err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("%s (%s): last output line is not a result: %v", cfg.Workload, cfg.mode(), err)
	}
	rec, err := readRecord(filepath.Join(cfg.OutDir, cfg.Workload+"."+cfg.mode()+".json"))
	if err != nil {
		return nil, nil, err
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return rec, ru, nil
}

// runAll runs every workload in ws both ways, each in a child, under
// base's seed, length and directories, and writes the results file.
func runAll(base runConfig, ws []workloadDef, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if outPath == "" {
		outPath = filepath.Join(base.OutDir, fmt.Sprintf("results.seed%d.json", base.Seed))
	}
	rf := resultsFile{Seed: base.Seed, Seconds: base.Seconds, Smoke: base.Smoke, GoVersion: runtime.Version(),
		CPUs: runtime.NumCPU(), Workloads: map[string]workloadResults{}}
	t0 := time.Now()
	ok := true
	for _, w := range ws {
		cfg := base
		cfg.Workload, cfg.Trace = w.Name, false
		fmt.Fprintf(os.Stderr, "== %s (untraced)\n", w.Name)
		plain, ru, err := runChild(self, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		cfg.Trace = true
		fmt.Fprintf(os.Stderr, "== %s (traced)\n", w.Name)
		traced, _, err := runChild(self, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		wr := workloadResults{
			Correct:   plain.Result.Correct && traced.Result.Correct,
			Attempted: plain.Result.Attempted, Failed: plain.Result.Failed + traced.Result.Failed,
			EndToEnd: plain.Result.Metrics, HostTime: plain.HostTime, PerLayer: traced.Result.Metrics,
			Fingerprints: plain.Fingerprints, Spreads: plain.Spreads, Info: plain.Info, TracedInfo: traced.Info,
		}
		if ru != nil {
			wr.ChildRSSMB = float64(ru.Maxrss) / 1024
			wr.ChildCPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		}
		if w.exact {
			for _, bad := range fingerprintMismatches(plain.Fingerprints, traced.Fingerprints) {
				fmt.Fprintf(os.Stderr, "benchmark: FAILED: %s: %s\n", w.Name, bad)
				wr.Correct = false
			}
		}
		ok = ok && wr.Correct
		rf.Workloads[w.Name] = wr
	}
	rf.WallS = time.Since(t0).Seconds()
	if err := writeJSON(outPath, &rf); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("results: %s (%.0f s)\n", outPath, rf.WallS)
	if !ok {
		fmt.Println("FAILED: at least one workload was incorrect (see above)")
		return 1
	}
	fmt.Printf("all %d workloads correct, fail_frac = 0 everywhere\n", len(ws))
	return 0
}

// fingerprintMismatches lists the fingerprints the traced and untraced
// runs of a deterministic workload disagree on.
func fingerprintMismatches(plain, traced map[string]string) []string {
	var bad []string
	for name, a := range plain {
		if b, ok := traced[name]; !ok || a != b {
			bad = append(bad, fmt.Sprintf("%s fingerprint: untraced %.12s, traced %.12s", name, a, b))
		}
	}
	return bad
}
