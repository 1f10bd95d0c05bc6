package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark executable:
// the all-workloads run re-executes itself per workload (runChild, whose
// first argument is always -workload), and under `go test` "itself" is
// this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-workload" {
		main()
		return
	}
	os.Exit(m.Run())
}

func smokeConfig(t *testing.T, workload string, trace bool, dir string) runConfig {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := newRunConfig(root, workload, 1, 0.3, trace, true)
	cfg.OutDir, cfg.BinDir = filepath.Join(dir, "out"), filepath.Join(dir, "bin")
	return cfg
}

// TestSmokeEveryWorkloadBothWays drives every path: each workload
// untraced and traced at toy size, with every correctness check live,
// then looks for anything left behind.
func TestSmokeEveryWorkloadBothWays(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pmkvd children")
	}
	t.Parallel()
	dir := t.TempDir()
	if _, err := buildServer(smokeConfig(t, "", false, dir).Root, filepath.Join(dir, "bin")); err != nil {
		t.Skipf("cannot build pmkvd here: %v", err)
	}
	var addrs []string
	for _, w := range workloads {
		fps := map[bool]map[string]string{}
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w.Name, trace, dir)
			rec, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", w.Name, cfg.mode(), err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("%s (%s): correct=%v attempted=%d failed=%d: %v", w.Name, cfg.mode(),
					rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rec.Result.Metrics) != len(defs) {
				t.Errorf("%s (%s): %d metrics, want %d", w.Name, cfg.mode(), len(rec.Result.Metrics), len(defs))
			}
			if !trace {
				for _, d := range endToEnd {
					if rec.Result.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g; every one must be positive on every workload",
							w.Name, d.Name, rec.Result.Metrics[d.Name].Value)
					}
				}
			}
			// Every run measures the host-time three: an untraced run
			// beside its result, a traced run inside it.
			host := rec.HostTime
			if trace {
				host = rec.Result.Metrics
			}
			for _, d := range hostTime {
				if host[d.Name].Value <= 0 {
					t.Errorf("%s (%s): host-time metric %s = %g", w.Name, cfg.mode(), d.Name, host[d.Name].Value)
				}
			}
			if trace {
				var tf traceFile
				b, err := os.ReadFile(filepath.Join(cfg.OutDir, w.Name+".trace.json"))
				if err == nil {
					err = json.Unmarshal(b, &tf)
				}
				if err != nil || len(tf.Spans) == 0 || tf.Workload != w.Name {
					t.Errorf("%s: trace file: err=%v spans=%d", w.Name, err, len(tf.Spans))
				}
				for i, s := range tf.Spans {
					if s.EndNS < s.StartNS || s.Parent >= i {
						t.Errorf("%s: span %d (%s) is malformed: %+v", w.Name, i, s.Name, s)
						break
					}
				}
			}
			fps[trace] = rec.Fingerprints
		}
		if w.exact {
			if bad := fingerprintMismatches(fps[false], fps[true]); len(bad) != 0 || len(fps[false]) == 0 {
				t.Errorf("%s: traced and untraced runs disagree: %v (have %v)", w.Name, bad, fps[false])
			}
		}
	}

	// Child hygiene: no server is still registered, and none is listening.
	liveMu.Lock()
	left := len(live)
	liveMu.Unlock()
	if left != 0 {
		t.Errorf("%d pmkvd children still registered", left)
	}
	srv, err := startServer(filepath.Join(dir, "bin", "pmkvd"), true)
	if err != nil {
		t.Fatal(err)
	}
	addrs = append(addrs, srv.addr, srv.admin)
	if rep, err := srv.stop(); err != nil || !rep.InvariantOK {
		t.Errorf("idle server drain: %v %+v", err, rep)
	}
	srv2, err := startServer(filepath.Join(dir, "bin", "pmkvd"), false)
	if err != nil {
		t.Fatal(err)
	}
	addrs = append(addrs, srv2.addr)
	killAllServers() // the failure path
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("%s is still listening after its server was stopped", a)
		}
	}
}

// TestAllWorkloadsRunThroughChildren covers the parent's side: fresh
// children, the results file, and compare on an A/A pair.
func TestAllWorkloadsRunThroughChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	t.Parallel()
	dir := t.TempDir()
	base := smokeConfig(t, "", false, dir)
	two := []workloadDef{*findWorkload("sim-bep"), *findWorkload("engine-crash")}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, path := range []string{a, b} {
		if code := runAll(base, two, path); code != 0 {
			t.Fatalf("all-workloads run exited %d", code)
		}
	}
	ra, err := loadResults(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := loadResults(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range two {
		wa, wb := ra.Workloads[w.Name], rb.Workloads[w.Name]
		if !wa.Correct || len(wa.EndToEnd) != len(endToEnd) || len(wa.PerLayer) != len(perLayer) {
			t.Errorf("%s: correct=%v, %d end-to-end and %d per-layer metrics", w.Name, wa.Correct, len(wa.EndToEnd), len(wa.PerLayer))
		}
		// Same seed, same code: every simulated statistic agrees exactly.
		if bad := fingerprintMismatches(wa.Fingerprints, wb.Fingerprints); len(bad) != 0 {
			t.Errorf("%s: two runs of one seed disagree: %v", w.Name, bad)
		}
		for _, name := range []string{"machine.exec_cycles", "machine.flushes", "machine.persisted_lines", "engine.sim_cycles_per_op", "recovery.records"} {
			if wa.PerLayer[name].Value != wb.PerLayer[name].Value {
				t.Errorf("%s: %s is %g then %g for one seed", w.Name, name, wa.PerLayer[name].Value, wb.PerLayer[name].Value)
			}
		}
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json, which the driver
// reads, byte for byte what the program's own tables say (regenerate with
// `go run -C benchmark . manifest > BENCHMARK.json` at the repo root), and
// holds those tables to the driver's limits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if seen[n] {
			t.Errorf("%s name %s is used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEnd {
		name("metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > endToEnd[0].Bound {
			t.Errorf("end-to-end %s: bound %g (setup_s, listed first, carries the largest)", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		name("metric", d.Name)
	}
	if endToEnd[0].Name != "setup_s" || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end (first %s), %d per-layer", len(workloads), len(endToEnd), endToEnd[0].Name, len(perLayer))
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Errorf("BENCHMARK.json is not what the registry says; run `go run -C benchmark . manifest > BENCHMARK.json` at the repo root")
	}
}
