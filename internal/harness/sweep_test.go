package harness

import (
	"errors"
	"strings"
	"testing"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
)

// testJobs builds a small heterogeneous job list (every BEP variant over
// two benchmarks) at tiny sizes.
func testJobs(opt Options) []Job {
	var jobs []Job
	for _, bench := range []string{"queue", "hash"} {
		for _, variant := range BEPVariants {
			j := microJob(bench, opt, config(opt.Threads, variant))
			j.Key = bench + "/" + variant
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// fingerprints maps a result slice to per-job digests.
func fingerprints(t *testing.T, rs []*machine.Result) []string {
	t.Helper()
	out := make([]string, len(rs))
	for i, r := range rs {
		f, err := stats.Fingerprint(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = f
	}
	return out
}

// TestSweepSubmissionOrder: pooled results must land at their submission
// index and match a fully serial execution bit for bit.
func TestSweepSubmissionOrder(t *testing.T) {
	opt := tinyOpt()
	serial, err := Sweep(testJobs(opt), SweepOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Sweep(testJobs(opt), SweepOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	fs, fp := fingerprints(t, serial), fingerprints(t, pooled)
	for i := range fs {
		if fs[i] != fp[i] {
			t.Fatalf("job %d diverged between serial and pooled execution", i)
		}
	}
	// Distinct variants over one bench really are distinct runs (the
	// slice is not accidentally aliased).
	if fs[0] == fs[3] {
		t.Fatal("LB and LB++ produced identical results; sweep likely misassigned jobs")
	}
}

// TestSweepErrorDeterministic: with several failing jobs, the reported
// failure is always the lowest-indexed one, regardless of scheduling.
func TestSweepErrorDeterministic(t *testing.T) {
	opt := tinyOpt()
	boom := errors.New("boom")
	var jobs []Job
	for _, j := range testJobs(opt) {
		jobs = append(jobs, j)
	}
	fail := func(key string) Job {
		return Job{Key: key, Cfg: config(opt.Threads, "LB"),
			Gen: func() (*trace.Program, error) { return nil, boom }}
	}
	jobs[2] = fail("fail-low")
	jobs[6] = fail("fail-high")
	for i := 0; i < 4; i++ {
		_, err := Sweep(jobs, SweepOptions{Parallelism: 8})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
		if !strings.Contains(err.Error(), "fail-low") {
			t.Fatalf("error not from lowest-indexed failing job: %v", err)
		}
	}
}

// TestSweepDeadlockPolicy: a deadlocking job fails the sweep by default
// and is returned as a Result under AllowDeadlock.
func TestSweepDeadlockPolicy(t *testing.T) {
	// The Figure 5(a) circular-dependence kernel with splitting disabled.
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.LLCBanks = 4
	cfg.LLCSets = 64
	cfg.Model = machine.LB
	cfg.IDT = true
	cfg.EnableSplit = false
	gen := func() (*trace.Program, error) {
		var t0, t1 trace.Builder
		t0.Store(0).Compute(100).Load(64).Store(128)
		t1.Store(64).Compute(100).Load(0).Store(192)
		return &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}, nil
	}
	jobs := []Job{{Key: "fig5", Cfg: cfg, Gen: gen}}
	if _, err := Sweep(jobs, SweepOptions{}); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlocked job did not fail the sweep: %v", err)
	}
	rs, err := Sweep(jobs, SweepOptions{AllowDeadlock: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Deadlocked {
		t.Fatal("AllowDeadlock result not flagged Deadlocked")
	}
}

// TestSweepVerifyDeterminism: the serial re-execution pass accepts the
// (deterministic) simulator.
func TestSweepVerifyDeterminism(t *testing.T) {
	opt := tinyOpt()
	jobs := testJobs(opt)[:4]
	if _, err := Sweep(jobs, SweepOptions{Parallelism: 4, VerifyDeterminism: true}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepRaceStressFig11 is the race-detector stress for the worker
// pool: a full Figure 11 sweep (every micro-benchmark under every BEP
// variant) at parallelism 8. Any mutable state shared between machine
// instances — a stray global, an aliased slice, a shared probe — shows
// up here under `go test -race`. The pooled results must also match the
// serial reference exactly.
func TestSweepRaceStressFig11(t *testing.T) {
	opt := tinyOpt()
	opt.Parallelism = 8
	pooled, err := RunBEP(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 1
	serial, err := RunBEP(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range pooled.Rows {
		for _, v := range BEPVariants {
			fp, err := stats.Fingerprint(pooled.Results[bench][v])
			if err != nil {
				t.Fatal(err)
			}
			fs, err := stats.Fingerprint(serial.Results[bench][v])
			if err != nil {
				t.Fatal(err)
			}
			if fp != fs {
				t.Fatalf("%s/%s: parallel-8 result differs from serial", bench, v)
			}
		}
	}
}
