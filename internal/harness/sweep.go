package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
)

// Job is one independent simulation of a sweep: a machine configuration
// plus a deterministic program generator. Jobs never share mutable state —
// each run builds its own machine, and Gen regenerates the program so two
// workers can execute the same job without touching a shared trace.
type Job struct {
	// Key names the job in error messages and logs ("queue/LB++").
	Key string
	// Cfg is the machine configuration. Cfg.Probe, when set, must be
	// private to this job: probes receive the machine's event stream and
	// sharing one across concurrent runs would interleave streams.
	Cfg machine.Config
	// Gen deterministically regenerates the job's program.
	Gen func() (*trace.Program, error)
	// Each, when set, is handed the machine's counters every Window
	// cycles (machine.RunEvery). Like Cfg.Probe it must be private to
	// the job.
	Window sim.Cycle
	Each   func(machine.Counters)
}

// SweepOptions controls a Sweep run.
type SweepOptions struct {
	// Parallelism is the worker count; <= 0 means GOMAXPROCS.
	Parallelism int
	// VerifyDeterminism re-executes every job serially after the pooled
	// pass and fails on any divergence between the two Results — the
	// bit-for-bit guarantee the recovery checker and golden tests assume.
	VerifyDeterminism bool
	// AllowDeadlock returns deadlocked Results to the caller instead of
	// failing the sweep (cmd/persistsim reports them per run).
	AllowDeadlock bool
}

// workers resolves the effective pool size for n jobs.
func (o SweepOptions) workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// sweepOptions projects the experiment Options onto the sweep engine.
func (o Options) sweepOptions() SweepOptions {
	return SweepOptions{
		Parallelism:       o.Parallelism,
		VerifyDeterminism: o.VerifyDeterminism,
	}
}

// Sweep fans the jobs across a worker pool and returns their Results in
// submission order. Every job is independent (own machine, own program),
// so the only shared state is the result slice, written at distinct
// indices. On error the sweep still drains remaining workers and reports
// the failure of the lowest-indexed failing job, so the outcome is
// deterministic regardless of scheduling.
func Sweep(jobs []Job, opt SweepOptions) ([]*machine.Result, error) {
	results := make([]*machine.Result, len(jobs))
	errs := make([]error, len(jobs))
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < opt.workers(len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				results[i], errs[i] = runJob(jobs[i], opt)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].Key, err)
		}
	}
	if opt.VerifyDeterminism {
		if err := verifyDeterminism(jobs, results, opt); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// verifyDeterminism re-runs every job on the calling goroutine (the
// serial reference) and compares full-Result fingerprints — covering
// every counter, per-core stall vector, and, when recorded, the persist
// log — against the pooled pass.
func verifyDeterminism(jobs []Job, pooled []*machine.Result, opt SweepOptions) error {
	serial := SweepOptions{AllowDeadlock: opt.AllowDeadlock}
	for i, job := range jobs {
		ref, err := runJob(job, serial)
		if err != nil {
			return fmt.Errorf("%s: serial verification run: %w", job.Key, err)
		}
		fp, err := stats.Fingerprint(pooled[i])
		if err != nil {
			return fmt.Errorf("%s: %w", job.Key, err)
		}
		fr, err := stats.Fingerprint(ref)
		if err != nil {
			return fmt.Errorf("%s: %w", job.Key, err)
		}
		if fp != fr {
			return fmt.Errorf("harness: determinism violation in %s: parallel run %s != serial run %s",
				job.Key, fp[:12], fr[:12])
		}
	}
	return nil
}

// runJob simulates one job.
func runJob(job Job, opt SweepOptions) (*machine.Result, error) {
	p, err := job.Gen()
	if err != nil {
		return nil, err
	}
	m, err := machine.New(job.Cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Load(p); err != nil {
		return nil, err
	}
	r, err := m.RunEvery(job.Window, job.Each)
	if err != nil {
		return nil, err
	}
	if r.Deadlocked && !opt.AllowDeadlock {
		return nil, fmt.Errorf("harness: %s run deadlocked", job.Cfg.BarrierName())
	}
	return r, nil
}
