// Crash-injection harness: deterministic scripted load so that the same
// seed always produces the same request stream, a crash instant injected
// at any cycle, and a verified recovery report. Tests sweep hundreds of
// crash instants across a run through RunShardedScript (shardscript.go),
// the one scripted driver; the pmkvd self-check fans the same instants
// out to every shard.
package pmkv

import (
	"fmt"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// ScriptSpec generates a deterministic workload: Rounds batches, each with
// one request per session, mixed Put/Get/Delete over a bounded key space.
// Sessions sharing buckets (KeySpace small relative to Sessions*Rounds)
// produce inter-thread publish conflicts — the interesting case.
type ScriptSpec struct {
	Sessions   int
	Rounds     int
	KeySpace   int
	ValueBytes int // maximum value size; actual sizes vary per op
	Seed       uint64
	// PutPct/GetPct set the op mix in percent (defaults 70/15, remainder
	// Delete); zero means default, so existing specs keep their exact
	// request streams and fingerprints.
	PutPct, GetPct int
	// Keys, when non-nil, overrides the key universe: each op draws
	// uniformly from Keys instead of the generated k%03d space. The rng
	// consumes one draw either way, so crash sweeps over the same seed
	// stay aligned (the metamorphic tests pin keys to one shard with it).
	Keys []string
}

// fill applies defaults.
func (s *ScriptSpec) fill() {
	if s.Sessions <= 0 {
		s.Sessions = 4
	}
	if s.Rounds <= 0 {
		s.Rounds = 16
	}
	if s.KeySpace <= 0 {
		s.KeySpace = 24
	}
	if s.ValueBytes <= 0 {
		s.ValueBytes = 192
	}
	if s.PutPct <= 0 {
		s.PutPct = 70
	}
	if s.GetPct <= 0 {
		s.GetPct = 15
	}
	if s.PutPct+s.GetPct > 100 {
		s.PutPct, s.GetPct = 70, 15
	}
}

// scriptOp is one scripted request before session binding.
type scriptOp struct {
	op    Op
	key   string
	value []byte
}

// genScript expands the spec into Rounds x Sessions requests. Generation
// is a pure function of the spec, independent of crash timing, so every
// crash instant replays the identical load.
func genScript(spec ScriptSpec) [][]scriptOp {
	rng := trace.NewRand(spec.Seed)
	rounds := make([][]scriptOp, spec.Rounds)
	for r := range rounds {
		rounds[r] = make([]scriptOp, spec.Sessions)
		for s := range rounds[r] {
			var key string
			if len(spec.Keys) > 0 {
				key = spec.Keys[rng.Intn(len(spec.Keys))]
			} else {
				key = fmt.Sprintf("k%03d", rng.Intn(spec.KeySpace))
			}
			roll := rng.Intn(100)
			switch {
			case roll < spec.PutPct:
				n := 1 + rng.Intn(spec.ValueBytes)
				val := make([]byte, n)
				for i := range val {
					val[i] = byte(rng.Uint64())
				}
				rounds[r][s] = scriptOp{op: Put, key: key, value: val}
			case roll < spec.PutPct+spec.GetPct:
				rounds[r][s] = scriptOp{op: Get, key: key}
			default:
				rounds[r][s] = scriptOp{op: Delete, key: key}
			}
		}
	}
	return rounds
}

// ScriptedOp is one scripted request, exported for counterexample
// transcripts: the round and session it runs in, the op, its key, and
// the value size (values themselves are deterministic from the spec).
type ScriptedOp struct {
	Round, Sess int
	Op          Op
	Key         string
	ValueLen    int
}

// ScriptOps expands a spec into its full op trace in execution order —
// the transcript a fuzzer prints for a minimized counterexample.
func ScriptOps(spec ScriptSpec) []ScriptedOp {
	spec.fill()
	var out []ScriptedOp
	for r, round := range genScript(spec) {
		for s, op := range round {
			out = append(out, ScriptedOp{Round: r, Sess: s, Op: op.op, Key: op.key, ValueLen: len(op.value)})
		}
	}
	return out
}

// RunResult is the outcome of one scripted run.
type RunResult struct {
	// Crashed reports whether the configured crash instant was reached
	// before the script completed.
	Crashed bool
	// Cycles is the final simulated cycle (the crash instant, or the
	// clean-drain completion time).
	Cycles sim.Cycle
	// RoundsApplied counts fully applied request batches.
	RoundsApplied int
	// Report is the verification result; Recovered the durable state.
	Report    *Report
	Recovered map[string][]byte
	// DL is the durable-linearizability verdict (nil unless cfg.Check).
	DL *dlcheck.Verdict
}

// SweepInstants spreads n crash instants evenly over (0, total], skipping
// cycle 0 (which means "no crash" to the engine).
func SweepInstants(total sim.Cycle, n int) []sim.Cycle {
	if n <= 0 || total == 0 {
		return nil
	}
	out := make([]sim.Cycle, 0, n)
	for i := 1; i <= n; i++ {
		c := total * sim.Cycle(i) / sim.Cycle(n)
		if c == 0 {
			c = 1
		}
		out = append(out, c)
	}
	return out
}
