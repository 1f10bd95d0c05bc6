// Crash-injection harness: a deterministic scripted load, so the same seed
// always produces the same request stream, a crash instant injected at
// any cycle, and a verified recovery report. GenScript materialises the
// load as a Script; tests sweep hundreds of crash instants across a run
// through RunShardedScript (shardscript.go), the one scripted driver, and
// the pmkvd self-check fans the same instants out to every shard.
package pmkv

import (
	"fmt"

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

// ScriptedOp is one scripted request: the session that issues it, the op,
// its key and, for a Put, its value.
type ScriptedOp struct {
	Sess  int
	Op    Op
	Key   string
	Value []byte
}

// Script is a materialised load, one batch per round. The driver runs each
// batch as one Apply per shard, so a batch is one commit window.
type Script [][]ScriptedOp

// GenScript expands the spec into Rounds batches of one op per session, in
// session order. Generation is a pure function of the spec, independent of
// crash timing, so every crash instant replays the identical load.
func GenScript(spec ScriptSpec) Script {
	spec.fill()
	rng := trace.NewRand(spec.Seed)
	script := make(Script, spec.Rounds)
	for r := range script {
		script[r] = make([]ScriptedOp, spec.Sessions)
		for s := range script[r] {
			op := ScriptedOp{Sess: s, Key: fmt.Sprintf("k%03d", rng.Intn(spec.KeySpace))}
			roll := rng.Intn(100)
			switch {
			case roll < spec.PutPct:
				op.Op = Put
				op.Value = make([]byte, 1+rng.Intn(spec.ValueBytes))
				for i := range op.Value {
					op.Value[i] = byte(rng.Uint64())
				}
			case roll < spec.PutPct+spec.GetPct:
				op.Op = Get
			default:
				op.Op = Delete
			}
			script[r][s] = op
		}
	}
	return script
}

// sessions is the number of sessions the script names: one past the
// highest session index any op carries.
func (s Script) sessions() int {
	n := 0
	for _, batch := range s {
		for _, op := range batch {
			n = max(n, op.Sess+1)
		}
	}
	return n
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
