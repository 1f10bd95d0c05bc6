// Package fuzz is the randomized durable-linearizability workload
// driver: it decodes arbitrary bytes into a bounded scripted case
// (op mix × sessions × keyspace × shard count × crash instant), runs
// the case with the online checker enabled, and — when a case fails —
// minimizes it and renders an op-trace transcript for the artifact a
// CI fuzz job uploads. The native fuzz target lives in this package's
// test file; this driver is plain library code so selfchecks and tools
// can reuse it.
package fuzz

import (
	"fmt"
	"strings"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/sim"
)

// Case is one decoded fuzz input: a bounded workload plus crash timing.
type Case struct {
	Sessions   int
	Rounds     int
	KeySpace   int
	ValueBytes int
	PutPct     int
	GetPct     int
	Shards     int
	Seed       uint64
	// Frac positions the crash instant at Frac/256 of the clean run's
	// length; 0 means clean drain only.
	Frac int
}

// Spec renders the case as a script spec.
func (c Case) Spec() pmkv.ScriptSpec {
	return pmkv.ScriptSpec{
		Sessions:   c.Sessions,
		Rounds:     c.Rounds,
		KeySpace:   c.KeySpace,
		ValueBytes: c.ValueBytes,
		Seed:       c.Seed,
		PutPct:     c.PutPct,
		GetPct:     c.GetPct,
	}
}

// CaseFromBytes is a total decoder: every byte slice maps to a valid,
// cost-bounded case (the trace.Interleave idiom). The first eight bytes
// shape the workload; every byte, including the tail, folds into the
// seed so distinct inputs explore distinct schedules. Sessions spans
// 1..16 so that, on the 4-core machine, up to four ops share a core in one
// scripted round and a Put's barrier also closes the previous publish's
// epoch; first bytes below 6 — every committed corpus seed — decode to
// the same session count as under the earlier 1..6 range.
func CaseFromBytes(data []byte) Case {
	var b [8]byte
	copy(b[:], data)
	seed := uint64(0xcbf29ce484222325)
	for _, x := range data {
		seed ^= uint64(x)
		seed *= 0x100000001b3
	}
	put := 20 + int(b[4])%61 // 20..80
	get := 5 + int(b[5])%(95-put)
	return Case{
		Sessions:   1 + int(b[0])%16,
		Rounds:     1 + int(b[1])%14,
		KeySpace:   1 + int(b[2])%12,
		ValueBytes: 1 + (int(b[3])%8)*16,
		PutPct:     put,
		GetPct:     get,
		Shards:     []int{1, 1, 2, 4}[int(b[6])%4],
		Seed:       seed,
		Frac:       int(b[7]),
	}
}

// Failure is a case the checker rejected, pinned to the absolute crash
// instant at which it failed (0: the clean drain itself failed).
type Failure struct {
	Case Case
	At   sim.Cycle
	Err  error
}

// runAt executes the case at one absolute crash instant (0 = no crash)
// with the online checker armed, returning the verification error, if
// any, and the run's final cycle.
func runAt(c Case, at sim.Cycle) (sim.Cycle, error) {
	out, err := pmkv.RunShardedScript(pmkv.ShardedConfig{
		Shards: c.Shards,
		Engine: pmkv.Config{CrashAt: at, Check: true},
	}, pmkv.GenScript(c.Spec()))
	var cycles sim.Cycle
	for _, s := range out {
		cycles = max(cycles, s.Stats.Cycle)
	}
	return cycles, err
}

// Run executes the case: a clean drain first (also measuring the run
// length), then — when Frac is nonzero — a crash at Frac/256 of that
// length. It returns nil when every verdict and invariant holds.
func Run(c Case) *Failure {
	cycles, err := runAt(c, 0)
	if err != nil {
		return &Failure{Case: c, At: 0, Err: err}
	}
	if c.Frac == 0 || cycles == 0 {
		return nil
	}
	at := cycles * sim.Cycle(c.Frac) / 256
	if at == 0 {
		at = 1
	}
	if _, err := runAt(c, at); err != nil {
		return &Failure{Case: c, At: at, Err: err}
	}
	return nil
}

// liveWindow is how many requests each session keeps in flight in liveRun:
// enough that one group commit carries several writes of one session (and
// so of one core), few enough that the completion queue stays tiny.
const liveWindow = 4

// liveRun replays the case's scripted ops against a live ShardedStore —
// the server-facing engine with its GET fast path — with the online
// checker armed, crashing at the given instant (0 = clean drain). It
// returns the combined recovery fingerprint and the first verification or
// checker error. One goroutine issues every op in script order through
// DoAsync, each session keeping up to liveWindow requests in flight, so
// commit windows hold consecutive writes of one core and the crash runs
// cross epochs that merge one publish with the next Put's entries. On a
// clean drain, two writes to one key are additionally never in flight
// together (same-window publishes from different cores may commit in
// either order), which with the single issuer and FIFO mailboxes fixes
// every key's mutation order, so clean-drain fingerprints are comparable
// across fast-path configurations; crash runs are judged by recovery and
// the checker alone and keep their windows full.
func liveRun(c Case, at sim.Cycle, disableFast bool) (string, sim.Cycle, error) {
	store, err := pmkv.NewSharded(pmkv.ShardedConfig{
		Shards:          c.Shards,
		Engine:          pmkv.Config{CrashAt: at, Check: true},
		DisableReadFast: disableFast,
	})
	if err != nil {
		return "", 0, err
	}
	// Completions are tagged with the op's index in script order.
	var ops []pmkv.ScriptedOp
	for _, batch := range pmkv.GenScript(c.Spec()) {
		ops = append(ops, batch...)
	}
	sessions := make([]*pmkv.ShardedSession, ops[len(ops)-1].Sess+1)
	for i := range sessions {
		sessions[i] = store.NewSession()
	}
	// The queue holds every request that can be outstanding, so the
	// workers' sends never block.
	done := make(chan pmkv.Completion, liveWindow*len(sessions))
	inFlight := make([]int, len(sessions))
	writes := make(map[string]int) // in-flight writes per key
	retire := func() {
		op := ops[(<-done).Tag]
		inFlight[op.Sess]--
		if op.Op != pmkv.Get {
			writes[op.Key]--
		}
	}
	for i, op := range ops {
		for inFlight[op.Sess] == liveWindow || (at == 0 && op.Op != pmkv.Get && writes[op.Key] > 0) {
			retire()
		}
		// A refused request gets no completion; acks themselves are not
		// inspected — recovery and the checker judge the run.
		if _, err := store.DoAsync(sessions[op.Sess], op.Op, op.Key, op.Value, nil, uint64(i), done); err != nil {
			continue
		}
		inFlight[op.Sess]++
		if op.Op != pmkv.Get {
			writes[op.Key]++
		}
	}
	for _, n := range inFlight {
		for ; n > 0; n-- {
			<-done
		}
	}
	results, err := store.Close()
	if err != nil {
		return "", 0, err
	}
	var cycles sim.Cycle
	for _, r := range results {
		if r.DL == nil {
			return "", 0, fmt.Errorf("shard %d: checker not armed", r.Shard)
		}
		cycles = max(cycles, r.Cycles)
	}
	return pmkv.CombineFingerprints(results), cycles, nil
}

// RunLive executes the case against the live store with the GET fast
// path toggled both ways: clean drains must verify, pass the checker,
// and recover byte-identical fingerprints; crashed runs (Frac != 0,
// crash instant scaled to the live clean run's length) must verify and
// pass the checker in both configurations. Returns nil when every
// equivalence holds.
func RunLive(c Case) *Failure {
	fpOn, cycles, err := liveRun(c, 0, false)
	if err != nil {
		return &Failure{Case: c, At: 0, Err: fmt.Errorf("live fast-on: %w", err)}
	}
	fpOff, _, err := liveRun(c, 0, true)
	if err != nil {
		return &Failure{Case: c, At: 0, Err: fmt.Errorf("live fast-off: %w", err)}
	}
	if fpOn != fpOff {
		return &Failure{Case: c, At: 0, Err: fmt.Errorf(
			"live clean-drain fingerprints diverge: fast-on %s, fast-off %s", fpOn, fpOff)}
	}
	if c.Frac == 0 || cycles == 0 {
		return nil
	}
	at := cycles * sim.Cycle(c.Frac) / 256
	if at == 0 {
		at = 1
	}
	if _, _, err := liveRun(c, at, false); err != nil {
		return &Failure{Case: c, At: at, Err: fmt.Errorf("live fast-on: %w", err)}
	}
	if _, _, err := liveRun(c, at, true); err != nil {
		return &Failure{Case: c, At: at, Err: fmt.Errorf("live fast-off: %w", err)}
	}
	return nil
}

// Minimize greedily shrinks a failing case while it keeps failing at
// the same absolute crash instant: rounds first (halving, then
// decrement), then sessions, keyspace, and value size. The budget bounds
// total re-runs so minimization stays cheap enough for a fuzz crash
// handler.
func Minimize(f *Failure) *Failure {
	if f == nil {
		return nil
	}
	best := *f
	budget := 64
	try := func(c Case) bool {
		if budget == 0 {
			return false
		}
		budget--
		if _, err := runAt(c, best.At); err != nil {
			best = Failure{Case: c, At: best.At, Err: err}
			return true
		}
		return false
	}
	for best.Case.Rounds > 1 {
		c := best.Case
		c.Rounds /= 2
		if !try(c) {
			break
		}
	}
	for best.Case.Rounds > 1 {
		c := best.Case
		c.Rounds--
		if !try(c) {
			break
		}
	}
	for best.Case.Sessions > 1 {
		c := best.Case
		c.Sessions--
		if !try(c) {
			break
		}
	}
	for best.Case.KeySpace > 1 {
		c := best.Case
		c.KeySpace--
		if !try(c) {
			break
		}
	}
	for best.Case.ValueBytes > 1 {
		c := best.Case
		c.ValueBytes = 1
		if !try(c) {
			break
		}
	}
	return &best
}

// Transcript renders a failure as the op-trace artifact: the case
// parameters, the crash instant, the checker's full diagnosis, and the
// deterministic op list the seed expands to.
func Transcript(f *Failure) string {
	if f == nil {
		return ""
	}
	var sb strings.Builder
	c := f.Case
	fmt.Fprintf(&sb, "pmkv durable-linearizability counterexample\n")
	fmt.Fprintf(&sb, "case: sessions=%d rounds=%d keyspace=%d valuebytes=%d put%%=%d get%%=%d shards=%d seed=%#x frac=%d/256\n",
		c.Sessions, c.Rounds, c.KeySpace, c.ValueBytes, c.PutPct, c.GetPct, c.Shards, c.Seed, c.Frac)
	fmt.Fprintf(&sb, "crash instant: cycle %d (0 = clean drain)\n", f.At)
	fmt.Fprintf(&sb, "error: %v\n", f.Err)
	sb.WriteString("op trace (round session op key valuelen [shard]):\n")
	for r, batch := range pmkv.GenScript(c.Spec()) {
		for _, op := range batch {
			fmt.Fprintf(&sb, "  r%02d s%d %-3v %s %d", r, op.Sess, op.Op, op.Key, len(op.Value))
			if c.Shards > 1 {
				fmt.Fprintf(&sb, " shard%d", pmkv.ShardOf(op.Key, c.Shards))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
