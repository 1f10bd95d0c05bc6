// The randomized durable-linearizability fuzzer: arbitrary bytes decode to
// a bounded scripted case (op mix × sessions × keyspace × shard count ×
// crash instant), the case runs with the online checker armed and the
// client-history oracle behind it, then against the live store with the
// GET fast path on and off, and a rejected case is minimized and rendered
// as the op-trace transcript a CI fuzz job uploads.
package pmkv

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"persistbarriers/internal/sim"
)

// fuzzCase is one decoded fuzz input: a bounded workload plus crash timing.
type fuzzCase struct {
	scriptSpec
	Shards int
	// Frac positions the crash instant at Frac/256 of the clean run's
	// length; 0 means clean drain only.
	Frac int
}

// caseFromBytes is a total decoder: every byte slice maps to a valid,
// cost-bounded case (the trace.Interleave idiom). The first eight bytes
// shape the workload; every byte, including the tail, folds into the
// seed so distinct inputs explore distinct schedules. Sessions spans
// 1..16 so that, on the 4-core machine, up to four ops share a core in one
// scripted round and a Put's barrier also closes the previous publish's
// epoch; first bytes below 6 — every committed corpus seed — decode to
// the same session count as under the earlier 1..6 range.
func caseFromBytes(data []byte) fuzzCase {
	var b [8]byte
	copy(b[:], data)
	seed := uint64(0xcbf29ce484222325)
	for _, x := range data {
		seed ^= uint64(x)
		seed *= 0x100000001b3
	}
	put := 20 + int(b[4])%61 // 20..80
	get := 5 + int(b[5])%(95-put)
	return fuzzCase{
		scriptSpec: scriptSpec{
			Sessions:   1 + int(b[0])%16,
			Rounds:     1 + int(b[1])%14,
			KeySpace:   1 + int(b[2])%12,
			ValueBytes: 1 + (int(b[3])%8)*16,
			Seed:       seed,
			PutPct:     put,
			GetPct:     get,
		},
		Shards: []int{1, 1, 2, 4}[int(b[6])%4],
		Frac:   int(b[7]),
	}
}

// fuzzFailure is a case a check rejected, pinned to the absolute crash
// instant at which it failed (0: the clean drain itself failed).
type fuzzFailure struct {
	c   fuzzCase
	at  sim.Cycle
	err error
}

// crashAt is where the case crashes a run whose clean drain ended at
// cycles: Frac/256 of the way in, never cycle 0 (0: the case runs clean
// only).
func (c fuzzCase) crashAt(cycles sim.Cycle) sim.Cycle {
	if c.Frac == 0 || cycles == 0 {
		return 0
	}
	return max(1, cycles*sim.Cycle(c.Frac)/256)
}

// runAt runs the case's script once at one absolute crash instant (0 = no
// crash), checker armed, on engines with bug planted (plantNone: honest
// ones). A run Verify and the checker pass is then held to the
// client-history oracle. It returns the shards' results and the first
// rejection.
func runAt(c fuzzCase, at sim.Cycle, bug plantedBug) ([]ShardResult, error) {
	engines, err := plantedEngines(Config{CrashAt: at, Check: true}, c.Shards, bug)
	if err != nil {
		return nil, err
	}
	out, err := runScript(engines, genScript(c.scriptSpec))
	if err == nil {
		err = oracleCheck(out)
	}
	return out, err
}

// lastCycle is the clock the last of a run's shards ended at.
func lastCycle(out []ShardResult) sim.Cycle {
	var cycles sim.Cycle
	for _, r := range out {
		cycles = max(cycles, r.Stats.Cycle)
	}
	return cycles
}

// run executes the case on an honest engine: a clean drain first (also
// measuring the run length), then — when Frac is nonzero — a crash at
// Frac/256 of that length. It returns nil when every check passes.
func (c fuzzCase) run() *fuzzFailure {
	clean, err := runAt(c, 0, plantNone)
	if err != nil {
		return &fuzzFailure{c: c, err: err}
	}
	if at := c.crashAt(lastCycle(clean)); at != 0 {
		if _, err := runAt(c, at, plantNone); err != nil {
			return &fuzzFailure{c: c, at: at, err: err}
		}
	}
	return nil
}

// liveWindow is how many requests each session keeps in flight in liveRun:
// enough that one group commit carries several writes of one session (and
// so of one core), few enough that the completion queue stays tiny.
const liveWindow = 4

// liveRun replays the case's scripted ops against a live ShardedStore —
// the server-facing engine with its GET fast path, unless disableFast —
// with the online checker armed, crashing at the given instant (0 = clean
// drain). It returns the combined recovery fingerprint, the run's final
// clock, how many GETs the fast path served, and the first verification
// or checker error. One goroutine issues every op in script order through
// DoAsync, each session keeping up to liveWindow requests in flight, so
// commit windows hold consecutive writes of one core and the crash runs
// cross epochs that merge one publish with the next Put's entries. On a
// clean drain, two writes to one key are additionally never in flight
// together (same-window publishes from different cores may commit in
// either order), which with the single issuer and FIFO mailboxes fixes
// every key's mutation order, so clean-drain fingerprints are comparable
// across fast-path configurations; crash runs are judged by recovery and
// the checker alone and keep their windows full.
func liveRun(c fuzzCase, at sim.Cycle, disableFast bool) (string, sim.Cycle, uint64, error) {
	store, err := NewSharded(ShardedConfig{
		Shards:          c.Shards,
		Engine:          Config{CrashAt: at, Check: true},
		DisableReadFast: disableFast,
	})
	if err != nil {
		return "", 0, 0, err
	}
	// Completions are tagged with the op's index in script order.
	var ops []ScriptedOp
	for _, batch := range genScript(c.scriptSpec) {
		ops = append(ops, batch...)
	}
	sessions := make([]*ShardedSession, ops[len(ops)-1].Sess+1)
	for i := range sessions {
		sessions[i] = store.NewSession()
	}
	// The queue holds every request that can be outstanding, so the
	// workers' sends never block.
	done := make(chan Completion, liveWindow*len(sessions))
	inFlight := make([]int, len(sessions))
	writes := make(map[string]int) // in-flight writes per key
	retire := func() {
		op := ops[(<-done).Tag]
		inFlight[op.Sess]--
		if op.Op != Get {
			writes[op.Key]--
		}
	}
	for i, op := range ops {
		for inFlight[op.Sess] == liveWindow || (at == 0 && op.Op != Get && writes[op.Key] > 0) {
			retire()
		}
		// A refused request gets no completion; acks themselves are not
		// inspected — recovery and the checker judge the run.
		if _, err := store.DoAsync(sessions[op.Sess], op.Op, op.Key, op.Value, nil, uint64(i), done); err != nil {
			continue
		}
		inFlight[op.Sess]++
		if op.Op != Get {
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
		return "", 0, 0, err
	}
	var cycles sim.Cycle
	for _, r := range results {
		if r.DL == nil {
			return "", 0, 0, fmt.Errorf("shard %d: checker not armed", r.Shard)
		}
		cycles = max(cycles, r.Cycles)
	}
	var hits uint64
	for _, m := range store.Metrics() {
		hits += m.FastHits
	}
	return CombineFingerprints(results), cycles, hits, nil
}

// runLive executes the case against the live store with the GET fast path
// on and off; the mailbox path DisableReadFast forces is the reference the
// fast path is held to. Clean drains must verify, pass the checker, serve
// no GET fast with the path off, and recover byte-identical fingerprints
// (GETs never mutate, whichever path serves them); crashed runs (Frac !=
// 0, crash instant scaled to the live clean run's length) must verify and
// pass the checker in both configurations, their recovered prefixes free
// to differ with timing. It returns how many GETs the fast path served on
// the clean drain, and nil when every equivalence holds.
func runLive(c fuzzCase) (uint64, *fuzzFailure) {
	fail := func(at sim.Cycle, format string, args ...any) (uint64, *fuzzFailure) {
		return 0, &fuzzFailure{c: c, at: at, err: fmt.Errorf(format, args...)}
	}
	fpOn, cycles, hits, err := liveRun(c, 0, false)
	if err != nil {
		return fail(0, "live fast-on: %w", err)
	}
	fpOff, _, hitsOff, err := liveRun(c, 0, true)
	switch {
	case err != nil:
		return fail(0, "live fast-off: %w", err)
	case hitsOff != 0:
		return fail(0, "live fast-off: %d GETs served fast with the path disabled", hitsOff)
	case fpOn != fpOff:
		return fail(0, "live clean-drain fingerprints diverge: fast-on %s, fast-off %s", fpOn, fpOff)
	}
	if at := c.crashAt(cycles); at != 0 {
		if _, _, _, err := liveRun(c, at, false); err != nil {
			return fail(at, "live fast-on: %w", err)
		}
		if _, _, _, err := liveRun(c, at, true); err != nil {
			return fail(at, "live fast-off: %w", err)
		}
	}
	return hits, nil
}

// minimize greedily shrinks a failing case while it keeps failing at
// the same absolute crash instant: rounds first (halving, then
// decrement), then sessions, keyspace, and value size. The budget bounds
// total re-runs so minimization stays cheap enough for a fuzz crash
// handler.
func minimize(f *fuzzFailure) *fuzzFailure {
	if f == nil {
		return nil
	}
	best := *f
	budget := 64
	try := func(c fuzzCase) bool {
		if budget == 0 {
			return false
		}
		budget--
		if _, err := runAt(c, best.at, plantNone); err != nil {
			best = fuzzFailure{c: c, at: best.at, err: err}
			return true
		}
		return false
	}
	for best.c.Rounds > 1 {
		c := best.c
		c.Rounds /= 2
		if !try(c) {
			break
		}
	}
	for best.c.Rounds > 1 {
		c := best.c
		c.Rounds--
		if !try(c) {
			break
		}
	}
	for best.c.Sessions > 1 {
		c := best.c
		c.Sessions--
		if !try(c) {
			break
		}
	}
	for best.c.KeySpace > 1 {
		c := best.c
		c.KeySpace--
		if !try(c) {
			break
		}
	}
	for best.c.ValueBytes > 1 {
		c := best.c
		c.ValueBytes = 1
		if !try(c) {
			break
		}
	}
	return &best
}

// transcript renders a failure as the op-trace artifact: the case
// parameters, the crash instant, the checker's full diagnosis, and the
// deterministic op list the seed expands to.
func transcript(f *fuzzFailure) string {
	if f == nil {
		return ""
	}
	var sb strings.Builder
	c := f.c
	fmt.Fprintf(&sb, "pmkv durable-linearizability counterexample\n")
	fmt.Fprintf(&sb, "case: sessions=%d rounds=%d keyspace=%d valuebytes=%d put%%=%d get%%=%d shards=%d seed=%#x frac=%d/256\n",
		c.Sessions, c.Rounds, c.KeySpace, c.ValueBytes, c.PutPct, c.GetPct, c.Shards, c.Seed, c.Frac)
	fmt.Fprintf(&sb, "crash instant: cycle %d (0 = clean drain)\n", f.at)
	fmt.Fprintf(&sb, "error: %v\n", f.err)
	sb.WriteString("op trace (round session op key valuelen [shard]):\n")
	for r, batch := range genScript(c.scriptSpec) {
		for _, op := range batch {
			fmt.Fprintf(&sb, "  r%02d s%d %-3v %s %d", r, op.Sess, op.Op, op.Key, len(op.Value))
			if c.Shards > 1 {
				fmt.Fprintf(&sb, " shard%d", ShardOf(op.Key, c.Shards))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// fuzzCorpus reads FuzzDurableLinearizability's committed corpus.
func fuzzCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzDurableLinearizability/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	corpus := make(map[string][]byte)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file: %v", f, err)
		}
		corpus[filepath.Base(f)] = []byte(data)
	}
	return corpus
}

// TestOracleAgreesOnFuzzCorpus: on every committed FuzzDurableLinearizability
// case, at the clean drain and at the case's own crash instant, the
// scripted runner finds Verify, dlcheck and the client-history oracle all
// clean — the fuzz target's scripted half, named, without its live-store
// half.
func TestOracleAgreesOnFuzzCorpus(t *testing.T) {
	for name, data := range fuzzCorpus(t) {
		if f := caseFromBytes(data).run(); f != nil {
			t.Errorf("%s, crash at %d: %v", name, f.at, f.err)
		}
	}
}

// TestCaseFromBytesTotal: every input decodes to a valid, bounded case.
func TestCaseFromBytesTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 0, 0, 0, 0, 0},
		{1, 2, 3},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128},
		{15, 13, 11, 7, 80, 0, 0, 128},
	}
	for _, in := range inputs {
		c := caseFromBytes(in)
		if c.Sessions < 1 || c.Sessions > 16 || c.Rounds < 1 || c.Rounds > 14 {
			t.Fatalf("case out of bounds for %v: %+v", in, c)
		}
		if c.KeySpace < 1 || c.KeySpace > 12 || c.ValueBytes < 1 || c.ValueBytes > 113 {
			t.Fatalf("case out of bounds for %v: %+v", in, c)
		}
		if c.PutPct < 20 || c.PutPct > 80 || c.GetPct < 5 || c.PutPct+c.GetPct > 99 {
			t.Fatalf("op mix out of bounds for %v: %+v", in, c)
		}
		if c.Shards != 1 && c.Shards != 2 && c.Shards != 4 {
			t.Fatalf("shards out of bounds for %v: %+v", in, c)
		}
	}
	// Distinct tails reach distinct seeds (schedule diversity).
	a := caseFromBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8, 100})
	b := caseFromBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8, 101})
	if a.Seed == b.Seed {
		t.Fatal("tail bytes do not differentiate seeds")
	}
}

// TestRunCleanCase: a small known-good case passes end to end.
func TestRunCleanCase(t *testing.T) {
	c := fuzzCase{scriptSpec: scriptSpec{Sessions: 3, Rounds: 6, KeySpace: 6, ValueBytes: 48, PutPct: 60, GetPct: 25, Seed: 7}, Shards: 1, Frac: 128}
	if f := c.run(); f != nil {
		t.Fatalf("known-good case failed: %v\n%s", f.err, transcript(f))
	}
}

// TestTranscriptRendersTrace: the artifact names the case, the instant,
// the error, and every scripted op.
func TestTranscriptRendersTrace(t *testing.T) {
	c := fuzzCase{scriptSpec: scriptSpec{Sessions: 2, Rounds: 2, KeySpace: 3, ValueBytes: 16, PutPct: 70, GetPct: 15, Seed: 9}, Shards: 4, Frac: 64}
	f := &fuzzFailure{c: c, at: 1234, err: os.ErrInvalid}
	tr := transcript(f)
	for _, want := range []string{"counterexample", "sessions=2", "cycle 1234", "invalid argument", "shard"} {
		if !strings.Contains(tr, want) {
			t.Fatalf("transcript missing %q:\n%s", want, tr)
		}
	}
	if n := strings.Count(tr, "\n  r"); n != 4 {
		t.Fatalf("transcript lists %d scripted ops, want 4:\n%s", n, tr)
	}
	if transcript(nil) != "" || minimize(nil) != nil {
		t.Fatal("nil failure should render empty")
	}
}

// FuzzDurableLinearizability is the randomized crash fuzzer: bytes →
// bounded workload (op mix × sessions × keyspace × shards) × crash
// instant → run with the online checker and the client-history oracle →
// verdict, then the live store with the GET fast path on and off. Any
// rejection is written as an op-trace transcript (to $DLFUZZ_ARTIFACT when
// set) before failing; a scripted one is minimized first. Plain go test
// runs the seeds below and the committed corpus, so every corpus case is
// held to Verify, dlcheck and the oracle at its clean drain and its own
// crash instant. CI runs the smoke with -fuzztime 30s; run longer locally
// to dig.
func FuzzDurableLinearizability(f *testing.F) {
	// sessions rounds keyspace valuebytes putpct getpct shards frac
	f.Add([]byte{})                                     // minimal case
	f.Add([]byte{2, 5, 3, 2, 40, 10, 0, 128})           // mid-run crash, single shard
	f.Add([]byte{5, 11, 1, 3, 60, 60, 2, 200})          // one hot key, 4 shards, late crash
	f.Add([]byte{3, 7, 5, 1, 10, 80, 1, 32})            // read-heavy, early crash
	f.Add([]byte{5, 13, 11, 7, 70, 5, 3, 255, 9, 9, 9}) // delete-heavy tail seed
	f.Add([]byte{15, 9, 7, 4, 50, 10, 0, 160})          // 16 sessions: 4 ops per core per round, merged epochs
	// Records are folded and released at every watermark advance, so every
	// case crosses folds; this is the longest history a case can have (224
	// ops), crashed late, where recovery is almost all checkpoint.
	f.Add([]byte{15, 13, 11, 7, 60, 5, 0, 230})
	// testdata's seed-06 (one session, one key, put del put put, crash at
	// 250/256) is the smallest case that rejects an engine recycling entry
	// lines one watermark early while the honest engine already reuses a
	// line in it: TestPlantedRecycleEarlyFuzzCases. seed-07 (two sessions,
	// one key, one round: a Put, then a Delete that commits first) is the
	// smallest case in which a key settled in translate order is served as
	// gone and recovered as present: TestPlantedTranslateOrderWinnerFuzzCase.
	f.Fuzz(func(t *testing.T, data []byte) {
		c := caseFromBytes(data)
		fail := c.run()
		if fail != nil {
			fail = minimize(fail)
		} else if _, fail = runLive(c); fail == nil {
			// A live failure is not minimized: minimize re-runs the
			// scripted path, which just passed.
			return
		}
		tr := transcript(fail)
		if path := os.Getenv("DLFUZZ_ARTIFACT"); path != "" {
			if err := os.WriteFile(path, []byte(tr), 0o644); err != nil {
				t.Logf("writing %s: %v", path, err)
			}
		}
		t.Fatalf("durable linearizability violated:\n%s", tr)
	})
}
