package pmkv

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
)

func testSpec() ScriptSpec {
	return ScriptSpec{Sessions: 6, Rounds: 24, KeySpace: 16, ValueBytes: 160, Seed: 42}
}

// runSingle drives spec's script through a one-shard store and returns
// that shard's result.
func runSingle(cfg Config, spec ScriptSpec) (ShardResult, error) {
	out, err := RunShardedScript(ShardedConfig{Shards: 1, Engine: cfg}, GenScript(spec))
	if out == nil {
		return ShardResult{}, err
	}
	return out[0], err
}

// runScript is RunShardedScript on engines the test built, one per shard,
// to plant a bug in an engine or attach a probe.
func runScript(engines []*Engine, script Script) ([]ShardResult, error) {
	s, err := newStore(ShardedConfig{Shards: len(engines)}, engines)
	if err != nil {
		return nil, err
	}
	return s.run(script.steps(len(engines)), script.sessions())
}

// apply runs one round on e in a script's steps — Submit, Pump, one Gap,
// Poll — and returns the batch's volatile responses. apply keeps no
// batches pending, so its Gap is the full one.
func apply(e *Engine, batch []Request) ([]Response, error) {
	resps, err := e.SubmitAppend(nil, batch)
	if err != nil {
		return nil, err
	}
	if err = e.PumpRetire(); err == nil {
		err = e.gap(0)
	}
	e.DurableWatermark()
	return resps, err
}

func TestPutGetDelete(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := e.NewSession(), e.NewSession()
	resps, err := apply(e, []Request{
		{Sess: s1, Op: Put, Key: "alpha", Value: []byte("one")},
		{Sess: s2, Op: Put, Key: "beta", Value: []byte("two")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 || !resps[0].Found || !resps[1].Found {
		t.Fatalf("put responses: %+v", resps)
	}
	resps, err = apply(e, []Request{
		{Sess: s1, Op: Get, Key: "beta"},
		{Sess: s2, Op: Delete, Key: "alpha"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].Found || string(resps[0].Value) != "two" {
		t.Fatalf("get beta = %+v", resps[0])
	}
	if !resps[1].Found {
		t.Fatal("delete alpha reported not-found")
	}
	resps, err = apply(e, []Request{{Sess: s1, Op: Get, Key: "alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Found {
		t.Fatal("alpha still visible after delete")
	}

	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("clean close did not finish the machine")
	}
	rep, err := e.Verify(res)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Clean drain: every publish persisted, recovered state == volatile.
	if rep.DurablePublishes != rep.TotalPublishes {
		t.Fatalf("durable %d != total %d after clean drain", rep.DurablePublishes, rep.TotalPublishes)
	}
	state, err := e.RecoveredState(res)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Volatile()
	if len(state) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(state), len(want))
	}
	for k, v := range want {
		if string(state[k]) != string(v) {
			t.Fatalf("recovered[%q] = %q, want %q", k, state[k], v)
		}
	}
}

// TestCleanDrainContendedBucket: same-batch sessions publishing to one
// bucket can commit in the opposite order of translation (value lengths
// vary each session's path to its publish store), so recovery must replay
// the bucket's publish deltas in committed order — a snapshot keyed to
// the last durable head version would silently drop the other session's
// acknowledged write. After a clean drain, recovered == volatile exactly.
func TestCleanDrainContendedBucket(t *testing.T) {
	e, err := New(Config{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	const nSess = 4
	sessions := make([]*Session, nSess)
	for i := range sessions {
		sessions[i] = e.NewSession()
	}
	// Distinct keys, all hashing to one bucket: every batch is pure
	// same-bucket contention between different sessions' keys.
	target := e.bucketOf("c000")
	keys := make([]string, 0, nSess)
	for i := 0; len(keys) < nSess; i++ {
		k := fmt.Sprintf("c%03d", i)
		if e.bucketOf(k) == target {
			keys = append(keys, k)
		}
	}
	for round := 0; round < 12; round++ {
		batch := make([]Request, nSess)
		for i, s := range sessions {
			if round%5 == 4 && i == round%nSess {
				batch[i] = Request{Sess: s, Op: Delete, Key: keys[i]}
				continue
			}
			val := bytes.Repeat([]byte{byte('a' + i)}, 1+(round*37+i*113)%200)
			batch[i] = Request{Sess: s, Op: Put, Key: keys[i], Value: val}
		}
		if _, err := apply(e, batch); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Verify(res); err != nil {
		t.Fatalf("verify: %v", err)
	}
	got, err := e.RecoveredState(res)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Volatile()
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d: a committed publish was dropped or invented", len(got), len(want))
	}
	for k, v := range want {
		if string(got[k]) != string(v) {
			t.Fatalf("recovered[%q] = %q, want %q", k, got[k], v)
		}
	}
}

// TestNewRejectsUnsafeMachine: the engine's token correlation requires
// barriers that drain posted stores, so configs where they don't (NP
// ignores barriers; bulk-epoch mode makes them transparent) must be
// rejected up front instead of corrupting TokenVersions at run time, and
// so must a machine without the deadlock-avoidance split, on which a pump
// can wedge with its window fed and never settled.
func TestNewRejectsUnsafeMachine(t *testing.T) {
	for _, c := range []struct {
		what string
		set  func(*machine.Config)
	}{
		{"an NP machine (barriers ignored)", func(m *machine.Config) { m.Model = machine.NP }},
		{"bulk-epoch mode (programmer barriers transparent)", func(m *machine.Config) { m.BulkEpochStores = 64 }},
		{"a machine without the epoch split (pumps can deadlock)", func(m *machine.Config) { m.EnableSplit = false }},
	} {
		cfg := Config{Machine: SmallMachine()}
		c.set(&cfg.Machine)
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %s", c.what)
		}
	}
}

// TestBucketsBounded: the largest index keeps its last line below the
// first entry line, and one bucket more is refused.
func TestBucketsBounded(t *testing.T) {
	if _, err := New(Config{Buckets: MaxBuckets + 1}); err == nil {
		t.Fatalf("New accepted %d buckets", MaxBuckets+1)
	}
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if last, first := e.indexLine(MaxBuckets-1), mem.LineOf(entryBase); last >= first {
		t.Fatalf("index line of bucket %d is %v, not below the first entry line %v", MaxBuckets-1, last, first)
	}
}

func TestApplyAfterCloseFails(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	if _, err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := apply(e, []Request{{Sess: s, Op: Put, Key: "k", Value: []byte("v")}}); err == nil {
		t.Fatal("a round after Close accepted")
	}
	if _, err := e.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
}

func TestCleanRunVerifies(t *testing.T) {
	out, err := runSingle(Config{}, testSpec())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if out.Crashed {
		t.Fatal("clean run reported crashed")
	}
	if out.Report.TotalPublishes == 0 || out.Report.DurablePublishes != out.Report.TotalPublishes {
		t.Fatalf("clean run publishes: %+v", out.Report)
	}
}

// TestCleanRunMatchesScriptOracle pins what a clean run must recover, from
// the script alone, so it holds whatever addresses and timing the engine
// chooses (the fpdump goldens pin one engine's timing; this does not). A
// round is one commit window: the last round that writes a key decides
// it. One writer there and the recovered value is exactly that write
// (absent for a Delete); several and they raced across cores, and the
// recovered value must be one of theirs (the engine gives the key to the
// highest record index, which this oracle does not assume).
func TestCleanRunMatchesScriptOracle(t *testing.T) {
	for _, s := range slices.Concat(fpdumpSpecs, []sweepSpec{{name: "testSpec", spec: testSpec()}}) {
		name, spec := s.name, s.spec
		last := make(map[string][]ScriptedOp) // the key's writes in the last round that has any
		for _, batch := range GenScript(spec) {
			fresh := make(map[string]bool)
			for _, op := range batch {
				if op.Op == Get {
					continue
				}
				if !fresh[op.Key] {
					fresh[op.Key], last[op.Key] = true, nil
				}
				last[op.Key] = append(last[op.Key], op)
			}
		}
		out, err := runSingle(Config{Check: true}, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.DL == nil || !out.DL.OK() {
			t.Fatalf("%s: checker verdict %v", name, out.DL)
		}
		races := 0
		for key, writes := range last {
			got, found := out.Recovered[key]
			ok := false
			for _, w := range writes {
				if w.Op == Delete {
					ok = ok || !found
				} else {
					ok = ok || (found && bytes.Equal(got, w.Value))
				}
			}
			if !ok {
				t.Errorf("%s: key %q recovered (found=%v, %d B), which none of the %d writes of its last round left",
					name, key, found, len(got), len(writes))
			}
			if len(writes) > 1 {
				races++
			}
		}
		for key := range out.Recovered {
			if last[key] == nil {
				t.Errorf("%s: recovered key %q, which the script never writes", name, key)
			}
		}
		t.Logf("%s: %d keys written, %d recovered, %d decided by a same-window race", name, len(last), len(out.Recovered), races)
	}
}

// TestCrashSweep is the headline acceptance test: 200 seeded crash
// instants spread across the run, >= 4 concurrent sessions, zero
// epoch-order / prefix-closure / KV-atomicity violations.
func TestCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is long")
	}
	spec := testSpec()
	clean, err := runSingle(Config{}, spec)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	instants := SweepInstants(clean.Cycles, 200)
	crashed := 0
	for _, at := range instants {
		out, err := runSingle(Config{CrashAt: at}, spec)
		if err != nil {
			t.Fatalf("crash at %d: %v", at, err)
		}
		if out.Crashed {
			crashed++
			if out.Cycles != at || out.Stats.Cycle != at {
				t.Fatalf("crash at %d stopped clock at %d (%d after close)", at, out.Cycles, out.Stats.Cycle)
			}
		}
	}
	if crashed < len(instants)/2 {
		t.Fatalf("only %d/%d instants actually crashed; sweep is not exercising mid-run states", crashed, len(instants))
	}
}

// TestCrashDeterminism: same seed + same crash instant twice must yield a
// byte-identical recovered state (the fingerprint acceptance criterion).
func TestCrashDeterminism(t *testing.T) {
	spec := testSpec()
	clean, err := runSingle(Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []sim.Cycle{4, 2} {
		at := clean.Stats.Cycle / frac
		a, err := runSingle(Config{CrashAt: at}, spec)
		if err != nil {
			t.Fatalf("run A at %d: %v", at, err)
		}
		b, err := runSingle(Config{CrashAt: at}, spec)
		if err != nil {
			t.Fatalf("run B at %d: %v", at, err)
		}
		if a.Report.Fingerprint != b.Report.Fingerprint {
			t.Fatalf("crash at %d: fingerprints differ:\n%s\n%s", at, a.Report.Fingerprint, b.Report.Fingerprint)
		}
		if a.Crashed != b.Crashed || a.Cycles != b.Cycles || a.Stats.Cycle != b.Stats.Cycle {
			t.Fatalf("crash at %d: runs diverged: crashed %v/%v, cycles %d/%d, %d/%d after close",
				at, a.Crashed, b.Crashed, a.Cycles, b.Cycles, a.Stats.Cycle, b.Stats.Cycle)
		}
	}
}

// TestCrashLosesRecentWrites: crash early enough and the recovered state
// must be a strict subset of the volatile state's history — and still
// verify. Exercises the interesting middle where some publishes are
// durable and some are lost.
func TestCrashMidRun(t *testing.T) {
	spec := testSpec()
	clean, err := runSingle(Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runSingle(Config{CrashAt: clean.Stats.Cycle / 2}, spec)
	if err != nil {
		t.Fatalf("mid-run crash: %v", err)
	}
	if !out.Crashed {
		t.Skip("run finished before the midpoint; nothing to check")
	}
	if out.Report.TotalPublishes == 0 {
		t.Fatal("no publishes retired by midpoint")
	}
}

func TestSweepInstants(t *testing.T) {
	in := SweepInstants(1000, 200)
	if len(in) != 200 {
		t.Fatalf("got %d instants", len(in))
	}
	if in[len(in)-1] != 1000 {
		t.Fatalf("last instant %d, want 1000", in[len(in)-1])
	}
	for i, c := range in {
		if c == 0 {
			t.Fatalf("instant %d is zero (means no-crash)", i)
		}
		if i > 0 && c < in[i-1] {
			t.Fatalf("instants not nondecreasing at %d", i)
		}
	}
	if SweepInstants(0, 10) != nil || SweepInstants(100, 0) != nil {
		t.Fatal("degenerate sweeps should be nil")
	}
}

func TestFingerprintStateStable(t *testing.T) {
	a := map[string][]byte{"x": []byte("1"), "y": []byte("2")}
	b := map[string][]byte{"y": []byte("2"), "x": []byte("1")}
	fp := func(state map[string][]byte) string { return stats.MustFingerprint(recoverySnapshot(state)) }
	if fp(a) != fp(b) {
		t.Fatal("fingerprint depends on map iteration order")
	}
	c := map[string][]byte{"x": []byte("1"), "y": []byte("3")}
	if fp(a) == fp(c) {
		t.Fatal("fingerprint ignores values")
	}
}

func BenchmarkApplyRound(b *testing.B) {
	e, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	sessions := []*Session{e.NewSession(), e.NewSession(), e.NewSession(), e.NewSession()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]Request, len(sessions))
		for j, s := range sessions {
			batch[j] = Request{Sess: s, Op: Put, Key: fmt.Sprintf("k%d", (i+j)%32), Value: []byte("value")}
		}
		if _, err := apply(e, batch); err != nil {
			b.Fatal(err)
		}
	}
}
