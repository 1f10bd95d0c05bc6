package pmkv

import (
	"fmt"
	"testing"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/sim"
)

// checkSpec keeps the checker tests aligned with the headline sweep.
func checkSpec() ScriptSpec { return testSpec() }

// TestCheckDisabledIsNil: without Config.Check the tracker is absent and
// every hook is the nil-receiver no-op (the zero-alloc guard for the
// no-op itself lives in internal/dlcheck).
func TestCheckDisabledIsNil(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.DL() != nil {
		t.Fatal("tracker present without Config.Check")
	}
	out, err := runSingle(Config{}, checkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if out.DL != nil {
		t.Fatal("ShardResult carries a verdict without Config.Check")
	}
}

// TestCheckCleanRun: a clean drain must be durably linearizable with
// every publish durable.
func TestCheckCleanRun(t *testing.T) {
	out, err := runSingle(Config{Check: true}, checkSpec())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	v := out.DL
	if v == nil || !v.OK() {
		t.Fatalf("clean run verdict: %v", v)
	}
	if v.Publishes == 0 || v.Durable != v.Publishes || v.Reads == 0 {
		t.Fatalf("clean verdict counters: %+v", v)
	}
}

// TestCheckCrashSweep is the checker acceptance sweep: every crash
// instant's image must be durably linearizable. The scripted driver
// already fails the run on a bad verdict; this pins it across the full
// sweep.
func TestCheckCrashSweep(t *testing.T) {
	instants := 200
	if testing.Short() {
		instants = 12
	}
	spec := checkSpec()
	clean, err := runSingle(Config{Check: true}, spec)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for _, at := range SweepInstants(clean.Stats.Cycle, instants) {
		out, err := runSingle(Config{CrashAt: at, Check: true}, spec)
		if err != nil {
			t.Fatalf("crash at %d: %v", at, err)
		}
		if out.DL == nil {
			t.Fatalf("crash at %d: no verdict", at)
		}
	}
}

// shard0Script is spec's script over n keys, each renamed to a key that
// routes to shard 0 of a 4-way store, so a 4-shard run executes the whole
// script on shard 0 with batches identical to the 1-shard run. Renaming
// leaves the generator's draws as they are.
func shard0Script(spec ScriptSpec, n int) Script {
	rename := make(map[string]string, n)
	for i := 0; len(rename) < n; i++ {
		if k := fmt.Sprintf("m%03d", i); ShardOf(k, 4) == 0 {
			rename[fmt.Sprintf("k%03d", len(rename))] = k
		}
	}
	spec.KeySpace = n
	script := GenScript(spec)
	for _, batch := range script {
		for i := range batch {
			batch[i].Key = rename[batch[i].Key]
		}
	}
	return script
}

// verdictSig summarizes a verdict for cross-run comparison.
func verdictSig(v *dlcheck.Verdict) string {
	if v == nil {
		return "<nil>"
	}
	return v.String()
}

// TestCheckMetamorphicShards: for scripts whose keys all live on shard 0,
// the 1-shard and 4-shard runs execute identical batches on that engine,
// so the checker verdicts must be identical at every crash instant — the
// 1-shard/N-shard equivalence pinned beyond fingerprint identity.
func TestCheckMetamorphicShards(t *testing.T) {
	instants := 200
	if testing.Short() {
		instants = 8
	}
	script := shard0Script(ScriptSpec{Sessions: 4, Rounds: 12, ValueBytes: 96, Seed: 1107}, 10)
	run := func(shards int, at sim.Cycle) []ShardResult {
		t.Helper()
		out, err := RunShardedScript(ShardedConfig{Shards: shards, Engine: Config{CrashAt: at, Check: true}}, script)
		if err != nil {
			t.Fatalf("%d-shard crash at %d: %v", shards, at, err)
		}
		return out
	}
	single := run(1, 0)[0]
	for _, at := range append(SweepInstants(single.Stats.Cycle, instants), 0) {
		one, four := run(1, at)[0], run(4, at)
		got, want := verdictSig(four[0].DL), verdictSig(one.DL)
		if got != want {
			t.Fatalf("crash at %d: shard-0 verdict %q != single-shard verdict %q", at, got, want)
		}
		if one.Report.Fingerprint != four[0].Report.Fingerprint {
			t.Fatalf("crash at %d: shard-0 fingerprint diverged from single-shard", at)
		}
		for s := 1; s < 4; s++ {
			v := four[s].DL
			if v == nil || !v.OK() || v.Publishes != 0 {
				t.Fatalf("crash at %d: idle shard %d verdict %v", at, s, v)
			}
		}
	}
}

// corruptBase runs a deliberately observable workload on one engine and
// hands back the engine plus its clean image: a cross-session chain
// (put, foreign read, foreign put) and a delete observed by a third
// session. Every mutation test corrupts a Clone of the image.
func corruptBase(t *testing.T) (*Engine, *dlcheck.Image) {
	t.Helper()
	e, err := New(Config{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	s := []*Session{e.NewSession(), e.NewSession(), e.NewSession()}
	batches := [][]Request{
		{{Sess: s[0], Op: Put, Key: "alpha", Value: []byte("a1")}},   // rec 0
		{{Sess: s[1], Op: Get, Key: "alpha"}},                        // s1 observes rec 0
		{{Sess: s[1], Op: Put, Key: "beta", Value: []byte("b1")}},    // rec 1
		{{Sess: s[0], Op: Delete, Key: "alpha"}},                     // rec 2 (tombstone)
		{{Sess: s[2], Op: Get, Key: "alpha"}},                        // s2 observes the tombstone
		{{Sess: s[2], Op: Put, Key: "gamma", Value: []byte("g1")}},   // rec 3
		{{Sess: s[0], Op: Put, Key: "delta", Value: []byte("d1")}},   // rec 4
		{{Sess: s[0], Op: Put, Key: "epsilon", Value: []byte("e1")}}, // rec 5
	}
	for _, b := range batches {
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	img := e.DLImage(res)
	if v := e.DL().Check(img); !v.OK() {
		t.Fatalf("clean image rejected: %s", v)
	}
	return e, img
}

// setDurable flips one record's durability in the image.
func setDurable(t *testing.T, img *dlcheck.Image, rec int, durable bool) {
	t.Helper()
	for i := range img.Order {
		if img.Order[i].Rec == rec {
			img.Order[i].Durable = durable
			return
		}
	}
	t.Fatalf("rec %d not in image", rec)
}

func violationKinds(v *dlcheck.Verdict) map[dlcheck.Kind]int {
	out := make(map[dlcheck.Kind]int)
	for _, viol := range v.Violations {
		out[viol.Kind]++
	}
	return out
}

// TestMutationDropAckedPublish: corrupting the image to lose a publish
// the store acked durable must be rejected as acked-lost.
func TestMutationDropAckedPublish(t *testing.T) {
	e, img := corruptBase(t)
	e.DL().AckDurable(6) // the store acked every mutation durable
	bad := img.Clone()
	setDurable(t, bad, 5, false) // tail publish: no hb successor, pure ack loss
	v := e.DL().Check(bad)
	if v.OK() {
		t.Fatal("dropped acked publish accepted")
	}
	k := violationKinds(v)
	if k[dlcheck.KindAckedLost] != 1 {
		t.Fatalf("want one acked-lost, got %v (%s)", k, v)
	}
	if v.Violations[0].Rec != 5 {
		t.Fatalf("diagnostic names rec %d, want 5: %s", v.Violations[0].Rec, v.Violations[0].Msg)
	}
}

// TestMutationReorderHBVersions: inverting durability across a
// happens-before edge — the observed put lost while the observer's later
// put survives — must be rejected as an hb-order violation (and the
// contradicted read reported too).
func TestMutationReorderHBVersions(t *testing.T) {
	e, img := corruptBase(t)
	bad := img.Clone()
	setDurable(t, bad, 0, false) // alpha=a1 lost; s1 read it, then wrote beta (rec 1, durable)
	v := e.DL().Check(bad)
	if v.OK() {
		t.Fatal("hb-inverted image accepted")
	}
	k := violationKinds(v)
	if k[dlcheck.KindHBOrder] == 0 {
		t.Fatalf("want hb-order, got %v (%s)", k, v)
	}
	if k[dlcheck.KindReadContradiction] == 0 {
		t.Fatalf("want the contradicted read reported too, got %v (%s)", k, v)
	}
}

// TestMutationResurrectDeletedKey: losing a tombstone a client observed,
// while the observer's later write survives, resurrects the key and must
// be rejected as a read contradiction naming the key.
func TestMutationResurrectDeletedKey(t *testing.T) {
	e, img := corruptBase(t)
	bad := img.Clone()
	setDurable(t, bad, 2, false) // alpha's tombstone lost => alpha resurrected
	v := e.DL().Check(bad)
	if v.OK() {
		t.Fatal("resurrected delete accepted")
	}
	k := violationKinds(v)
	if k[dlcheck.KindReadContradiction] == 0 {
		t.Fatalf("want read-contradiction, got %v (%s)", k, v)
	}
	found := false
	for _, viol := range v.Violations {
		if viol.Kind == dlcheck.KindReadContradiction && viol.Key == "alpha" && viol.Other == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no read-contradiction naming alpha/rec 2: %s", v)
	}
}

// TestMutationDiagnosticsDistinct: the three mutations produce three
// distinct primary diagnostics (guards against one catch-all error).
func TestMutationDiagnosticsDistinct(t *testing.T) {
	e, img := corruptBase(t)
	e.DL().AckDurable(6)
	kinds := make(map[dlcheck.Kind]bool)
	for _, m := range []struct {
		rec  int
		want dlcheck.Kind
	}{
		{5, dlcheck.KindAckedLost},
		{0, dlcheck.KindHBOrder},
		{2, dlcheck.KindReadContradiction},
	} {
		bad := img.Clone()
		setDurable(t, bad, m.rec, false)
		v := e.DL().Check(bad)
		if violationKinds(v)[m.want] == 0 {
			t.Fatalf("mutating rec %d: want kind %v, got %s", m.rec, m.want, v)
		}
		kinds[m.want] = true
	}
	if len(kinds) != 3 {
		t.Fatalf("only %d distinct diagnostic kinds", len(kinds))
	}
}

// TestBatchSnapshotReads pins the group-commit read semantics the
// checker depends on: within one batch a session reads its own writes
// but never another session's same-batch write (those ops are concurrent
// and the machine does not order the reader's later persists after the
// foreign write).
func TestBatchSnapshotReads(t *testing.T) {
	e, err := New(Config{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := e.NewSession(), e.NewSession()
	if _, err := e.Apply([]Request{{Sess: s1, Op: Put, Key: "k", Value: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	resps, err := e.Apply([]Request{
		{Sess: s1, Op: Put, Key: "k", Value: []byte("new")},
		{Sess: s2, Op: Get, Key: "k"},
		{Sess: s1, Op: Get, Key: "k"},
		{Sess: s2, Op: Delete, Key: "k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(resps[1].Value); !resps[1].Found || got != "old" {
		t.Fatalf("foreign same-batch read = %q found=%v, want pre-batch \"old\"", got, resps[1].Found)
	}
	if got := string(resps[2].Value); !resps[2].Found || got != "new" {
		t.Fatalf("own same-batch read = %q found=%v, want own write \"new\"", got, resps[2].Found)
	}
	if !resps[3].Found {
		t.Fatal("same-batch foreign delete should observe the pre-batch key")
	}
	// Next batch: the window is settled, and everyone is served what NVRAM
	// holds — the racer whose head store committed last, whichever it is.
	resps, err = e.Apply([]Request{{Sess: s2, Op: Get, Key: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	state, err := e.RecoveredState(res)
	if err != nil {
		t.Fatal(err)
	}
	if want, found := state["k"]; resps[0].Found != found || string(resps[0].Value) != string(want) {
		t.Fatalf("read after the racing batch = %q found=%v, recovery holds %q found=%v", resps[0].Value, resps[0].Found, want, found)
	}
}

// TestShardedStoreCheckLive drives the live sharded store with checking
// on through both the clean-drain and crash paths: acks create checker
// obligations at the watermark-gated release sites, and Close must fold
// a clean verdict into every shard result.
func TestShardedStoreCheckLive(t *testing.T) {
	for _, crashAt := range []int64{0, 60000} {
		cfg := ShardedConfig{Shards: 2, Engine: Config{Check: true}}
		if crashAt > 0 {
			cfg.Engine.CrashAt = 60000
		}
		st, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess := st.NewSession()
		acked := 0
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("live%02d", i%8)
			ack := st.Do(sess, Put, key, []byte{byte(i)})
			if ack.Err != nil {
				break
			}
			if !ack.Crashed {
				acked++
			}
			if i%5 == 4 {
				if g := st.Do(sess, Get, key, nil); g.Err == nil && !g.Crashed && !g.Resp.Found {
					t.Fatalf("durably acked key %q not visible", key)
				}
			}
		}
		results, err := st.Close()
		if err != nil {
			t.Fatalf("crashAt=%d close: %v", crashAt, err)
		}
		ackObligations := 0
		for _, r := range results {
			if r.DL == nil {
				t.Fatalf("crashAt=%d shard %d: no verdict", crashAt, r.Shard)
			}
			if !r.DL.OK() {
				t.Fatalf("crashAt=%d shard %d: %s", crashAt, r.Shard, r.DL)
			}
			ackObligations += r.DL.Acked
		}
		if crashAt == 0 && (acked == 0 || ackObligations == 0) {
			t.Fatalf("clean path recorded no ack obligations (acked=%d, obligations=%d)", acked, ackObligations)
		}
	}
}
