// Tests for the fold path: records are verified, folded into the
// checkpoint and released at the durable watermark, so the checkers that
// guard it must be shown able to catch a planted bug in it, and the state
// the engine retains must stay bounded however long it runs.
package pmkv

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runPlantedEngine is the scripted driver's single-shard run (the one the
// goldens are captured from) on an engine with a bug planted in its fold
// path; the closed engine comes back for tests that read what it holds.
func runPlantedEngine(cfg Config, spec ScriptSpec, bug plantedBug) (*Engine, ShardResult, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, ShardResult{}, err
	}
	e.plant = bug
	out, err := runScript([]*Engine{e}, GenScript(spec))
	return e, out[0], err
}

func runPlanted(cfg Config, spec ScriptSpec, bug plantedBug) (ShardResult, error) {
	_, out, err := runPlantedEngine(cfg, spec, bug)
	return out, err
}

// longSpec is fpdump's third section: 4 096 ops over 256 keys, so most
// publishes are superseded long after they were folded.
func longSpec() ScriptSpec {
	return ScriptSpec{Sessions: 8, Rounds: 512, KeySpace: 256, ValueBytes: 192, Seed: 7}
}

// goldenLongFingerprint reads the clean-drain fingerprint pinned in
// testdata/fpdump-long.golden from the engine that kept every record.
func goldenLongFingerprint(t *testing.T) string {
	t.Helper()
	f, err := os.Open("testdata/fpdump-long.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("fpdump-long.golden is empty")
	}
	for _, field := range strings.Fields(sc.Text()) {
		if fp, ok := strings.CutPrefix(field, "fp="); ok {
			return fp
		}
	}
	t.Fatalf("no fp= on the golden's clean line: %q", sc.Text())
	return ""
}

// TestScriptedRunFoldsAndTrims: the scripted driver — what the goldens and
// the crash fuzzer run — must exercise the checkpoint, not leave
// everything in the tail: by the end of the long script nearly every
// record has been folded and released and most epochs trimmed, so the
// pinned Report counts are checkpoint totals plus a short tail.
func TestScriptedRunFoldsAndTrims(t *testing.T) {
	spec := longSpec()
	e, out, err := runPlantedEngine(Config{}, spec, plantNone)
	if err != nil {
		t.Fatal(err)
	}
	ret, rep := e.Stats().Retention, out.Report
	if ret.Folded+ret.Retained != rep.TotalPublishes {
		t.Fatalf("folded %d + retained %d != %d publishes", ret.Folded, ret.Retained, rep.TotalPublishes)
	}
	if ret.Retained > 4*spec.Sessions {
		t.Fatalf("%d records still in the tail at Close; a round is %d ops", ret.Retained, spec.Sessions)
	}
	if 2*ret.EpochsTrimmed < rep.Epochs {
		t.Fatalf("only %d of %d epochs trimmed", ret.EpochsTrimmed, rep.Epochs)
	}
	if ret.CheckpointKeys < rep.RecoveredKeys {
		t.Fatalf("checkpoint holds %d keys, recovery found %d", ret.CheckpointKeys, rep.RecoveredKeys)
	}
}

// TestPlantedCursorOffByOne: a durable cursor one record ahead of the
// truth folds a publish that is not in NVRAM yet. A crash before it
// persists must be caught — by the torn-write check at fold time, by
// Verify finding the folded publish missing from the image or (the early
// fold also frees the entry it shadowed early) a live entry overwritten,
// or by the checker reporting a publish the image has lost — and the live
// store, which acks on the cursor, must be caught acking a lost write.
func TestPlantedCursorOffByOne(t *testing.T) {
	spec := testSpec()
	clean, err := runSingle(Config{Check: true}, spec)
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	instants := SweepInstants(clean.Stats.Cycle, 40)
	for _, at := range instants {
		if _, err := runPlanted(Config{CrashAt: at, Check: true}, spec, plantNone); err != nil {
			t.Fatalf("crash at %d, nothing planted: %v", at, err)
		}
		_, err := runPlanted(Config{CrashAt: at, Check: true}, spec, plantCursorOffByOne)
		if err == nil {
			continue
		}
		caught++
		msg := err.Error()
		if !strings.Contains(msg, "torn write") && !strings.Contains(msg, "is not in the image") &&
			!strings.Contains(msg, "no matching publish") && !strings.Contains(msg, "happens-after lost publish") &&
			!strings.Contains(msg, "was overwritten under a durable head") {
			t.Fatalf("crash at %d: caught by an unexpected check: %v", at, err)
		}
	}
	if caught < len(instants)/4 {
		t.Fatalf("planted off-by-one cursor caught at only %d of %d crash instants", caught, len(instants))
	}

	// Live: one blocking client, so every write is its own batch and is
	// acked the moment the planted cursor passes it — before it persists.
	store, err := NewSharded(ShardedConfig{Shards: 1, Engine: Config{CrashAt: clean.Stats.Cycle / 2, Check: true}})
	if err != nil {
		t.Fatal(err)
	}
	eng := store.shards[0].eng
	eng.mu.Lock()
	eng.plant = plantCursorOffByOne
	eng.mu.Unlock()
	sess := store.NewSession()
	// The crashed ack is the evidence: the worker raises the store's
	// Crashed flag only after it has delivered it.
	crashed := false
	for i := 0; i < 10_000 && !crashed; i++ {
		ack := store.Do(sess, Put, fmt.Sprintf("k%02d", i%16), []byte("v"))
		if crashed = ack.Crashed || ack.Err == ErrCrashed; !crashed && ack.Err != nil {
			t.Fatal(ack.Err)
		}
	}
	if !crashed {
		t.Fatal("live store never reached its crash instant")
	}
	if _, err := store.Close(); err == nil {
		t.Fatal("live store acked on an off-by-one cursor and nothing noticed")
	} else if msg := err.Error(); !strings.Contains(msg, "acked durable but is not recovered") &&
		!strings.Contains(msg, "is not in the image") && !strings.Contains(msg, "torn write") {
		t.Fatalf("caught by an unexpected check: %v", err)
	}
}

// TestPlantedDropTombstone: a Delete left out of the checkpoint resurrects
// the key it deleted. The recovered state must then differ from the
// fingerprint the retain-everything engine pinned, and a fast GET after an
// acked delete must expose it on the live store.
func TestPlantedDropTombstone(t *testing.T) {
	want := goldenLongFingerprint(t)
	honest, err := runPlanted(Config{}, longSpec(), plantNone)
	if err != nil {
		t.Fatal(err)
	}
	if honest.Report.Fingerprint != want {
		t.Fatalf("unplanted run recovered %s, golden pins %s", honest.Report.Fingerprint, want)
	}
	planted, err := runPlanted(Config{}, longSpec(), plantDropTombstone)
	if err == nil && planted.Report.Fingerprint == want && planted.Report.RecoveredKeys == honest.Report.RecoveredKeys {
		t.Fatal("a tombstone dropped from the checkpoint left the recovered state unchanged")
	}

	store, err := NewSharded(ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := store.shards[0].eng
	eng.mu.Lock()
	eng.plant = plantDropTombstone
	eng.mu.Unlock()
	sess := store.NewSession()
	store.Do(sess, Put, "k", []byte("v"))
	store.Do(sess, Delete, "k", nil)
	if ack := store.Do(sess, Get, "k", nil); !ack.Fast || !ack.Resp.Found {
		t.Fatalf("planted bug did not reach the fast path: %+v", ack)
	}
	store.Close()
}

// TestPlantedTranslateOrderWinner: an engine that settles a raced key on
// the writer it translated last — what the three per-key maps this engine
// once kept did — serves a value recovery does not rebuild. Nothing is
// wrong with the image, so only check 6 can notice, and on every clean
// drain of a script with a same-window race that commits out of translate
// order it must; the honest engine passes the same runs.
func TestPlantedTranslateOrderWinner(t *testing.T) {
	for _, s := range []struct {
		name string
		spec ScriptSpec
	}{
		{"fpdump-merged", ScriptSpec{Sessions: 16, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}},
		{"fpdump-long", longSpec()},
		{"testSpec", testSpec()},
	} {
		if _, err := runPlanted(Config{Check: true}, s.spec, plantNone); err != nil {
			t.Fatalf("%s, nothing planted: %v", s.name, err)
		}
		_, err := runPlanted(Config{Check: true}, s.spec, plantTranslateOrderWinner)
		if err == nil {
			t.Fatalf("%s: a key settled in translate order was served stale and nothing noticed", s.name)
		}
		if !CaughtStaleServe(err) {
			t.Fatalf("%s: caught by an unexpected check: %v", s.name, err)
		}
		t.Logf("%s: %v", s.name, err)
	}
}

// TestSessionChurnLeavesNothing: a session's request counter lives in the
// Session the engine issued, so ten thousand short-lived sessions — a
// server's connection churn — leave the engine holding nothing for them:
// sequence numbers still count per session, and no map in the engine has
// grown past the key space.
func TestSessionChurnLeavesNothing(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const sessions, keys = 10_000, 16
	lastSeq := func(s *Session, n int) int {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := e.SubmitAppend(nil, []Request{{Sess: s, Op: Put, Key: fmt.Sprintf("k%02d", s.ID%keys), Value: []byte("v")}}); err != nil {
				t.Fatal(err)
			}
		}
		seq := e.tail[len(e.tail)-1].Seq
		if s.ID%64 == 0 {
			if err := e.PumpRetire(); err != nil {
				t.Fatal(err)
			}
			settle(t, e)
		}
		return seq
	}
	var reused *Session
	for i := 0; i < sessions; i++ {
		s := e.NewSession()
		if seq := lastSeq(s, 1); seq != 0 {
			t.Fatalf("session %d's first request has seq %d", s.ID, seq)
		}
		if i == sessions/2 {
			reused = s
		}
	}
	if seq := lastSeq(reused, 2); seq != 2 {
		t.Fatalf("a session reused for two more requests reached seq %d, want 2", seq)
	}
	ev := reflect.ValueOf(e).Elem()
	for i := 0; i < ev.NumField(); i++ {
		if f := ev.Field(i); f.Kind() == reflect.Map && f.Len() > keys {
			t.Fatalf("Engine.%s holds %d entries after %d sessions over %d keys", ev.Type().Field(i).Name, f.Len(), sessions, keys)
		}
	}
}

// TestRetainedStateBounded: through a live store, the records the engines
// hold, the store tokens and the lines the machines remember, and the
// entry-line heap stay under a constant however many writes have been
// served, and the process heap stops growing with them. Writes are mostly
// Puts over a fixed key space: every one of them needs entry lines, and
// all but the first per key must get them from the free list.
func TestRetainedStateBounded(t *testing.T) {
	total, sample := 200_000, 50_000
	if testing.Short() {
		total, sample = 40_000, 10_000
	}
	store, err := NewSharded(ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const window, keys = 64, 1024
	sess := store.NewSession()
	done := make(chan Completion, window)
	val := make([]byte, 64)
	key := make([]string, keys)
	for i := range key {
		key[i] = fmt.Sprintf("key%05d", i)
	}

	var heapAt = map[int]uint64{}
	inFlight := 0
	for i := 1; i <= total; i++ {
		op, v := Put, val // 70 % puts, 28 % gets, 2 % deletes
		switch {
		case i%50 == 0:
			op, v = Delete, nil
		case i%10 < 3:
			op = Get
		}
		if inFlight == window {
			if c := <-done; c.Ack.Err != nil || c.Ack.Crashed {
				t.Fatalf("op %d: %+v", c.Tag, c.Ack)
			}
			inFlight--
		}
		if _, err := store.DoAsync(sess, op, key[(i*7919)%keys], v, nil, uint64(i), done); err != nil {
			t.Fatal(err)
		}
		inFlight++
		if i%5_000 == 0 {
			// Mid-flight: what is held is bounded by the client's window,
			// not by i (a Put tags two stores, a Delete one).
			for _, sh := range store.shards {
				sh.eng.mu.Lock()
				retained, tokens := len(sh.eng.tail), sh.eng.m.TaggedStores()
				sh.eng.mu.Unlock()
				if retained > window || tokens > 2*window {
					t.Fatalf("after %d ops shard %d retains %d records and %d store tokens", i, sh.id, retained, tokens)
				}
			}
		}
		if i != sample && i != total {
			continue
		}
		for ; inFlight > 0; inFlight-- {
			<-done
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heapAt[i] = ms.HeapInuse
	}
	t.Logf("heap in use: %d B after %d ops, %d B after %d ops", heapAt[sample], sample, heapAt[total], total)
	if float64(heapAt[total]) > 1.3*float64(heapAt[sample]) {
		t.Fatalf("heap in use grew from %d B at %d ops to %d B at %d ops (> 1.3x)",
			heapAt[sample], sample, heapAt[total], total)
	}
	var folded int
	for _, m := range store.Metrics() {
		folded += m.Folded
		if m.Retained != 0 {
			t.Fatalf("shard %d still retains %d records with nothing in flight", m.Shard, m.Retained)
		}
	}
	if want := total * 72 / 100; folded != want {
		t.Fatalf("folded %d records, want every one of the %d writes", folded, want)
	}
	// The heap is as large as the live keys plus what was in flight, not
	// the writes served; the machine tracks those lines and the bucket
	// heads, nothing per write.
	for _, m := range store.Metrics() {
		if m.EntryLinesBumped > keys+window {
			t.Fatalf("shard %d carved %d entry lines for at most %d keys and a window of %d", m.Shard, m.EntryLinesBumped, keys, window)
		}
		if heads := store.shards[m.Shard].eng.cfg.Buckets; m.LinesTracked > keys+window+heads {
			t.Fatalf("shard %d's machine tracks %d lines: %d keys, window %d, %d bucket heads", m.Shard, m.LinesTracked, keys, window, heads)
		}
	}
	closed := make(chan error, 1)
	go func() { _, err := store.Close(); closed <- err }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Close still verifying after 60 s: recovery is not checkpoint + tail")
	}
}
