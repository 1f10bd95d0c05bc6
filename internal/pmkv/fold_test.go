// Tests for the fold path: records are verified, folded into the
// checkpoint and released at the durable watermark, so the checkers that
// guard it must be shown able to catch a planted bug in it, and the state
// the engine retains must stay bounded however long it runs.
package pmkv

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"persistbarriers/internal/sim"
)

// runPlantedEngine is the scripted driver's single-shard run (the one the
// goldens are captured from) on an engine with a bug planted in its fold
// path; the closed engine comes back for tests that read what it holds.
func runPlantedEngine(cfg Config, spec scriptSpec, bug plantedBug) (*Engine, ShardResult, error) {
	engines, err := plantedEngines(cfg, 1, bug)
	if err != nil {
		return nil, ShardResult{}, err
	}
	out, err := runScript(engines, genScript(spec))
	return engines[0], out[0], err
}

// plantedEngines builds n engines from cfg, each with bug planted.
func plantedEngines(cfg Config, n int, bug plantedBug) ([]*Engine, error) {
	engines := make([]*Engine, n)
	for i := range engines {
		e, err := New(cfg)
		if err != nil {
			return nil, err
		}
		e.plant = bug
		engines[i] = e
	}
	return engines, nil
}

// longSpec is fpdump's third section: 4 096 ops over 256 keys, so most
// publishes are superseded long after they were folded.
func longSpec() scriptSpec { return fpdumpSpecs[2].spec }

// TestScriptedRunFoldsAndTrims: the scripted driver — what the goldens and
// the crash fuzzer run — must exercise the checkpoint, not leave
// everything in the tail: by the end of the long script nearly every
// record has been folded and released and most epochs trimmed, so the
// pinned Report counts are checkpoint totals plus a short tail. A window's
// entries share one epoch per core, so the tail is bounded by the epochs a
// core may have in flight: that many windows.
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
	if inFlight := SmallMachine().Epoch.MaxInFlight; ret.Retained > inFlight*spec.Sessions {
		t.Fatalf("%d records still in the tail at Close; a round is %d ops, a core has at most %d epochs in flight", ret.Retained, spec.Sessions, inFlight)
	}
	if 2*ret.EpochsTrimmed < rep.Epochs {
		t.Fatalf("only %d of %d epochs trimmed", ret.EpochsTrimmed, rep.Epochs)
	}
	if ret.CheckpointKeys < rep.RecoveredKeys {
		t.Fatalf("checkpoint holds %d keys, recovery found %d", ret.CheckpointKeys, rep.RecoveredKeys)
	}
}

// TestPlantedCursorOffByOne: a durable cursor one record ahead of the
// truth folds an entry that is not in NVRAM yet. A crash before it
// persists must be caught — by Verify finding the folded entry not
// durable in the image or (the early fold also frees the entry it replaced
// early) a live entry overwritten, by the checker reporting a write the
// image has lost, or by the client-history oracle. Over testSpec's every
// image the sweep's line for the plant counts which (plants.golden). The
// live store, which acks on the cursor, must be caught acking a lost
// write.
func TestPlantedCursorOffByOne(t *testing.T) {
	requireCaught(t, "testSpec", plantCursorOffByOne, "unfolded")
	clean := swept(t, "testSpec", plantNone)[0]

	// Live: one blocking client, so every write is its own batch and is
	// acked the moment the planted cursor passes it — before it persists.
	// A crash catches it only inside that window, a few hundred cycles
	// per write, so the store is crashed at eight instants 97 cycles apart.
	liveCaught := 0
	for k := range 8 {
		store, err := NewSharded(ShardedConfig{Shards: 1, Engine: Config{CrashAt: clean.end/2 + sim.Cycle(97*k), Check: true}})
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
			ack := store.do(sess, Put, fmt.Sprintf("k%02d", i%16), []byte("v"))
			if crashed = ack.Crashed || ack.Err == ErrCrashed; !crashed && ack.Err != nil {
				t.Fatal(ack.Err)
			}
		}
		if !crashed {
			t.Fatal("live store never reached its crash instant")
		}
		if _, err := store.Close(); err != nil {
			liveCaught++
			if msg := err.Error(); !strings.Contains(msg, "acked durable but is not recovered") &&
				!strings.Contains(msg, "was not durable") {
				t.Fatalf("caught by an unexpected check: %v", err)
			}
		}
	}
	if liveCaught == 0 {
		t.Fatal("live store acked on an off-by-one cursor and nothing noticed at any of 8 instants")
	}
}

// TestPlantedDropTombstone: a Delete left out of the checkpoint resurrects
// the key it deleted. The recovered state must then differ from the honest
// engine's — the state fpdump-long.golden pins — at some image of
// fpdump-long's sweep, and a fast GET after an acked delete must expose it
// on the live store.
func TestPlantedDropTombstone(t *testing.T) {
	requireCaught(t, "fpdump-long", plantDropTombstone, "moved")

	store, err := NewSharded(ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := store.shards[0].eng
	eng.mu.Lock()
	eng.plant = plantDropTombstone
	eng.mu.Unlock()
	sess := store.NewSession()
	store.do(sess, Put, "k", []byte("v"))
	store.do(sess, Delete, "k", nil)
	if ack := store.do(sess, Get, "k", nil); !ack.Fast || !ack.Resp.Found {
		t.Fatalf("planted bug did not reach the fast path: %+v", ack)
	}
	store.Close()
}

// TestPlantedTranslateOrderWinner: an engine that settles a raced key on
// the window's writer with the lowest record index — not the highest, the
// entry recovery keeps — serves a value recovery does not rebuild.
// Nothing is wrong with the image, so only check 6 can notice, and on
// every clean drain of a script with a same-window race it must; the
// honest engine passes the same runs (TestCrashSweep).
func TestPlantedTranslateOrderWinner(t *testing.T) {
	for _, row := range []string{"fpdump-merged", "fpdump-long", "testSpec"} {
		im := swept(t, row, plantLowestIdxWinner)[0]
		if im.err == nil || verifyCheck(im.err) != "served" {
			t.Errorf("%s: a key settled on its lowest-index writer was served stale, and the clean drain's Verify said %v", row, im.err)
		}
	}
}

// TestSessionChurnLeavesNothing: a session is the ID and core the engine
// issued it and nothing more, so ten thousand short-lived sessions — a
// server's connection churn — leave the engine holding nothing for them:
// no map in the engine has grown past the key space.
func TestSessionChurnLeavesNothing(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const sessions, keys = 10_000, 16
	for i := 0; i < sessions; i++ {
		s := e.NewSession()
		if _, err := e.SubmitAppend(nil, []Request{{Sess: s, Op: Put, Key: fmt.Sprintf("k%02d", s.ID%keys), Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
		if s.ID%64 == 0 {
			if err := e.PumpRetire(); err != nil {
				t.Fatal(err)
			}
			settle(t, e)
		}
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
				retained, tokens := len(sh.eng.tail), len(sh.eng.m.Snapshot().TokenVersions)
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
	// the writes served; the machine tracks those lines and the index
	// lines, nothing per write.
	for _, m := range store.Metrics() {
		if m.EntryLinesBumped > keys+window {
			t.Fatalf("shard %d carved %d entry lines for at most %d keys and a window of %d", m.Shard, m.EntryLinesBumped, keys, window)
		}
		if heads := store.shards[m.Shard].eng.cfg.Buckets; m.LinesTracked > keys+window+heads {
			t.Fatalf("shard %d's machine tracks %d lines: %d keys, window %d, %d index lines", m.Shard, m.LinesTracked, keys, window, heads)
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

// caughtStaleServe reports whether err is Verify's check 6, at the fold or
// at the clean drain — the only check a key served from the wrong racer can
// be caught by, since the image and the history are both sound.
func caughtStaleServe(err error) bool {
	return strings.Contains(err.Error(), "was served from an older record than") ||
		strings.Contains(err.Error(), "where recovery rebuilds")
}
