package pmkv

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

// TestReadIndexBasics: insert/get/tombstone semantics on the bare
// checkpoint, including the rule that commit order, not insert order,
// picks a key's winner.
func TestReadIndexBasics(t *testing.T) {
	cp := newCheckpoint(64)
	if v, found, rec := cp.get("a"); v != nil || found || rec != -1 {
		t.Fatalf("empty checkpoint get = (%q, %v, %d), want (nil, false, -1)", v, found, rec)
	}
	cp.insert(cpEntry{key: "a", val: []byte("v1"), found: true, rec: 0, ver: 10})
	cp.insert(cpEntry{key: "b", val: []byte("v2"), found: true, rec: 1, ver: 11})
	if v, found, rec := cp.get("a"); string(v) != "v1" || !found || rec != 0 {
		t.Fatalf("get a = (%q, %v, %d)", v, found, rec)
	}
	// Newer insert shadows the older entry.
	cp.insert(cpEntry{key: "a", val: []byte("v3"), found: true, rec: 2, ver: 12})
	if v, _, rec := cp.get("a"); string(v) != "v3" || rec != 2 {
		t.Fatalf("shadowed get a = (%q, rec %d), want (v3, 2)", v, rec)
	}
	// A tombstone answers found=false but keeps the record index.
	cp.insert(cpEntry{key: "b", rec: 3, ver: 13})
	if v, found, rec := cp.get("b"); v != nil || found || rec != 3 {
		t.Fatalf("tombstone get b = (%q, %v, %d), want (nil, false, 3)", v, found, rec)
	}
	// A later record whose publish committed earlier loses: NVRAM holds
	// the higher version last.
	cp.insert(cpEntry{key: "a", val: []byte("stale"), found: true, rec: 4, ver: 5})
	if v, _, rec := cp.get("a"); string(v) != "v3" || rec != 2 {
		t.Fatalf("get a after a lower-version insert = (%q, rec %d), want (v3, 2)", v, rec)
	}
	if cp.keys != 2 || cp.entries != 4 {
		t.Fatalf("keys, entries = %d, %d, want 2, 4", cp.keys, cp.entries)
	}
}

// TestReadIndexAbsoluteRecordIndex: record indices stay absolute and keep
// growing for the life of the process, so an entry must carry one above
// 2^31 intact — a wrapped index would hand the checker a wrong
// happens-before edge.
func TestReadIndexAbsoluteRecordIndex(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits on this platform")
	}
	cp := newCheckpoint(64)
	big := math.MaxInt32 + 12345
	cp.insert(cpEntry{key: "k", val: []byte("v"), found: true, rec: big, ver: 1})
	if _, _, rec := cp.get("k"); rec != big {
		t.Fatalf("rec = %d, want %d", rec, big)
	}
	for i := 0; i < 4*cpMinRebuild; i++ { // force a rebuild to copy the entry
		cp.insert(cpEntry{key: fmt.Sprintf("x%d", i%8), rec: big + 1 + i, ver: mem.Version(2 + i)})
	}
	if _, _, rec := cp.get("k"); rec != big {
		t.Fatalf("rec after rebuild = %d, want %d", rec, big)
	}
}

// TestReadIndexPublishPrefix: the checkpoint covers exactly the durable
// prefix — a write is invisible to ReadCommitted until the watermark has
// passed it, visible from then on, and stale watermark polls change
// nothing.
func TestReadIndexPublishPrefix(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	submit := func(op Op, key, val string) {
		t.Helper()
		if _, err := e.SubmitAppend(nil, []Request{{Sess: sess, Op: op, Key: key, Value: []byte(val)}}); err != nil {
			t.Fatal(err)
		}
		if err := e.PumpRetire(); err != nil {
			t.Fatal(err)
		}
	}
	submit(Put, "x", "1")
	submit(Put, "y", "2")
	if d, err := e.WaitDurable(2); err != nil || d != 2 {
		t.Fatalf("WaitDurable(2) = %d, %v", d, err)
	}
	if e.Committed() != 2 {
		t.Fatalf("Committed = %d, want 2", e.Committed())
	}
	submit(Delete, "x", "")
	submit(Put, "z", "3")
	// Retired but not yet durable: PumpRetire does not move the watermark.
	if v, found, rec := e.ReadCommitted("x"); string(v) != "1" || !found || rec != 0 {
		t.Fatalf("x before its delete is durable = (%q, %v, %d)", v, found, rec)
	}
	if _, found, rec := e.ReadCommitted("z"); found || rec != -1 {
		t.Fatal("z visible before its publish is durable")
	}
	if d, err := e.WaitDurable(4); err != nil || d != 4 {
		t.Fatalf("WaitDurable(4) = %d, %v", d, err)
	}
	if d, _, _ := e.DurableWatermark(); d != 4 || e.Committed() != 4 {
		t.Fatalf("watermark %d, Committed %d after a repeat poll, want 4", d, e.Committed())
	}
	if v, found, rec := e.ReadCommitted("x"); v != nil || found || rec != 2 {
		t.Fatalf("x after delete = (%q, %v, %d), want tombstone rec 2", v, found, rec)
	}
	if v, _, _ := e.ReadCommitted("z"); string(v) != "3" {
		t.Fatalf("z = %q, want 3", v)
	}
	if ret := e.Stats().Retention; ret.Retained != 0 || ret.Folded != 4 || ret.CheckpointKeys != 3 {
		t.Fatalf("retention = %+v, want 0 retained, 4 folded, 3 keys", ret)
	}
}

// TestReadIndexRebuildKeepsTombstones: compaction must preserve each
// key's newest state — including tombstones, which still shadow older
// live entries — and shrink the chain count to the live key count.
func TestReadIndexRebuildKeepsTombstones(t *testing.T) {
	cp := newCheckpoint(64)
	const keys = 32
	// Hammer a small key set until rebuilds have certainly run
	// (entries > 128 and > 2*keys triggers one per insert past that).
	rec := 0
	want := make(map[int]int)
	for round := 0; round < 20; round++ {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("k%03d", k)
			if (round+k)%5 == 0 {
				cp.insert(cpEntry{key: key, rec: rec, ver: mem.Version(rec + 1)})
				want[k] = -rec // negative marks a tombstone
			} else {
				cp.insert(cpEntry{key: key, val: []byte(fmt.Sprintf("v%d", rec)), found: true, rec: rec, ver: mem.Version(rec + 1)})
				want[k] = rec
			}
			rec++
		}
	}
	if cp.entries > 2*keys {
		t.Fatalf("rebuild never compacted: %d entries for %d keys", cp.entries, keys)
	}
	seen := 0
	cp.each(func(*cpEntry) { seen++ })
	if seen != keys {
		t.Fatalf("each visited %d entries, want one per key (%d)", seen, keys)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%03d", k)
		v, found, gotRec := cp.get(key)
		if w := want[k]; w < 0 {
			if found || gotRec != -w {
				t.Fatalf("%s: tombstone lost in rebuild: (%q, %v, %d)", key, v, found, gotRec)
			}
		} else if !found || string(v) != fmt.Sprintf("v%d", w) || gotRec != w {
			t.Fatalf("%s = (%q, %v, %d), want v%d", key, v, found, gotRec, w)
		}
	}
}

// TestReadIndexGrowsWithDistinctKeys: a table that fills with distinct
// keys (nothing shadowed, so compaction alone never fires) must still
// grow, or chains lengthen without bound.
func TestReadIndexGrowsWithDistinctKeys(t *testing.T) {
	cp := newCheckpoint(64)
	const keys = 4096
	for i := 0; i < keys; i++ {
		cp.insert(cpEntry{key: fmt.Sprintf("d%05d", i), val: []byte("v"), found: true, rec: i, ver: mem.Version(i + 1)})
	}
	if n := len(cp.table.Load().buckets); n < keys {
		t.Fatalf("table has %d buckets for %d distinct keys", n, keys)
	}
	for i := 0; i < keys; i += 97 {
		if _, found, rec := cp.get(fmt.Sprintf("d%05d", i)); !found || rec != i {
			t.Fatalf("key %d lost across growth: found %v rec %d", i, found, rec)
		}
	}
}

// TestCheckpointRebuildKeepsSpans: a rebuild copies whole entries. The span
// and hi an entry carries are what the free list and Verify's check 5 get
// back later, so an entry that lost them in a rebuild would leak its lines
// and pass the check blind.
func TestCheckpointRebuildKeepsSpans(t *testing.T) {
	cp := newCheckpoint(64)
	const keys = 2 * cpMinRebuild
	spanOf := func(i int) lineSpan { return lineSpan{first: mem.Line(1000 + 8*i), n: 1 + i%5} }
	for i := 0; i < keys; i++ {
		cp.insert(cpEntry{key: fmt.Sprintf("s%04d", i), val: []byte("v"), found: true, rec: i, ver: mem.Version(i + 1), span: spanOf(i), hi: mem.Version(i + 1)})
	}
	old := cp.table.Load()
	cp.rebuild()
	if cp.table.Load() == old {
		t.Fatal("rebuild did not swap the table")
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("s%04d", i)
		if en := cp.lookup(key); en.hi != mem.Version(i+1) {
			t.Fatalf("%s: hi = %d after the rebuild, want %d", key, en.hi, i+1)
		}
		if loser, _ := cp.insert(cpEntry{key: key, rec: keys + i, ver: mem.Version(keys + i + 1)}); loser != spanOf(i) {
			t.Fatalf("%s: shadowing it returned span %+v, want the one inserted, %+v", key, loser, spanOf(i))
		}
	}
}

// TestReadFastPathServesDurableWrites: after a durably-acked write, a
// GET from the same session takes the fast path and returns it; a GET
// for a never-written key is an authoritative fast not-found; disabling
// the fast path routes every GET through the mailbox.
func TestReadFastPathServesDurableWrites(t *testing.T) {
	store, err := NewSharded(ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	if ack := store.Do(sess, Get, "nope", nil); !ack.Fast || ack.Resp.Found || ack.Err != nil {
		t.Fatalf("fresh-store get = %+v, want fast not-found", ack)
	}
	if ack := store.Do(sess, Put, "k", []byte("v")); ack.Err != nil || ack.Fast {
		t.Fatalf("put ack = %+v (writes never take the fast path)", ack)
	}
	ack := store.Do(sess, Get, "k", nil)
	if ack.Err != nil || !ack.Fast || !ack.Resp.Found || string(ack.Resp.Value) != "v" {
		t.Fatalf("get after acked put = %+v, want fast hit with v", ack)
	}
	if ack.Durable < 1 {
		t.Fatalf("fast ack watermark = %d, want >= 1", ack.Durable)
	}
	if ack := store.Do(sess, Delete, "k", nil); ack.Err != nil {
		t.Fatalf("del: %+v", ack)
	}
	if ack := store.Do(sess, Get, "k", nil); !ack.Fast || ack.Resp.Found {
		t.Fatalf("get after acked del = %+v, want fast tombstone", ack)
	}
	m := store.Metrics()
	var hits uint64
	for _, sm := range m {
		hits += sm.FastHits
	}
	if hits < 3 {
		t.Fatalf("fast hits = %d, want >= 3", hits)
	}
	if _, err := store.Close(); err != nil {
		t.Fatal(err)
	}

	off, err := NewSharded(ShardedConfig{Shards: 2, DisableReadFast: true})
	if err != nil {
		t.Fatal(err)
	}
	osess := off.NewSession()
	off.Do(osess, Put, "k", []byte("v"))
	if ack := off.Do(osess, Get, "k", nil); ack.Fast {
		t.Fatalf("fast ack with DisableReadFast: %+v", ack)
	}
	if m := off.Metrics(); m[0].FastHits+m[1].FastHits != 0 {
		t.Fatal("fast hits counted with the path disabled")
	}
	if _, err := off.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFallbackReasons: a GET that leaves the fast path is counted
// under the first reason DoAsync found — the session's own unacked write,
// the drain, the crash — and the reasons sum to the fallback count.
func TestReadFallbackReasons(t *testing.T) {
	store, err := NewSharded(ShardedConfig{Engine: Config{CrashAt: 3_000}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, want ReadFallbacks) {
		t.Helper()
		m := store.Metrics()[0]
		if m.FallbackReasons != want || m.FastFallbacks != want.Pending+want.Draining+want.Crashed {
			t.Fatalf("%s: reasons %+v summing to %d, want %+v", step, m.FallbackReasons, m.FastFallbacks, want)
		}
	}
	writer, reader := store.NewSession(), store.NewSession()
	if ack := store.Do(reader, Get, "k", nil); !ack.Fast {
		t.Fatalf("fresh-store get = %+v, want the fast path", ack)
	}
	check("fast hit", ReadFallbacks{})

	// A write in flight, as the counter DoAsync raises before the mailbox
	// send: the session's own GET must go behind it.
	writer.pending[0].Add(1)
	if ack := store.Do(writer, Get, "k", nil); ack.Fast || ack.Err != nil {
		t.Fatalf("get behind the session's own write = %+v, want the mailbox", ack)
	}
	writer.pending[0].Add(-1)
	check("own write pending", ReadFallbacks{Pending: 1})

	for i := 0; !store.Crashed(); i++ {
		if i > 10_000 {
			t.Fatal("crash instant never reached")
		}
		store.Do(writer, Put, fmt.Sprintf("k%d", i%8), []byte("v"))
	}
	if ack := store.Do(reader, Get, "k", nil); ack.Fast || ack.Err != ErrCrashed {
		t.Fatalf("get after the crash = %+v, want the mailbox's refusal", ack)
	}
	check("crashed", ReadFallbacks{Pending: 1, Crashed: 1})

	store.BeginDrain()
	if ack := store.Do(reader, Get, "k", nil); ack.Err != ErrDraining {
		t.Fatalf("get after BeginDrain = %+v, want ErrDraining", ack)
	}
	check("draining", ReadFallbacks{Pending: 1, Draining: 1, Crashed: 1})
	if _, err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFastRaceStress races fast-path readers against writers (and
// their workers' index publishes) with the checker on; run under -race
// this is the memory-model guard for the lock-free index. Each reader
// session never writes, so its pending counters stay zero and every GET
// takes the fast path.
func TestReadFastRaceStress(t *testing.T) {
	for _, crash := range []sim.Cycle{0, 60_000} {
		store, err := NewSharded(ShardedConfig{
			Shards: 4,
			Engine: Config{Check: true, CrashAt: crash},
		})
		if err != nil {
			t.Fatal(err)
		}
		const writers, readers, ops, keys = 4, 4, 150, 24
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			sess := store.NewSession()
			wg.Add(1)
			go func(w int, sess *ShardedSession) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for n := 0; n < ops; n++ {
					key := fmt.Sprintf("k%03d", rng.Intn(keys))
					var ack ShardAck
					if rng.Intn(5) == 0 {
						ack = store.Do(sess, Delete, key, nil)
					} else {
						ack = store.Do(sess, Put, key, []byte(fmt.Sprintf("w%d-%d", w, n)))
					}
					if ack.Err != nil || ack.Crashed {
						return // draining or crashed: stop writing
					}
				}
			}(w, sess)
		}
		for r := 0; r < readers; r++ {
			sess := store.NewSession()
			wg.Add(1)
			go func(r int, sess *ShardedSession) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + r)))
				for n := 0; n < ops*2; n++ {
					key := fmt.Sprintf("k%03d", rng.Intn(keys))
					ack := store.Do(sess, Get, key, nil)
					if ack.Err != nil || ack.Crashed {
						return
					}
				}
			}(r, sess)
		}
		wg.Wait()
		results, err := store.Close()
		if err != nil {
			t.Fatalf("crash=%d: %v", crash, err)
		}
		for _, res := range results {
			if res.DL == nil {
				t.Fatalf("crash=%d shard %d: checker off", crash, res.Shard)
			}
			if res.DL.Err() != nil {
				t.Fatalf("crash=%d shard %d: %v", crash, res.Shard, res.DL.Err())
			}
		}
	}
}

// liveRun drives spec's scripted ops sequentially against a live store
// and returns the combined recovery fingerprint, the recovered state,
// and the total fast-hit count. Sequential issuance makes the mutation
// order — hence the clean-drain recovered state — identical across
// configurations, which is what lets the metamorphic test compare
// fingerprints byte-for-byte.
func liveRun(t *testing.T, cfg ShardedConfig, spec ScriptSpec, crash sim.Cycle) (string, map[string][]byte, uint64) {
	t.Helper()
	cfg.Engine.Check = true
	cfg.Engine.CrashAt = crash
	store, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make(map[int]*ShardedSession)
	for _, batch := range GenScript(spec) {
		for _, op := range batch {
			sess := sessions[op.Sess]
			if sess == nil {
				sess = store.NewSession()
				sessions[op.Sess] = sess
			}
			store.Do(sess, op.Op, op.Key, op.Value)
		}
	}
	results, err := store.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	var hits uint64
	for _, r := range results {
		if r.DL == nil {
			t.Fatalf("shard %d: checker not armed", r.Shard)
		}
	}
	for _, m := range store.Metrics() {
		hits += m.FastHits
	}
	return CombineFingerprints(results), MergeRecovered(results), hits
}

// TestReadFastMetamorphic is the equivalence pin: the same workload with
// the fast path on and off must recover byte-identical state from a
// clean drain (GETs never mutate, whichever path serves them) and pass
// the durable-linearizability checker either way; under a crash the
// recovered prefixes may differ (timing) but both verdicts must hold.
func TestReadFastMetamorphic(t *testing.T) {
	spec := ScriptSpec{Sessions: 4, Rounds: 30, KeySpace: 12, Seed: 99, PutPct: 40, GetPct: 45}
	for _, shards := range []int{1, 4} {
		on := ShardedConfig{Shards: shards}
		off := ShardedConfig{Shards: shards, DisableReadFast: true}

		fpOn, recOn, hitsOn := liveRun(t, on, spec, 0)
		fpOff, recOff, hitsOff := liveRun(t, off, spec, 0)
		if hitsOn == 0 {
			t.Fatalf("shards=%d: fast path never hit — the test exercises nothing", shards)
		}
		if hitsOff != 0 {
			t.Fatalf("shards=%d: %d fast hits with the path disabled", shards, hitsOff)
		}
		if fpOn != fpOff {
			t.Fatalf("shards=%d: clean-drain fingerprints diverge: fast-on %s, fast-off %s",
				shards, fpOn, fpOff)
		}
		if len(recOn) != len(recOff) {
			t.Fatalf("shards=%d: recovered sizes diverge: %d vs %d", shards, len(recOn), len(recOff))
		}
		for k, v := range recOn {
			if !bytes.Equal(v, recOff[k]) {
				t.Fatalf("shards=%d: recovered[%q] diverges: %q vs %q", shards, k, v, recOff[k])
			}
		}

		// Crash variant: liveRun fails the test itself on any verification
		// or checker rejection; fingerprints legitimately differ here.
		liveRun(t, on, spec, 40_000)
		liveRun(t, off, spec, 40_000)
	}
}

// BenchmarkReadFastPath measures the GET cost on the three read paths
// the fast-path design produces: index hits (lock-free, no mailbox),
// forced fallbacks (DisableReadFast — every GET rides a group commit),
// and a 95/5 read/write mix on the fast-path store (the headline
// workload of the PR). ops/sec is logical operations over wall time.
func BenchmarkReadFastPath(b *testing.B) {
	const keyCount = 256
	keys := make([]string, keyCount)
	for k := range keys {
		keys[k] = fmt.Sprintf("k%06d", k)
	}
	setup := func(b *testing.B, disable bool) (*ShardedStore, *ShardedSession) {
		b.Helper()
		store, err := NewSharded(ShardedConfig{Shards: 4, DisableReadFast: disable})
		if err != nil {
			b.Fatal(err)
		}
		sess := store.NewSession()
		for _, k := range keys {
			if ack := store.Do(sess, Put, k, []byte("warmval-benchmark")); ack.Err != nil {
				b.Fatal(ack.Err)
			}
		}
		return store, sess
	}
	close := func(b *testing.B, store *ShardedStore) {
		b.Helper()
		b.StopTimer()
		if _, err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("hit", func(b *testing.B) {
		store, sess := setup(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ack := store.Do(sess, Get, keys[i%keyCount], nil)
			if ack.Err != nil || !ack.Fast {
				b.Fatalf("expected fast hit: %+v", ack)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		close(b, store)
	})

	b.Run("fallback", func(b *testing.B) {
		store, sess := setup(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ack := store.Do(sess, Get, keys[i%keyCount], nil)
			if ack.Err != nil || ack.Fast {
				b.Fatalf("expected mailbox read: %+v", ack)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		close(b, store)
	})

	b.Run("mixed95", func(b *testing.B) {
		store, sess := setup(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var ack ShardAck
			if i%20 == 19 {
				ack = store.Do(sess, Put, keys[i%keyCount], []byte("mixed-write-value"))
			} else {
				ack = store.Do(sess, Get, keys[i%keyCount], nil)
			}
			if ack.Err != nil {
				b.Fatal(ack.Err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		close(b, store)
	})
}
