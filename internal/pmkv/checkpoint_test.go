package pmkv

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

// TestReadIndexBasics: insert/get/tombstone semantics on the bare
// checkpoint: records fold in index order, so each insert is its key's
// newest and replaces the entry its key had.
func TestReadIndexBasics(t *testing.T) {
	cp := newCheckpoint()
	if v, found, rec := cp.get("a"); v != nil || found || rec != -1 {
		t.Fatalf("empty checkpoint get = (%q, %v, %d), want (nil, false, -1)", v, found, rec)
	}
	cp.insert(cpEntry{key: "a", val: []byte("v1"), found: true, rec: 0})
	cp.insert(cpEntry{key: "b", val: []byte("v2"), found: true, rec: 1})
	if v, found, rec := cp.get("a"); string(v) != "v1" || !found || rec != 0 {
		t.Fatalf("get a = (%q, %v, %d)", v, found, rec)
	}
	// A newer insert replaces the older entry and hands it back.
	if _, replaced := cp.insert(cpEntry{key: "a", val: []byte("v3"), found: true, rec: 2}); replaced == nil || replaced.rec != 0 {
		t.Fatalf("replacing a returned %+v, want its rec 0 entry", replaced)
	}
	if v, _, rec := cp.get("a"); string(v) != "v3" || rec != 2 {
		t.Fatalf("replaced get a = (%q, rec %d), want (v3, 2)", v, rec)
	}
	// A tombstone answers found=false but keeps the record index.
	cp.insert(cpEntry{key: "b", rec: 3})
	if v, found, rec := cp.get("b"); v != nil || found || rec != 3 {
		t.Fatalf("tombstone get b = (%q, %v, %d), want (nil, false, 3)", v, found, rec)
	}
	if cp.keys != 2 {
		t.Fatalf("keys = %d, want 2", cp.keys)
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
	cp := newCheckpoint()
	big := math.MaxInt32 + 12345
	cp.insert(cpEntry{key: "k", val: []byte("v"), found: true, rec: big})
	if _, _, rec := cp.get("k"); rec != big {
		t.Fatalf("rec = %d, want %d", rec, big)
	}
	old := cp.table.Load()
	for i := 0; i < cpMinSlots; i++ { // force growth to re-slot the entry
		cp.insert(cpEntry{key: fmt.Sprintf("x%d", i), rec: big + 1 + i})
	}
	if cp.table.Load() == old {
		t.Fatal("the table never grew")
	}
	if _, _, rec := cp.get("k"); rec != big {
		t.Fatalf("rec after growth = %d, want %d", rec, big)
	}
}

// TestReadIndexPublishPrefix: the checkpoint covers exactly the durable
// prefix — a write is invisible to readCommitted until the watermark has
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
	if e.committed() != 2 {
		t.Fatalf("committed = %d, want 2", e.committed())
	}
	submit(Delete, "x", "")
	submit(Put, "z", "3")
	// Retired but not yet durable: PumpRetire does not move the watermark.
	if v, found, rec := e.readCommitted("x"); string(v) != "1" || !found || rec != 0 {
		t.Fatalf("x before its delete is durable = (%q, %v, %d)", v, found, rec)
	}
	if _, found, rec := e.readCommitted("z"); found || rec != -1 {
		t.Fatal("z visible before its publish is durable")
	}
	if d, err := e.WaitDurable(4); err != nil || d != 4 {
		t.Fatalf("WaitDurable(4) = %d, %v", d, err)
	}
	if d, _, _ := e.durableWatermark(); d != 4 || e.committed() != 4 {
		t.Fatalf("watermark %d, committed %d after a repeat poll, want 4", d, e.committed())
	}
	if v, found, rec := e.readCommitted("x"); v != nil || found || rec != 2 {
		t.Fatalf("x after delete = (%q, %v, %d), want tombstone rec 2", v, found, rec)
	}
	if v, _, _ := e.readCommitted("z"); string(v) != "3" {
		t.Fatalf("z = %q, want 3", v)
	}
	if ret := e.Stats().Retention; ret.Retained != 0 || ret.Folded != 4 || ret.CheckpointKeys != 3 {
		t.Fatalf("retention = %+v, want 0 retained, 4 folded, 3 keys", ret)
	}
}

// TestReadIndexGrowthKeepsTombstones: growth must keep each key's newest
// state — tombstones included, which still answer for deleted keys — with
// exactly one entry per key. New keys arrive between rewrites and deletes
// of the old ones, so the table grows several times with tombstones in it.
func TestReadIndexGrowthKeepsTombstones(t *testing.T) {
	cp := newCheckpoint()
	const keys = 512
	rec := 0
	want := make(map[int]int)
	write := func(k int, tombstone bool) {
		key := fmt.Sprintf("k%03d", k)
		if tombstone {
			cp.insert(cpEntry{key: key, rec: rec})
			want[k] = -rec // negative marks a tombstone
		} else {
			cp.insert(cpEntry{key: key, val: []byte(fmt.Sprintf("v%d", rec)), found: true, rec: rec})
			want[k] = rec
		}
		rec++
	}
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= keys; n++ {
		write(n-1, false)
		write(rng.Intn(n), n%3 == 0)
	}
	if n := len(cp.table.Load().slots); cp.keys != keys || n < 2*keys {
		t.Fatalf("%d keys in %d slots, want %d keys in at least twice as many", cp.keys, n, keys)
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
				t.Fatalf("%s: tombstone lost in growth: (%q, %v, %d)", key, v, found, gotRec)
			}
		} else if !found || string(v) != fmt.Sprintf("v%d", w) || gotRec != w {
			t.Fatalf("%s = (%q, %v, %d), want v%d", key, v, found, gotRec, w)
		}
	}
}

// TestReadIndexGrowsWithDistinctKeys: a table that fills with distinct
// keys must grow to keep at least half its slots empty, or probes lengthen
// without bound.
func TestReadIndexGrowsWithDistinctKeys(t *testing.T) {
	cp := newCheckpoint()
	const keys = 4096
	for i := 0; i < keys; i++ {
		cp.insert(cpEntry{key: fmt.Sprintf("d%05d", i), val: []byte("v"), found: true, rec: i})
	}
	if n := len(cp.table.Load().slots); n < 2*keys {
		t.Fatalf("table has %d slots for %d distinct keys", n, keys)
	}
	for i := 0; i < keys; i += 97 {
		if _, found, rec := cp.get(fmt.Sprintf("d%05d", i)); !found || rec != i {
			t.Fatalf("key %d lost across growth: found %v rec %d", i, found, rec)
		}
	}
}

// TestCheckpointGrowthKeepsSpans: growth re-slots the entries themselves.
// The span and hi an entry carries are what the free list and Verify's
// check 5 get back later, so an entry that lost them in growth would leak
// its lines and pass the check blind.
func TestCheckpointGrowthKeepsSpans(t *testing.T) {
	cp := newCheckpoint()
	const keys = cpMinSlots / 2 // the most the first table holds
	spanOf := func(i int) lineSpan { return lineSpan{first: mem.Line(1000 + 8*i), n: 1 + i%5} }
	before := make([]*cpEntry, keys)
	for i := 0; i < keys; i++ {
		before[i], _ = cp.insert(cpEntry{key: fmt.Sprintf("s%04d", i), val: []byte("v"), found: true, rec: i, span: spanOf(i), hi: mem.Version(i + 1)})
	}
	old := cp.table.Load()
	cp.insert(cpEntry{key: "one more", rec: keys})
	if t2 := cp.table.Load(); t2 == old || len(t2.slots) != 2*len(old.slots) {
		t.Fatalf("one key past half of %d slots left a table of %d", len(old.slots), len(t2.slots))
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("s%04d", i)
		if en := cp.lookup(key); en != before[i] || en.hi != mem.Version(i+1) {
			t.Fatalf("%s: growth left %p with hi %d, want the inserted entry %p with hi %d", key, en, en.hi, before[i], i+1)
		}
		if _, replaced := cp.insert(cpEntry{key: key, rec: 2*keys + i}); replaced.span != spanOf(i) {
			t.Fatalf("%s: replacing it returned span %+v, want the one inserted, %+v", key, replaced.span, spanOf(i))
		}
	}
}

// TestReadIndexDropsReplacedEntries: once insert has replaced a key's
// entry, the table no longer reaches it — before growth or after — so the
// checkpoint pins one value per key, never every superseded one.
func TestReadIndexDropsReplacedEntries(t *testing.T) {
	cp := newCheckpoint()
	rec := 0
	put := func(key string) {
		cp.insert(cpEntry{key: key, val: make([]byte, 1024), found: true, rec: rec})
		rec++
	}
	dropped := func(when string, w weak.Pointer[cpEntry]) {
		t.Helper()
		runtime.GC()
		if w.Value() != nil {
			t.Fatalf("%s: the replaced entry is still reachable", when)
		}
	}
	put("hot")
	w := weak.Make(cp.lookup("hot"))
	put("hot")
	dropped("same table", w)

	w = weak.Make(cp.lookup("hot"))
	old := cp.table.Load()
	for i := 0; cp.table.Load() == old; i++ {
		put(fmt.Sprintf("cold%d", i))
	}
	put("hot")
	dropped("after growth", w)
	if _, found, r := cp.get("hot"); !found || r != rec-1 {
		t.Fatalf("hot = found %v rec %d, want the newest, %d", found, r, rec-1)
	}
}

// TestFoldReplaceAllocs: folding a write of a key the checkpoint already
// holds costs exactly two allocations, the entry and its copy of the
// value. The replaced entry leaves the table in the same store, and its
// lines go on a free stack that reuses its storage. The memory profile
// counts every allocation under fold, so a cost paid once in many folds
// counts too, where an average per fold would round it away.
func TestFoldReplaceAllocs(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 96)
	r := &OpRecord{Op: Put, Key: "k", Value: val}
	put := func() {
		// The lines of the entry the last fold replaced, as the key's next
		// Put takes them.
		span := e.entryLinesFor(0, val)
		r.EntryLine, r.Entries = span.first, span.n
		e.fold(r)
		r.Idx++
	}
	for i := 0; i < 8; i++ { // every free stack the key's lines visit has storage
		put()
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	since := allocProfile()
	const folds = 500
	for i := 0; i < folds; i++ {
		put()
	}
	var n int64
	var stacks strings.Builder
	for site, k := range allocSites(since) {
		if strings.Contains(site, ".(*Engine).fold\n") {
			n += k
			fmt.Fprintf(&stacks, "%d allocation(s):\n%s", k, site)
		}
	}
	if n != 2*folds {
		t.Fatalf("%d folds replacing a key's entry allocated %d times, want %d; allocating stacks:\n%s", folds, n, 2*folds, stacks.String())
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
	if ack := store.do(sess, Get, "nope", nil); !ack.Fast || ack.Resp.Found || ack.Err != nil {
		t.Fatalf("fresh-store get = %+v, want fast not-found", ack)
	}
	if ack := store.do(sess, Put, "k", []byte("v")); ack.Err != nil || ack.Fast {
		t.Fatalf("put ack = %+v (writes never take the fast path)", ack)
	}
	ack := store.do(sess, Get, "k", nil)
	if ack.Err != nil || !ack.Fast || !ack.Resp.Found || string(ack.Resp.Value) != "v" {
		t.Fatalf("get after acked put = %+v, want fast hit with v", ack)
	}
	if ack.Durable < 1 {
		t.Fatalf("fast ack watermark = %d, want >= 1", ack.Durable)
	}
	if ack := store.do(sess, Delete, "k", nil); ack.Err != nil {
		t.Fatalf("del: %+v", ack)
	}
	if ack := store.do(sess, Get, "k", nil); !ack.Fast || ack.Resp.Found {
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
	off.do(osess, Put, "k", []byte("v"))
	if ack := off.do(osess, Get, "k", nil); ack.Fast {
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
	if ack := store.do(reader, Get, "k", nil); !ack.Fast {
		t.Fatalf("fresh-store get = %+v, want the fast path", ack)
	}
	check("fast hit", ReadFallbacks{})

	// A write to the key in flight, as the counter DoAsync raises in the
	// key's slot before the mailbox send: the session's own GET must go
	// behind it.
	slot := &writer.pending[0][pendSlot(shardHash("k"))]
	slot.Add(1)
	if ack := store.do(writer, Get, "k", nil); ack.Fast || ack.Err != nil {
		t.Fatalf("get behind the session's own write = %+v, want the mailbox", ack)
	}
	slot.Add(-1)
	check("own write pending", ReadFallbacks{Pending: 1})

	for i := 0; !store.Crashed(); i++ {
		if i > 10_000 {
			t.Fatal("crash instant never reached")
		}
		store.do(writer, Put, fmt.Sprintf("k%d", i%8), []byte("v"))
	}
	if ack := store.do(reader, Get, "k", nil); ack.Fast || ack.Err != ErrCrashed {
		t.Fatalf("get after the crash = %+v, want the mailbox's refusal", ack)
	}
	check("crashed", ReadFallbacks{Pending: 1, Crashed: 1})

	store.BeginDrain()
	if ack := store.do(reader, Get, "k", nil); ack.Err != ErrDraining {
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
// takes the fast path. Each writer also re-reads a key of its own right
// behind every unacked Put of it, and must read that Put.
func TestReadFastRaceStress(t *testing.T) {
	for _, crash := range []sim.Cycle{0, 60_000} {
		if stale := readFastRaceStress(t, crash, plantNone); stale > 0 {
			t.Errorf("crash=%d: %d reads right behind the session's own unacked Put missed it", crash, stale)
		}
	}
}

// TestPlantedFastPathWrongSlot: a GET that checks another key's pending
// slot takes the fast path past its session's own unacked Put, and
// TestReadFastRaceStress's writers catch it reading the older value.
func TestPlantedFastPathWrongSlot(t *testing.T) {
	if stale := readFastRaceStress(t, 0, plantFastPathWrongSlot); stale == 0 {
		t.Fatal("no writer read past its own unacked Put with the fast path checking the wrong slot")
	}
}

// readFastRaceStress is TestReadFastRaceStress's run on engines carrying
// bug. It fails t on a checker or recovery rejection, except under a
// plant, and returns how many of the writers' own re-reads missed the Put
// just before them.
func readFastRaceStress(t *testing.T, crash sim.Cycle, bug plantedBug) (stale int) {
	cfg := ShardedConfig{Shards: 4, Engine: Config{Check: true, CrashAt: crash}}
	engines := make([]*Engine, cfg.Shards)
	for i := range engines {
		e, err := New(cfg.Engine)
		if err != nil {
			t.Fatal(err)
		}
		e.plant = bug
		engines[i] = e
	}
	store, err := newStore(cfg, engines)
	if err != nil {
		t.Fatal(err)
	}
	store.start()
	const writers, readers, ops, keys = 4, 4, 150, 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < writers; w++ {
		sess := store.NewSession()
		wg.Add(1)
		go func(w int, sess *ShardedSession) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			own, done := fmt.Sprintf("own%d", w), make(chan Completion, 1)
			for n := 0; n < ops; n++ {
				key := fmt.Sprintf("k%03d", rng.Intn(keys))
				var ack ShardAck
				if rng.Intn(5) == 0 {
					ack = store.do(sess, Delete, key, nil)
				} else {
					ack = store.do(sess, Put, key, []byte(fmt.Sprintf("w%d-%d", w, n)))
				}
				if ack.Err != nil || ack.Crashed {
					return // draining or crashed: stop writing
				}
				val := fmt.Sprintf("own%d-%d", w, n)
				if _, err := store.DoAsync(sess, Put, own, []byte(val), nil, 0, done); err != nil {
					return
				}
				read := store.do(sess, Get, own, nil)
				if put := (<-done).Ack; put.Err != nil || put.Crashed || read.Err != nil || read.Crashed {
					return
				}
				if string(read.Resp.Value) != val {
					mu.Lock()
					stale++
					mu.Unlock()
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
				ack := store.do(sess, Get, key, nil)
				if ack.Err != nil || ack.Crashed {
					return
				}
			}
		}(r, sess)
	}
	wg.Wait()
	results, err := store.Close()
	if bug != plantNone {
		return stale
	}
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
	return stale
}

// TestFastPathPerKey: a GET waits only for its own session's unacked write
// to its key. While the session's Put of A is unacked, its GET of B (same
// shard, another pending slot) is fast; its GETs of A, and of a key
// sharing A's slot, fall back behind the Put and see it. Once A's Put is
// acked, a GET of A is fast again.
func TestFastPathPerKey(t *testing.T) {
	const shards = 2
	a := "alpha"
	mate := slotMate(a, shards)
	b := ""
	for i := 0; b == ""; i++ {
		k := fmt.Sprintf("other%d", i)
		if ShardOf(k, shards) == ShardOf(a, shards) && pendSlot(shardHash(k)) != pendSlot(shardHash(a)) {
			b = k
		}
	}

	// No proactive flush: A's epoch stays unpersisted, so its ack — and the
	// ack of every GET committed behind it — waits for the closing drain.
	lazy := SmallMachine()
	lazy.PF = false
	store, err := NewSharded(ShardedConfig{Shards: shards, Engine: Config{Machine: lazy}})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	done := make(chan Completion, 3)
	if _, err := store.DoAsync(sess, Put, a, []byte("new"), nil, 0, done); err != nil {
		t.Fatal(err)
	}
	if ack := store.do(sess, Get, b, nil); !ack.Fast || ack.Err != nil || ack.Resp.Found {
		t.Fatalf("GET of %s behind the session's unacked Put of %s = %+v, want a fast not-found", b, a, ack)
	}
	for tag, key := range []string{a, mate} {
		if _, err := store.DoAsync(sess, Get, key, nil, nil, uint64(1+tag), done); err != nil {
			t.Fatal(err)
		}
	}
	m := store.Metrics()[ShardOf(a, shards)]
	if m.FastHits != 1 || m.FallbackReasons.Pending != 2 {
		t.Fatalf("shard of %s: %d fast hits, fallbacks %+v; want 1 and 2 pending", a, m.FastHits, m.FallbackReasons)
	}
	if _, err := store.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{0: "new", 1: "new", 2: "<absent>"}
	for range want {
		c := <-done
		if got := answer(c.Ack.Resp.Value, c.Ack.Resp.Found); c.Ack.Err != nil || c.Ack.Fast || got != want[c.Tag] {
			t.Errorf("request %d: %+v (%s), want %s through the mailbox", c.Tag, c.Ack, got, want[c.Tag])
		}
	}

	store, err = NewSharded(ShardedConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	sess = store.NewSession()
	if ack := store.do(sess, Put, a, []byte("acked")); ack.Err != nil || ack.Crashed {
		t.Fatal(ack)
	}
	if ack := store.do(sess, Get, a, nil); !ack.Fast || string(ack.Resp.Value) != "acked" {
		t.Fatalf("GET of %s after its Put was acked = %+v, want the fast path", a, ack)
	}
	if _, err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFastMetamorphic is the equivalence pin, through the fuzzer's
// live runner: the same read-heavy workload with the fast path on and off
// must recover byte-identical state from a clean drain (GETs never
// mutate, whichever path serves them) and pass the durable-linearizability
// checker either way; under a crash halfway through, the recovered
// prefixes may differ (timing) but both verdicts must hold.
func TestReadFastMetamorphic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		c := fuzzCase{scriptSpec: scriptSpec{Sessions: 4, Rounds: 30, KeySpace: 12, Seed: 99, PutPct: 40, GetPct: 45}, Shards: shards, Frac: 128}
		hits, f := runLive(c)
		if f != nil {
			t.Fatalf("shards=%d:\n%s", shards, transcript(f))
		}
		if hits == 0 {
			t.Fatalf("shards=%d: fast path never hit — the test exercises nothing", shards)
		}
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
			if ack := store.do(sess, Put, k, []byte("warmval-benchmark")); ack.Err != nil {
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
			ack := store.do(sess, Get, keys[i%keyCount], nil)
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
			ack := store.do(sess, Get, keys[i%keyCount], nil)
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
				ack = store.do(sess, Put, keys[i%keyCount], []byte("mixed-write-value"))
			} else {
				ack = store.do(sess, Get, keys[i%keyCount], nil)
			}
			if ack.Err != nil {
				b.Fatal(ack.Err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		close(b, store)
	})
}
