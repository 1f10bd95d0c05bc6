package pmkv

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"persistbarriers/internal/sim"
	"persistbarriers/internal/telemetry"
)

// TestShardOfGolden pins the router's key->shard mapping: it must be a
// pure function of the key bytes, stable across processes and releases —
// a silent hash change would re-home every key and make old data
// unreachable after a restart.
func TestShardOfGolden(t *testing.T) {
	golden := map[string]int{
		"k000":    ShardOf("k000", 4),
		"k001":    ShardOf("k001", 4),
		"user:7":  ShardOf("user:7", 4),
		"":        ShardOf("", 4),
		"alpha":   ShardOf("alpha", 4),
		"beta":    ShardOf("beta", 4),
		"k000000": ShardOf("k000000", 4),
	}
	// Same key, same shard, every time ("across restarts" = pure function).
	for i := 0; i < 100; i++ {
		for k, want := range golden {
			if got := ShardOf(k, 4); got != want {
				t.Fatalf("ShardOf(%q, 4) drifted: %d then %d", k, want, got)
			}
		}
	}
	// Cross-version stability: these values were computed when the router
	// shipped; changing the hash breaks them loudly.
	pinned := map[string]int{"k000": 1, "k001": 3, "user:7": 0, "alpha": 0, "beta": 0}
	for k, want := range pinned {
		if got := ShardOf(k, 4); got != want {
			t.Fatalf("ShardOf(%q, 4) = %d, want pinned %d (router hash changed!)", k, got, want)
		}
	}
	if ShardOf("anything", 1) != 0 {
		t.Fatal("single shard must own every key")
	}
}

// TestShardRouterBalance: the router must spread both dense sequential
// keyspaces and the skewed hot-key mix of the script generator roughly
// evenly — every shard within 2x of the ideal share.
func TestShardRouterBalance(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		for _, tc := range []struct {
			name string
			keys []string
		}{
			{"sequential", seqKeys(4096)},
			{"script-skew", scriptKeys(t, 4096)},
		} {
			counts := make([]int, shards)
			for _, k := range tc.keys {
				s := ShardOf(k, shards)
				if s < 0 || s >= shards {
					t.Fatalf("ShardOf(%q, %d) = %d out of range", k, shards, s)
				}
				counts[s]++
			}
			ideal := len(tc.keys) / shards
			for s, c := range counts {
				if c < ideal/2 || c > ideal*2 {
					t.Fatalf("%s at %d shards: shard %d holds %d keys, ideal %d (counts %v)",
						tc.name, shards, s, c, ideal, counts)
				}
			}
		}
	}
}

func seqKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("k%05d", i)
	}
	return out
}

// scriptKeys extracts the distinct keys a scripted workload touches (the
// generator's skew: few hot keys, short names).
func scriptKeys(t *testing.T, n int) []string {
	t.Helper()
	seen := make(map[string]bool)
	var out []string
	for _, batch := range genScript(scriptSpec{Sessions: 8, Rounds: n / 8, KeySpace: n, ValueBytes: 8, Seed: 7}) {
		for _, op := range batch {
			if !seen[op.Key] {
				seen[op.Key] = true
				out = append(out, op.Key)
			}
		}
	}
	return out
}

// anyCrashed reports whether some shard of a run lost power.
func anyCrashed(results []ShardResult) bool {
	for _, r := range results {
		if r.Crashed {
			return true
		}
	}
	return false
}

// span is the slowest shard's clock before its closing drain: a crash
// instant past it would land in the drain, after every scripted op.
func span(results []ShardResult) sim.Cycle {
	var c sim.Cycle
	for _, r := range results {
		c = max(c, r.Cycles)
	}
	return c
}

// TestShardedDeterminism: same spec + same fanned-out crash instant must
// yield identical per-shard and combined fingerprints across runs (shard
// goroutines run in parallel; their interleaving must not matter).
func TestShardedDeterminism(t *testing.T) {
	script := genScript(testSpec())
	cfg := ShardedConfig{Shards: 4}
	clean, err := RunShardedScript(cfg, script)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine.CrashAt = span(clean) / 2
	a, err := RunShardedScript(cfg, script)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShardedScript(cfg, script)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := CombineFingerprints(a), CombineFingerprints(b); fa != fb {
		t.Fatalf("combined fingerprints differ: %s vs %s", fa, fb)
	}
	for s := range a {
		if a[s].Report.Fingerprint != b[s].Report.Fingerprint {
			t.Fatalf("shard %d fingerprints differ", s)
		}
	}
}

// TestShardedStoreLiveRace drives 8 concurrent sessions against a live
// 4-shard store — the race-detector workout for the mailbox, pipelined
// committer, watermark acks, and metrics paths. Each session writes its
// own keys, so after a clean close the recovered union must hold every
// acknowledged value exactly.
func TestShardedStoreLiveRace(t *testing.T) {
	store, err := NewSharded(ShardedConfig{Shards: 4, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	const sessions, ops = 8, 24
	expect := make([]map[string]string, sessions)
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		sess := store.NewSession()
		expect[i] = make(map[string]string)
		wg.Add(1)
		go func(i int, sess *ShardedSession) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				key := fmt.Sprintf("s%d-k%d", i, n%6)
				switch n % 4 {
				case 0, 1, 2:
					val := fmt.Sprintf("v%d-%d", i, n)
					ack := store.do(sess, Put, key, []byte(val))
					if ack.Err != nil {
						errc <- fmt.Errorf("session %d put: %w", i, ack.Err)
						return
					}
					if ack.Crashed {
						errc <- fmt.Errorf("session %d put: unexpected crash flag", i)
						return
					}
					expect[i][key] = val
				default:
					ack := store.do(sess, Get, key, nil)
					if ack.Err != nil {
						errc <- fmt.Errorf("session %d get: %w", i, ack.Err)
						return
					}
					if want, ok := expect[i][key]; ok {
						if !ack.Resp.Found || string(ack.Resp.Value) != want {
							errc <- fmt.Errorf("session %d read own write %q: got %q found=%v, want %q",
								i, key, ack.Resp.Value, ack.Resp.Found, want)
							return
						}
					}
				}
			}
		}(i, sess)
	}
	// Concurrent metrics readers race the workers on purpose.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				store.Metrics()
				store.Crashed()
			}
		}
	}()
	wg.Wait()
	close(stop)
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	results, err := store.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	recovered := mergeRecovered(results)
	for i := range expect {
		for k, v := range expect[i] {
			if string(recovered[k]) != v {
				t.Fatalf("recovered[%q] = %q, want %q (acked write lost)", k, recovered[k], v)
			}
		}
	}
	for _, r := range results {
		if r.Crashed {
			t.Fatalf("shard %d reported crashed on a clean run", r.Shard)
		}
	}
}

// TestShardedDurabilityAck: a mutation's ack must carry a watermark that
// covers it — after the ack returns, the shard reports the publish
// durable without any drain having run.
func TestShardedDurabilityAck(t *testing.T) {
	store, err := NewSharded(ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	done := make(chan Completion, 1)
	shard, err := store.DoAsync(sess, Put, "wm-key", []byte("wm-val"), nil, 0, done)
	if err != nil {
		t.Fatal(err)
	}
	ack := (<-done).Ack
	if ack.Err != nil || ack.Crashed {
		t.Fatalf("put ack: %+v", ack)
	}
	if ack.Durable < 1 {
		t.Fatalf("ack released before the durable watermark covered the publish: %+v", ack)
	}
	m := store.Metrics()[shard]
	if m.Retained != 0 || m.Folded < 1 {
		t.Fatalf("shard %d: %d records folded, %d retained after ack", shard, m.Folded, m.Retained)
	}
	if _, err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedDrainQuiesce is the drain-ordering regression test: requests
// racing BeginDrain must either be refused (ErrDraining) or be committed
// before the final barrier — an acknowledged op can never be missing from
// the verified recovery snapshot, and a refused op can never appear in it.
func TestShardedDrainQuiesce(t *testing.T) {
	store, err := NewSharded(ShardedConfig{Shards: 4, Mailbox: 8, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 6, 40
	type outcome struct {
		key      string
		accepted bool
	}
	outcomes := make(chan outcome, writers*perWriter)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		sess := store.NewSession()
		wg.Add(1)
		go func(w int, sess *ShardedSession) {
			defer wg.Done()
			<-start
			for n := 0; n < perWriter; n++ {
				key := fmt.Sprintf("d%d-%d", w, n)
				ack := store.do(sess, Put, key, []byte("x"))
				switch {
				case ack.Err == ErrDraining:
					outcomes <- outcome{key, false}
				case ack.Err != nil:
					t.Errorf("writer %d: unexpected error: %v", w, ack.Err)
					return
				default:
					outcomes <- outcome{key, true}
				}
			}
		}(w, sess)
	}
	close(start)
	// Begin the drain while writers are mid-flight: some ops land in
	// mailboxes before the close, some are refused.
	store.BeginDrain()
	wg.Wait()
	close(outcomes)

	results, err := store.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	recovered := mergeRecovered(results)
	accepted, refused := 0, 0
	for o := range outcomes {
		_, inState := recovered[o.key]
		if o.accepted {
			accepted++
			if !inState {
				t.Fatalf("key %q acknowledged but missing from the recovery snapshot: op landed after the final barrier", o.key)
			}
		} else {
			refused++
			if inState {
				t.Fatalf("key %q refused with ErrDraining but present in the recovery snapshot", o.key)
			}
		}
	}
	if refused == 0 {
		t.Log("drain refused no ops this run (all landed before BeginDrain); accepted =", accepted)
	}
	// Post-drain requests are always refused.
	sess := store.NewSession()
	if ack := store.do(sess, Put, "late", []byte("x")); ack.Err != ErrDraining {
		t.Fatalf("post-drain put: got %+v, want ErrDraining", ack)
	}
}

// TestShardedStoreCrashAcks: with a crash instant fanned out, a live
// store must deliver the crashing batch's responses flagged crashed, fire
// OnCrash, and still verify every shard's crash image on Close.
func TestShardedStoreCrashAcks(t *testing.T) {
	crashes := make(chan int, 4)
	store, err := NewSharded(ShardedConfig{
		Shards:  2,
		Engine:  Config{CrashAt: 30_000},
		OnCrash: func(shard int) { crashes <- shard },
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	sawCrash := false
	for n := 0; n < 4000; n++ {
		ack := store.do(sess, Put, fmt.Sprintf("c%04d", n), []byte("v"))
		if ack.Crashed || ack.Err == ErrCrashed {
			sawCrash = true
			break
		}
		if ack.Err != nil {
			t.Fatalf("op %d: %v", n, ack.Err)
		}
	}
	if !sawCrash {
		t.Fatal("crash instant never reached under load")
	}
	// The worker delivers the crashed acks before it fires OnCrash, so
	// the callback may still be a few instructions away.
	select {
	case <-crashes:
	case <-time.After(5 * time.Second):
		t.Fatal("OnCrash never fired")
	}
	results, err := store.Close()
	if err != nil {
		t.Fatalf("crash-image verification failed: %v", err)
	}
	if !anyCrashed(results) {
		t.Fatal("no shard reported crashed")
	}
}

// TestCombineFingerprints: combination is order-sensitive (shard identity
// matters) and deterministic.
func TestCombineFingerprints(t *testing.T) {
	fps := func(fps ...string) []ShardResult {
		out := make([]ShardResult, len(fps))
		for i, fp := range fps {
			out[i].Report = &Report{Fingerprint: fp}
		}
		return out
	}
	a := CombineFingerprints(fps("x", "y"))
	if a != CombineFingerprints(fps("x", "y")) {
		t.Fatal("combination not deterministic")
	}
	if a == CombineFingerprints(fps("y", "x")) {
		t.Fatal("combination ignores shard order")
	}
}

func TestNewShardedRejectsBadConfig(t *testing.T) {
	if _, err := NewSharded(ShardedConfig{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := NewSharded(ShardedConfig{Shards: MaxShards + 1}); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	cfg := ShardedConfig{Shards: 2}
	cfg.Engine.Machine = SmallMachine()
	cfg.Engine.Machine.BulkEpochStores = 64
	if _, err := NewSharded(cfg); err == nil {
		t.Fatal("unsafe per-shard machine accepted")
	}
}

// TestDoAsyncStampsPipeline: a span threaded through DoAsync must come
// back stamped at every pipeline stage the store owns, with wall times
// nondecreasing along the conn-side order and sim cycles attached to the
// worker-side stamps. This is the contract the server's stage tracer
// (and the flight recorder) builds on.
func TestDoAsyncStampsPipeline(t *testing.T) {
	store, err := NewSharded(ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()

	var span telemetry.Span
	span.Reset()
	span.Stamp(telemetry.StageConnRead)
	done := make(chan Completion, 1)
	if _, err := store.DoAsync(sess, Put, "span-key", []byte("span-val"), &span, 7, done); err != nil {
		t.Fatal(err)
	}
	c := <-done
	if c.Tag != 7 || c.Ack.Err != nil || c.Ack.Crashed {
		t.Fatalf("put completion: %+v", c)
	}

	for st := telemetry.StageConnRead; st <= telemetry.StageDurable; st++ {
		if span.Wall[st] == 0 {
			t.Fatalf("stage %s not stamped: %+v", st, span)
		}
	}
	if span.Wall[telemetry.StageAckWritten] != 0 {
		t.Fatalf("ack-written is the server's stamp, store must not set it")
	}
	// Conn-side wall clocks are sequenced within one goroutine each, so
	// order holds pairwise where a happens-before edge exists.
	for _, pair := range [][2]telemetry.Stage{
		{telemetry.StageConnRead, telemetry.StageShardRoute},
		{telemetry.StageShardRoute, telemetry.StageEnqueue},
		{telemetry.StageDequeue, telemetry.StageTranslate},
		{telemetry.StageTranslate, telemetry.StageSubmit},
		{telemetry.StageSubmit, telemetry.StageDurable},
	} {
		if span.Wall[pair[0]] > span.Wall[pair[1]] {
			t.Fatalf("wall[%s]=%d > wall[%s]=%d", pair[0], span.Wall[pair[0]], pair[1], span.Wall[pair[1]])
		}
	}
	// Worker-side stamps carry the shard's sim clock.
	for _, st := range []telemetry.Stage{telemetry.StageTranslate, telemetry.StageSubmit, telemetry.StageDurable} {
		if span.Cycle[st] < 0 {
			t.Fatalf("stage %s missing sim cycle", st)
		}
	}
	if span.Cycle[telemetry.StageDurable] < span.Cycle[telemetry.StageSubmit] {
		t.Fatalf("durable cycle %d before submit cycle %d", span.Cycle[telemetry.StageDurable], span.Cycle[telemetry.StageSubmit])
	}

	// do is DoAsync with a nil span: every stamp site must be a no-op.
	if ack := store.do(sess, Get, "span-key", nil); ack.Err != nil || string(ack.Resp.Value) != "span-val" {
		t.Fatalf("nil-span get: %+v", ack)
	}
	if _, err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDoAsyncPipelining drives a window of async requests through one
// shared completion queue and matches acks back by tag — the access
// pattern of a pipelined server connection. Every submitted op must
// complete exactly once, durably, and the final state must reflect all
// of them.
func TestDoAsyncPipelining(t *testing.T) {
	store, err := NewSharded(ShardedConfig{Shards: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()

	const window = 32
	done := make(chan Completion, window)
	for tag := uint64(0); tag < window; tag++ {
		key := fmt.Sprintf("async-%d", tag)
		if _, err := store.DoAsync(sess, Put, key, []byte(key), nil, tag, done); err != nil {
			t.Fatalf("DoAsync(%d): %v", tag, err)
		}
	}

	seen := make(map[uint64]bool)
	for i := 0; i < window; i++ {
		c := <-done
		if seen[c.Tag] {
			t.Fatalf("tag %d completed twice", c.Tag)
		}
		seen[c.Tag] = true
		if c.Ack.Err != nil || c.Ack.Crashed {
			t.Fatalf("tag %d ack: %+v", c.Tag, c.Ack)
		}
		if c.Ack.Durable < 1 {
			t.Fatalf("tag %d released before its durable watermark: %+v", c.Tag, c.Ack)
		}
	}

	// No routing, no completion: a nil session fails synchronously.
	if _, err := store.DoAsync(nil, Get, "x", nil, nil, 99, done); err == nil {
		t.Fatal("DoAsync with nil session did not fail")
	}

	results, err := store.Close()
	if err != nil {
		t.Fatal(err)
	}
	recovered := mergeRecovered(results)
	for tag := uint64(0); tag < window; tag++ {
		key := fmt.Sprintf("async-%d", tag)
		if string(recovered[key]) != key {
			t.Fatalf("recovered[%q] = %q (acked async write lost)", key, recovered[key])
		}
	}

	// After Close the drain refuses new async submissions synchronously.
	if _, err := store.DoAsync(sess, Put, "late", nil, nil, 100, done); err != ErrDraining {
		t.Fatalf("post-drain DoAsync err = %v, want ErrDraining", err)
	}
}

// do routes one request to its key's shard and blocks until the shard
// acks it (for mutations: until the publish is durable, the shard
// crashed, or the store refused the request): DoAsync with a private
// one-slot completion queue.
func (s *ShardedStore) do(sess *ShardedSession, op Op, key string, value []byte) ShardAck {
	done := make(chan Completion, 1)
	if _, err := s.DoAsync(sess, op, key, value, nil, 0, done); err != nil {
		return ShardAck{Err: err}
	}
	return (<-done).Ack
}

// mergeRecovered unions per-shard recovered states. Shards partition the
// keyspace, so the maps are disjoint.
func mergeRecovered(results []ShardResult) map[string][]byte {
	out := make(map[string][]byte)
	for _, r := range results {
		for k, v := range r.Recovered {
			out[k] = v
		}
	}
	return out
}

// BenchmarkShardScaling measures aggregate pmkv throughput as the
// keyspace is partitioned across independent shard machines. Each
// iteration replays the same deterministic scripted workload (so the
// numbers gate cleanly in CI); ops/sec is total logical operations over
// wall time. The win at higher shard counts is algorithmic even on one
// host core: fewer sessions multiplex each simulated machine, so group
// commits serialize fewer same-core epochs and contend on fewer buckets.
func BenchmarkShardScaling(b *testing.B) {
	spec := scriptSpec{Sessions: 8, Rounds: 12, KeySpace: 32, ValueBytes: 64, Seed: 42}
	script := genScript(spec)
	ops := float64(spec.Sessions * spec.Rounds)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var out []ShardResult
			for i := 0; i < b.N; i++ {
				r, err := RunShardedScript(ShardedConfig{Shards: shards}, script)
				if err != nil {
					b.Fatal(err)
				}
				out = r
			}
			b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
			publishes := 0
			for _, r := range out {
				publishes += r.Report.TotalPublishes
			}
			b.ReportMetric(float64(publishes), "publishes")
		})
	}
}
