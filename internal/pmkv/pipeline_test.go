// Tests for the shard worker: the gather loop's boundaries, the one exit
// every routed job takes, crash routing on the busy ack path, the
// allocation discipline of the group-commit path, and recovery's
// byte-identity at every worker count.
package pmkv

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/sim"
)

// testWorker builds a shardWorker around a bare mailbox (no engine):
// gather never touches the machine, so the loop boundaries are testable
// in isolation. One pending batch keeps gather from blocking.
func testWorker(cfg ShardedConfig) (*shardWorker, *shard) {
	cfg.fill()
	sh := &shard{id: 0, mail: make(chan shardJob, cfg.Mailbox), open: true}
	w := &shardWorker{s: &ShardedStore{cfg: cfg}, sh: sh, open: true, pending: []pendingBatch{{}}}
	return w, sh
}

func fillMail(sh *shard, n int) {
	done := make(chan Completion, n)
	for i := 0; i < n; i++ {
		sh.mail <- shardJob{done: done, tag: uint64(i)}
	}
}

// TestGatherTakesWhatIsQueued: a gather is bounded by MaxBatch and by
// what is queued, nothing else — a backlog is taken in full batches from
// the first gather on, in mailbox order, and a drained mailbox ends one.
func TestGatherTakesWhatIsQueued(t *testing.T) {
	w, sh := testWorker(ShardedConfig{MaxBatch: 32, Mailbox: 128})
	fillMail(sh, 80)
	next := uint64(0)
	for _, want := range []int{32, 32, 16, 0} {
		batch := w.gather()
		if len(batch) != want {
			t.Fatalf("gather took %d jobs with %d queued behind it, want %d", len(batch), len(sh.mail), want)
		}
		for _, j := range batch {
			if j.tag != next {
				t.Fatalf("job %d gathered where %d was due", j.tag, next)
			}
			next++
		}
		w.jobs.put(batch)
	}
}

// TestGatherMailboxClosesMidGather: the mailbox closing between jobs
// must end the gather with the jobs already taken (they commit) and
// flip the worker closed.
func TestGatherMailboxClosesMidGather(t *testing.T) {
	w, sh := testWorker(ShardedConfig{MaxBatch: 8})
	fillMail(sh, 3)
	close(sh.mail)
	batch := w.gather()
	if len(batch) != 3 {
		t.Fatalf("gather returned %d jobs, want the 3 queued before the close", len(batch))
	}
	if w.open {
		t.Fatal("worker still open after the mailbox closed mid-gather")
	}
	// A closed, empty mailbox yields nothing more (and must not block).
	if b := w.gather(); len(b) != 0 {
		t.Fatalf("gather on a closed empty mailbox returned %d jobs", len(b))
	}
}

// TestShardedConfigFillClamps pins the defaulting rules the flags rely
// on: unset sizes take their defaults, set ones are kept.
func TestShardedConfigFillClamps(t *testing.T) {
	c := ShardedConfig{Shards: 3, Mailbox: 16, MaxBatch: 4}
	c.fill()
	if c.Shards != 3 || c.Mailbox != 16 || c.MaxBatch != 4 {
		t.Fatalf("fill moved set values: %+v", c)
	}
	var d ShardedConfig
	d.fill()
	if d.Shards != 1 || d.Mailbox != 256 || d.MaxBatch != 64 {
		t.Fatalf("defaults: %+v", d)
	}
}

// TestDurableWatermarkReportsCrash: once the machine hits its crash
// instant, the Poll and Gap steps must surface ErrCrashed, Poll while
// still reporting valid watermark numbers — the shard worker's busy ack
// path keys crash handling off this error (it used to be silently
// discarded).
func TestDurableWatermarkReportsCrash(t *testing.T) {
	e, err := New(Config{CrashAt: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	for i := 0; ; i++ {
		if i > 10_000 {
			t.Fatal("crash instant never reached")
		}
		_, err := apply(e, []Request{{Sess: sess, Op: Put, Key: fmt.Sprintf("k%d", i%8), Value: []byte("v")}})
		if err == ErrCrashed {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	d, total, err := e.DurableWatermark()
	if err != ErrCrashed {
		t.Fatalf("DurableWatermark err = %v, want ErrCrashed", err)
	}
	if d < 0 || d > total || total == 0 {
		t.Fatalf("crashed watermark %d/%d implausible", d, total)
	}
	if err := e.gap(0); err != ErrCrashed {
		t.Fatalf("gap err = %v, want ErrCrashed", err)
	}
}

// TestCrashWithBusyMailbox is the regression for the dropped-error bug:
// a shard whose mailbox stays saturated takes the polling ack path, so
// the crash must be noticed there (not just in PumpRetire) and every
// outstanding request must still complete — crashed, erred, or durable —
// with the crash image verifying on Close.
func TestCrashWithBusyMailbox(t *testing.T) {
	crashes := make(chan int, 1)
	store, err := NewSharded(ShardedConfig{
		Shards:   1,
		Mailbox:  16,
		MaxBatch: 4,
		Engine:   Config{CrashAt: 20_000},
		OnCrash:  func(shard int) { crashes <- shard },
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	const inflight = 2000
	done := make(chan Completion, inflight)
	routed := 0
	for i := 0; i < inflight; i++ {
		// Saturate the mailbox so the worker keeps finding queued work
		// and its ack path stays on the watermark poll.
		_, err := store.DoAsync(sess, Put, fmt.Sprintf("busy%04d", i), []byte("v"), nil, uint64(i), done)
		if err == ErrDraining {
			break
		}
		if err != nil {
			t.Fatalf("DoAsync(%d): %v", i, err)
		}
		routed++
	}
	sawCrash := false
	for i := 0; i < routed; i++ {
		c := <-done
		if c.Ack.Crashed || c.Ack.Err == ErrCrashed {
			sawCrash = true
		} else if c.Ack.Err != nil {
			t.Fatalf("tag %d: %v", c.Tag, c.Ack.Err)
		}
	}
	if !sawCrash {
		t.Fatal("crash instant never surfaced in an ack (workload too short?)")
	}
	// The worker delivers the crashed acks before it fires OnCrash, so
	// the callback may still be a few instructions away.
	select {
	case <-crashes:
	case <-time.After(5 * time.Second):
		t.Fatal("OnCrash never fired despite crashed acks")
	}
	if _, err := store.Close(); err != nil {
		t.Fatalf("crash-image verification failed: %v", err)
	}
}

// TestEveryJobCompletesOnce drives a live store down each exit a routed
// job can take — durable, acked early at shutdown, crashed with power
// lost in PumpRetire or between release's polls, refused at SubmitAppend
// after the crash, failed by an engine error at SubmitAppend or in
// release — and holds them all to one rule: every routed job receives
// exactly one Completion, and a session's pending counter stays raised
// for exactly its writes that were not acked clean. Which of two
// neighbouring exits a row takes depends on where the host scheduler
// puts the event, so each fault runs under both kinds of traffic: senders
// that saturate the mailbox (the worker polls the watermark) and senders
// in lockstep with their acks (it idles, and release steps the machine).
func TestEveryJobCompletesOnce(t *testing.T) {
	const senders, jobs = 4, 96
	lazy := SmallMachine()
	lazy.PF = false // closed epochs wait for a conflict or the final drain
	allClean := func(clean, crashed, refused, failed int) bool { return crashed+refused+failed == 0 }
	powerLost := func(clean, crashed, refused, failed int) bool { return crashed > 0 && refused > 0 && failed == 0 }
	engineFailed := func(_, crashed, refused, failed int) bool { return failed > 0 && crashed+refused == 0 }
	closeEngine := func(s *ShardedStore) { s.shards[0].eng.Close() }
	rows := []struct {
		name     string
		engine   Config
		lockstep bool                  // a sender waits for each ack before its next request
		during   func(s *ShardedStore) // runs with sender 0 held a quarter through, the others racing it
		want     func(clean, crashed, refused, failed int) bool
	}{
		{name: "clean drain", want: func(clean, _, _, _ int) bool { return clean == senders*jobs }},
		{name: "power lost early, saturating senders", engine: Config{CrashAt: 2_000}, want: powerLost},
		{name: "power lost later, saturating senders", engine: Config{CrashAt: 9_000}, want: powerLost},
		{name: "power lost early, lockstep senders", engine: Config{CrashAt: 2_000}, lockstep: true, want: powerLost},
		{name: "power lost later, lockstep senders", engine: Config{CrashAt: 9_000}, lockstep: true, want: powerLost},
		{name: "BeginDrain races the senders", during: (*ShardedStore).BeginDrain, want: allClean},
		{name: "BeginDrain with acks gated and the machinery dry", engine: Config{Machine: lazy},
			during: (*ShardedStore).BeginDrain, want: allClean},
		{name: "engine error, saturating senders", during: closeEngine, want: engineFailed},
		{name: "engine error, lockstep senders", lockstep: true, during: closeEngine, want: engineFailed},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			store, err := NewSharded(ShardedConfig{Mailbox: 16, MaxBatch: 4, Engine: row.engine})
			if err != nil {
				t.Fatal(err)
			}
			type sender struct {
				sess   *ShardedSession
				done   chan Completion
				routed map[uint64]Op
				acks   []Completion
			}
			all := make([]*sender, senders)
			mid, resume := make(chan struct{}), make(chan struct{})
			var wg sync.WaitGroup
			for i := range all {
				// Room for every ack twice over: a duplicate must land in
				// the queue, not wedge the worker.
				sd := &sender{sess: store.NewSession(), done: make(chan Completion, 2*jobs), routed: make(map[uint64]Op)}
				all[i] = sd
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < jobs; j++ {
						if i == 0 && j == jobs/4 {
							close(mid)
							<-resume
						}
						op := []Op{Put, Put, Get, Delete}[j%4]
						_, err := store.DoAsync(sd.sess, op, fmt.Sprintf("k%02d", (i*7+j)%24), []byte("v"), nil, uint64(j), sd.done)
						if err == ErrDraining {
							continue
						}
						if err != nil {
							t.Errorf("DoAsync: %v", err)
							return
						}
						sd.routed[uint64(j)] = op
						if row.lockstep {
							sd.acks = append(sd.acks, <-sd.done)
						}
					}
					for len(sd.acks) < len(sd.routed) {
						sd.acks = append(sd.acks, <-sd.done)
					}
				}()
			}
			<-mid
			if row.during != nil {
				row.during(store)
			}
			close(resume)
			wg.Wait()
			// The workers have exited once Close returns, so a second
			// delivery of any job would be sitting in its queue by now. (An
			// engine closed under the store cannot close again.)
			engineErr := store.shards[0].eng.closed
			if _, err := store.Close(); err != nil && !engineErr {
				t.Errorf("Close: %v", err)
			}
			var clean, crashed, refused, failed int
			for i, sd := range all {
				if n := len(sd.done); n > 0 {
					t.Errorf("sender %d: %d completions beyond its %d routed jobs", i, n, len(sd.routed))
				}
				raised := int32(0)
				seen := make(map[uint64]bool)
				for _, c := range sd.acks {
					op, ok := sd.routed[c.Tag]
					if !ok || seen[c.Tag] {
						t.Errorf("sender %d: completion for tag %d, routed %v, seen before %v", i, c.Tag, ok, seen[c.Tag])
					}
					seen[c.Tag] = true
					switch {
					case c.Ack.Err == ErrCrashed:
						refused++
					case c.Ack.Err != nil:
						failed++
					case c.Ack.Crashed:
						crashed++
					default:
						clean++
					}
					if op != Get && (c.Ack.Err != nil || c.Ack.Crashed) {
						raised++
					}
				}
				got := int32(0)
				for slot := range sd.sess.pending[0] {
					got += sd.sess.pending[0][slot].Load()
				}
				if got != raised {
					t.Errorf("sender %d: pending counter ends at %d, its acks leave %d writes unsettled", i, got, raised)
				}
			}
			if !row.want(clean, crashed, refused, failed) {
				t.Errorf("acks: %d clean, %d crashed, %d refused after the crash, %d failed", clean, crashed, refused, failed)
			}
		})
	}

	// A scripted run is the same worker with the script's requests as its
	// clients, and runSteps fails the run unless each completes exactly
	// once — so a crash sweep holds every instant to this test's rule. A
	// crash flush that drops the newest batch in flight must be caught at
	// every instant that crashes a shard (a script's shard always has a
	// batch in flight when the power fails), on one shard and on three.
	t.Run("scripted crash sweep", func(t *testing.T) {
		script := GenScript(testSpec())
		for _, shards := range []int{1, 3} {
			run := func(at sim.Cycle, bug plantedBug) ([]ShardResult, error) {
				engines := make([]*Engine, shards)
				for i := range engines {
					e, err := New(Config{CrashAt: at})
					if err != nil {
						t.Fatal(err)
					}
					e.plant = bug
					engines[i] = e
				}
				return runScript(engines, script)
			}
			clean, err := run(0, plantNone)
			if err != nil {
				t.Fatal(err)
			}
			// Size the sweep by the clock before the closing drain
			// (ShardResult.Cycles): an instant inside the drain cannot
			// crash a shard.
			var closedAt sim.Cycle
			for _, r := range clean {
				closedAt = max(closedAt, r.Cycles)
			}
			crashed, caught := 0, 0
			instants := SweepInstants(closedAt, 40)
			for _, at := range instants {
				out, err := run(at, plantNone)
				if err != nil {
					t.Fatalf("%d shards, crash at %d: %v", shards, at, err)
				}
				if anyCrashed(out) {
					crashed++
				}
				_, err = run(at, plantDropCrashedAcks)
				if err == nil {
					continue
				}
				if !strings.Contains(err.Error(), "completed 0 times") {
					t.Fatalf("%d shards, crash at %d: the dropped acks were caught by an unexpected check: %v", shards, at, err)
				}
				caught++
			}
			if crashed < len(instants)*3/4 || caught != crashed {
				t.Fatalf("%d shards: %d of %d instants crashed, the dropped acks caught at %d", shards, crashed, len(instants), caught)
			}
			t.Logf("%d shards: %d of %d instants crashed, the dropped acks caught at %d", shards, crashed, len(instants), caught)
		}
	})
}

// TestBatchMetricsExposed: a worked store must report a populated
// batch-size histogram, no batch above MaxBatch, through Metrics (sizes
// below 16 are exact in the histogram).
func TestBatchMetricsExposed(t *testing.T) {
	store, err := NewSharded(ShardedConfig{Shards: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	const ops = 48
	done := make(chan Completion, ops)
	for i := 0; i < ops; i++ {
		if _, err := store.DoAsync(sess, Put, fmt.Sprintf("m%03d", i), []byte("v"), nil, uint64(i), done); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ops; i++ {
		if c := <-done; c.Ack.Err != nil || c.Ack.Crashed {
			t.Fatalf("ack: %+v", c.Ack)
		}
	}
	var batches, sized uint64
	for _, m := range store.Metrics() {
		if hi := m.BatchSizes.Percentile(100); hi > 8 {
			t.Fatalf("shard %d: a batch of %d under MaxBatch 8", m.Shard, hi)
		}
		batches += m.Batches
		sized += m.BatchSizes.Total()
		if m.BatchSizes.Sum < m.BatchSizes.Total() {
			t.Fatalf("shard %d: histogram sum %d < count %d (batches smaller than 1?)",
				m.Shard, m.BatchSizes.Sum, m.BatchSizes.Total())
		}
	}
	if batches == 0 || sized != batches {
		t.Fatalf("histogram holds %d observations, batches counter %d", sized, batches)
	}
	if _, err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitAllocs pins the allocation discipline of the engine's
// group-commit path. The translate/feed layer (SubmitAppend: response
// building, session overlays, trace construction, machine feed) must be
// allocation-free in steady state — exactly zero for read-only batches,
// amortized near-zero for mutations (arena chunk and record-slice
// growth are the only remaining sources). The retire pump on top is
// gated twice: a read-only cycle, which touches no epoch and stays under
// half an allocation per op, and a write cycle run through to durable,
// which pays for the epoch records and checkpoint entries it leaves behind
// and nothing per simulated event — the simulated hardware's event
// machinery itself allocates nothing (internal/machine's alloc_test.go
// holds it to zero where the frames live).
func TestGroupCommitAllocs(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []*Session{e.NewSession(), e.NewSession(), e.NewSession(), e.NewSession()}
	const batchLen = 16
	keys := make([]string, batchLen)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc%02d", i)
	}
	val := make([]byte, 96)
	puts := make([]Request, batchLen)
	gets := make([]Request, batchLen)
	for i := 0; i < batchLen; i++ {
		puts[i] = Request{Sess: sessions[i%len(sessions)], Op: Put, Key: keys[i], Value: val}
		gets[i] = Request{Sess: sessions[i%len(sessions)], Op: Get, Key: keys[i]}
	}
	commit := func(reqs []Request, dst []Response) []Response {
		out, err := e.SubmitAppend(dst[:0], reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.PumpRetire(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	dst := make([]Response, 0, batchLen)
	// Warm up: keys exist, arenas, op buffers, and mailroom slices are
	// sized.
	for i := 0; i < 30; i++ {
		dst = commit(puts, dst)
		dst = commit(gets, dst)
	}

	// Submit layer, read-only: exactly zero, every single batch. The
	// pump runs outside the measured window to keep the machine drained.
	// The counts are the process's, so the collector is off while they are
	// taken: a collection inside a measured batch adds its own allocations
	// (see TestGapAllocs).
	var before, after runtime.MemStats
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	for i := 0; i < 30; i++ {
		runtime.ReadMemStats(&before)
		out, err := e.SubmitAppend(dst[:0], gets)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		dst = out
		if err := e.PumpRetire(); err != nil {
			t.Fatal(err)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("read-only SubmitAppend batch %d allocated %d times, want 0", i, n)
		}
	}

	// Submit layer, mutations: amortized near-zero (rare arena-chunk and
	// record-slice growth only).
	var putAllocs uint64
	for i := 0; i < 30; i++ {
		runtime.ReadMemStats(&before)
		out, err := e.SubmitAppend(dst[:0], puts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		dst = out
		if err := e.PumpRetire(); err != nil {
			t.Fatal(err)
		}
		putAllocs += after.Mallocs - before.Mallocs
	}
	if putAllocs > 15 {
		t.Fatalf("mutation SubmitAppend allocated %d times across 30 batches, want amortized <= 0.5/batch", putAllocs)
	}

	// Full commit cycle ceilings. Read-only first: a per-request leak in
	// the commit path would add >= batchLen per run and trip it. The put
	// batches above are drained first, so their still-persisting epochs
	// are not charged to the read-only cycles measured here.
	if _, err := e.WaitDurable(e.RecordCount()); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		out, err := e.SubmitAppend(dst[:0], gets)
		if err != nil {
			t.Fatal(err)
		}
		dst = out
		if err := e.PumpRetire(); err != nil {
			t.Fatal(err)
		}
	}); avg > 8 {
		t.Fatalf("read-only commit cycle allocates %.2f times per %d-op batch, ceiling 8", avg, batchLen)
	}
	// The write cycle, through to durable: what is left is owed to what the
	// machine retains, not to its events — an epoch's Writes map and its
	// history Summary (internal/epoch's records are a reused ring), and a
	// checkpoint entry plus a cloned value per folded record. It measures
	// 2.88 per Put now that a window's entries share one epoch per core
	// (5.94 while every Put opened two epochs, 9.69 while every epoch
	// allocated its own record and Pending map, 110.69 while every protocol
	// hop allocated a closure and every dbg call boxed its arguments); the
	// ceiling is that plus a sixth.
	const putCeiling = 3.36
	avg := testing.AllocsPerRun(50, func() {
		dst = commit(puts, dst)
		if _, err := e.WaitDurable(e.RecordCount()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("write commit cycle: %.2f allocations per Put", avg/batchLen)
	if avg > putCeiling*batchLen {
		t.Fatalf("write commit cycle allocates %.2f times per Put (%.0f per %d-Put batch), ceiling %.2f per Put",
			avg/batchLen, avg, batchLen, putCeiling)
	}
	if _, err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitAmortizesBarriers: a larger batch must persist fewer
// epochs for the same work. The script generator draws ops in one flat
// sequence, so Sessions x Rounds = 4x64, 16x16 and 64x4 are the same 256
// ops cut into rounds of 1, 4 and 16 ops per core (SmallMachine has 4
// cores); only the merged cuts put several writes on one core in one
// commit window, whose entries share the core's one window epoch. Each cut
// is then crash-swept with every checker on, because no 4-session sweep
// ever reaches a merged epoch.
func TestGroupCommitAmortizesBarriers(t *testing.T) {
	instants := 200
	if testing.Short() {
		instants = 12
	}
	var epochs []int
	for _, sessions := range []int{4, 16, 64} {
		spec := amortizeSpec(sessions)
		clean, err := runSingle(Config{Check: true}, spec)
		if err != nil {
			t.Fatalf("%d sessions, clean run: %v", sessions, err)
		}
		if clean.Report.DurablePublishes != clean.Report.TotalPublishes {
			t.Fatalf("%d sessions: %d of %d publishes durable after a clean drain",
				sessions, clean.Report.DurablePublishes, clean.Report.TotalPublishes)
		}
		epochs = append(epochs, clean.Report.Epochs)
		crashed := 0
		for _, at := range SweepInstants(clean.Stats.Cycle, instants) {
			out, err := runSingle(Config{CrashAt: at, Check: true}, spec)
			if err != nil {
				t.Fatalf("%d sessions, crash at %d: %v", sessions, at, err)
			}
			if out.Crashed {
				crashed++
			}
		}
		if crashed < instants/2 {
			t.Fatalf("%d sessions: only %d/%d instants crashed mid-run", sessions, crashed, instants)
		}
	}
	t.Logf("epochs persisted at 1/4/16 ops per core per commit: %v", epochs)
	if !(epochs[0] > epochs[1] && epochs[1] > epochs[2]) {
		t.Fatalf("epochs %v do not strictly decrease as the batch grows", epochs)
	}
	if 10*epochs[2] > 7*epochs[0] {
		t.Fatalf("16 ops per core persisted %d epochs, want <= 0.70 x the %d of 1 op per core", epochs[2], epochs[0])
	}
}

// amortizeSpec is TestGroupCommitAmortizesBarriers' script at a session
// count: 256 ops over 24 keys, so a round puts sessions/4 ops on each core.
func amortizeSpec(sessions int) ScriptSpec {
	return ScriptSpec{Sessions: sessions, Rounds: 256 / sessions, KeySpace: 24, ValueBytes: 192, Seed: 7}
}

// TestPlantedReadsAfterBarrier shows why a read that observes another
// core's unpersisted entry goes before its core's window barrier: fed after
// it, as plantReadsAfterBarrier feeds every read, its entry load no longer
// orders the window's own entries after the writer's, and dlcheck finds a
// crash image in which a write that happens-after the read survived the
// entry it read. Over TestGroupCommitAmortizesBarriers' 4-session crash
// sweep dlcheck must reject at least one image with the plant and none
// without it. What Verify and the oracle reject is logged only: for the
// oracle a pipelined session's read and a later write of its own batch are
// concurrent, so the lost order is not a client-visible violation to it.
func TestPlantedReadsAfterBarrier(t *testing.T) {
	spec := amortizeSpec(4)
	clean, err := runSingle(Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	var images []image
	for _, at := range SweepInstants(clean.Stats.Cycle, 200) {
		images = append(images, image{spec: spec, at: at}, image{spec: spec, bug: plantReadsAfterBarrier, at: at})
	}
	judgeImages(images)
	var verify, dl, oracle int
	var first *image
	for i := range images {
		im := &images[i]
		if im.bug == plantNone {
			if im.err != nil {
				t.Errorf("crash at %d, nothing planted: %v", im.at, im.err)
			}
			continue
		}
		if im.err != nil && !strings.Contains(im.err.Error(), "durable linearizability") {
			verify++
		}
		if im.dlBad {
			dl++
			if first == nil {
				first = im
			}
		}
		if im.oerr != nil {
			oracle++
		}
	}
	n := len(images) / 2
	t.Logf("reads-after-barrier plant over %d images: Verify rejects %d, dlcheck %d, the oracle %d", n, verify, dl, oracle)
	if first == nil {
		t.Fatalf("reads-after-barrier plant: dlcheck rejects none of %d images", n)
	}
	t.Logf("first dlcheck rejection, crash at %d: %v", first.at, first.err)
}

// TestParallelReplayByteIdentical: recovery must produce the
// byte-identical fingerprint on every replay of the same run, on clean
// drains and across a sweep of crash images.
func TestParallelReplayByteIdentical(t *testing.T) {
	spec := testSpec()
	clean, err := runSingle(Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range append([]sim.Cycle{0}, SweepInstants(clean.Stats.Cycle, 6)...) {
		a, err := runSingle(Config{CrashAt: at}, spec)
		if err != nil {
			t.Fatalf("at %d: %v", at, err)
		}
		b, err := runSingle(Config{CrashAt: at}, spec)
		if err != nil {
			t.Fatalf("replay at %d: %v", at, err)
		}
		if a.Report.Fingerprint != b.Report.Fingerprint {
			t.Fatalf("crash at %d: fingerprint %s != replay's %s", at, b.Report.Fingerprint, a.Report.Fingerprint)
		}
	}
}

// recoveryFixture builds an engine holding n mutation records and its
// clean-drain machine result — the recovery workload.
func recoveryFixture(tb testing.TB, n int) (*Engine, *machine.Result) {
	tb.Helper()
	e, err := New(Config{Buckets: 256})
	if err != nil {
		tb.Fatal(err)
	}
	sessions := make([]*Session, 4)
	for i := range sessions {
		sessions[i] = e.NewSession()
	}
	val := make([]byte, 64)
	const batchLen = 32
	batch := make([]Request, 0, batchLen)
	for i := 0; i < n; i++ {
		batch = append(batch, Request{
			Sess:  sessions[i%len(sessions)],
			Op:    Put,
			Key:   fmt.Sprintf("r%06d", i%(n/2+1)),
			Value: val,
		})
		if len(batch) == batchLen || i == n-1 {
			if _, err := apply(e, batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	res, err := e.Close()
	if err != nil {
		tb.Fatal(err)
	}
	return e, res
}

// BenchmarkRecovery measures RecoveredState against how many mutation
// records the run issued. The fixture folds as it goes, so what is timed
// is checkpoint plus tail: the cost follows the key count, not the
// history length.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		e, res := recoveryFixture(b, n)
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.RecoveredState(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
