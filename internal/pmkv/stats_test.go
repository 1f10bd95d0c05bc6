// Tests for the read-only stats path: Engine.Stats against an independent
// count of the machine's event stream, the promise that a scrape moves
// nothing, and the mailbox-depth gauge under concurrent submitters.
package pmkv

import (
	"fmt"
	"sync"
	"testing"

	"persistbarriers/internal/hist"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/sim"
)

// eventOracle recounts the machine's counters from its event stream — the
// fold obs.Collector used to run beside every serving shard. It is kept
// here as the reference: the counters Stats reads are incremented next to
// the Probe calls this sink sees, and the test below holds the two equal.
type eventOracle struct {
	txs, opened, persisted, splits  uint64
	intra, inter, eviction, idtFull uint64
	flushes, persistAcks            uint64
	// nvramAdmits counts controller admissions, nvramWait sums their
	// queuing delay.
	nvramAdmits, nvramWait uint64
	// completedAt holds completion cycles of epochs awaiting durability,
	// keyed by (core, epoch); the persist event consumes its entry.
	completedAt map[[2]int64]sim.Cycle
	latency     hist.Hist
}

func (o *eventOracle) Emit(ev obs.Event) {
	key := [2]int64{int64(ev.Core), ev.Epoch}
	switch ev.Kind {
	case obs.KTxRetired:
		o.txs++
	case obs.KEpochOpen:
		o.opened++
	case obs.KEpochSplit:
		o.splits++
	case obs.KEpochComplete:
		o.completedAt[key] = ev.Cycle
	case obs.KEpochPersist:
		o.persisted++
		o.latency.Observe(uint64(ev.Cycle - o.completedAt[key]))
		delete(o.completedAt, key)
	case obs.KIDTFallback:
		o.idtFull++
	case obs.KEpochFlushStart:
		o.flushes++
	case obs.KPersistAck:
		o.persistAcks++
	case obs.KNVRAMQueue:
		o.nvramAdmits++
		o.nvramWait += ev.Value
	case obs.KConflict:
		switch ev.Label {
		case obs.ConflictIntra:
			o.intra++
		case obs.ConflictInter:
			o.inter++
		case obs.ConflictEviction:
			o.eviction++
		}
	}
}

// TestStatsMatchEventOracle runs fpdump's long script, clean and at 50
// crash instants, with the oracle attached to the engine's machine: every
// count Stats reports that the event stream also carries, and the persist
// latency histogram bucket for bucket and in its sum, must equal the
// oracle's. This is what makes the machine's counters a replacement for
// the event-folding collector rather than a second opinion.
func TestStatsMatchEventOracle(t *testing.T) {
	script := GenScript(longSpec())
	run := func(at sim.Cycle) ShardResult {
		t.Helper()
		oracle := &eventOracle{completedAt: make(map[[2]int64]sim.Cycle)}
		cfg := Config{CrashAt: at, Machine: SmallMachine()}
		cfg.Machine.Probe = obs.NewProbe(oracle)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results, err := runScript([]*Engine{e}, script)
		if err != nil {
			t.Fatalf("crash at %d: %v", at, err)
		}
		out := results[0]
		st := out.Stats
		got := [...]uint64{st.Transactions, st.Epochs.Opened, st.Epochs.Persisted, st.Epochs.Splits,
			st.Conflicts.Intra, st.Conflicts.Inter, st.Conflicts.Eviction, st.Conflicts.IDTFallbacks,
			st.Epochs.Flushes, st.PersistedLines, st.MC.Reads + st.MC.Writes + st.MC.LogWrites, uint64(st.MC.StallCycles)}
		want := [...]uint64{oracle.txs, oracle.opened, oracle.persisted, oracle.splits,
			oracle.intra, oracle.inter, oracle.eviction, oracle.idtFull,
			oracle.flushes, oracle.persistAcks, oracle.nvramAdmits, oracle.nvramWait}
		if got != want {
			t.Errorf("crash at %d: txs, epochs opened/persisted, splits, conflicts intra/inter/eviction, IDT fallbacks, flushes, persisted lines, NVRAM admissions/wait cycles\n got %v\nwant %v", at, got, want)
		}
		if st.PersistLatency != oracle.latency {
			t.Errorf("crash at %d: latency histogram differs from the oracle's: %d samples sum %d, want %d sum %d",
				at, st.PersistLatency.Total(), st.PersistLatency.Sum, oracle.latency.Total(), oracle.latency.Sum)
		}
		if st.Cycle != e.Now() {
			t.Errorf("crash at %d: Stats says cycle %d, the run %d", at, st.Cycle, e.Now())
		}
		return out
	}
	clean := run(0)
	if clean.Crashed {
		t.Fatal("clean run crashed")
	}
	// This script's sweeps exercise IDT only while its cores still meet on
	// shared lines at the default table size: a roomier table must not
	// leave inter-thread conflicts, dependence edges or splits at zero.
	if st := clean.Stats; st.Conflicts.Inter == 0 || st.Epochs.Deps == 0 || st.Epochs.Splits == 0 {
		t.Errorf("clean run at %d buckets: %d inter conflicts, %d IDT deps, %d splits; want all above 0",
			DefaultBuckets, st.Conflicts.Inter, st.Epochs.Deps, st.Epochs.Splits)
	}
	crashed := 0
	for _, at := range SweepInstants(clean.Stats.Cycle, 50) {
		if run(at).Crashed {
			crashed++
		}
	}
	if crashed < 40 {
		t.Fatalf("only %d of 50 instants crashed mid-run", crashed)
	}
}

// TestStatsLeavesTheWatermark: Stats is what a metrics scrape calls from
// the HTTP goroutine, so it must only read. Three commit windows are
// submitted and pumped without anyone asking for the watermark; pumping
// the later ones has let the first one's epochs persist, so there is
// durability nobody has folded yet. Reading Stats — twice — must leave it
// unfolded; the driver's DurableWatermark then folds it. The parent's
// Metrics() called DurableWatermark and fails the first half.
func TestStatsLeavesTheWatermark(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, 4)
	for i := range sessions {
		sessions[i] = e.NewSession()
	}
	const windows = 3
	for w := 0; w < windows; w++ {
		var batch []Request
		for i, s := range sessions {
			batch = append(batch, Request{Sess: s, Op: Put, Key: fmt.Sprintf("k%d-%d", w, i), Value: []byte("v")})
		}
		if _, err := e.SubmitAppend(nil, batch); err != nil {
			t.Fatal(err)
		}
		if err := e.PumpRetire(); err != nil {
			t.Fatal(err)
		}
	}
	total := windows * len(sessions)
	for i := 0; i < 2; i++ {
		st := e.Stats()
		if st.Retained != total || st.Folded != 0 || st.EpochsTrimmed != 0 {
			t.Fatalf("read %d: Stats reports %+v, want all %d records retained and nothing folded or trimmed", i, st.Retention, total)
		}
		if st.Epochs.Persisted == 0 || st.Cycle != e.Now() {
			t.Fatalf("read %d: %d epochs persisted at cycle %d (clock %d): nothing for a watermark to find", i, st.Epochs.Persisted, st.Cycle, e.Now())
		}
	}
	d, n, err := e.DurableWatermark()
	if err != nil || d == 0 || n != total {
		t.Fatalf("DurableWatermark = %d of %d, %v; want some durable prefix", d, n, err)
	}
	if st := e.Stats(); st.Folded != d || st.Retained != total-d || st.EpochsTrimmed == 0 {
		t.Fatalf("after the watermark moved to %d: %+v", d, st.Retention)
	}
}

// TestQueueDepthInBounds hammers DoAsync from several goroutines while
// Metrics is polled: the depth gauge is the mailbox's own length, so it
// can never read negative (the enq/deq counter pair it replaces did, when
// the worker dequeued a job before its submitter had counted it) or above
// the mailbox capacity. Run under -race this is also the proof that a
// scrape and the data path share the engine safely.
func TestQueueDepthInBounds(t *testing.T) {
	const mailbox, submitters, perSubmitter = 8, 4, 400
	store, err := NewSharded(ShardedConfig{Shards: 2, Mailbox: mailbox})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		for {
			for _, m := range store.Metrics() {
				if m.QueueDepth < 0 || m.QueueDepth > m.MailboxCap || m.MailboxCap != mailbox {
					polled <- fmt.Errorf("shard %d: queue depth %d outside [0, %d]", m.Shard, m.QueueDepth, m.MailboxCap)
					return
				}
			}
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := store.NewSession()
			done := make(chan Completion, perSubmitter)
			for i := 0; i < perSubmitter; i++ {
				if _, err := store.DoAsync(sess, Put, fmt.Sprintf("q%d-%d", g, i%16), []byte("v"), nil, uint64(i), done); err != nil {
					t.Errorf("DoAsync: %v", err)
					return
				}
			}
			for i := 0; i < perSubmitter; i++ {
				if c := <-done; c.Ack.Err != nil || c.Ack.Crashed {
					t.Errorf("ack: %+v", c.Ack)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	if _, err := store.Close(); err != nil {
		t.Fatal(err)
	}
}
