package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"persistbarriers/internal/hist"
	"persistbarriers/internal/sim"
)

func TestCollectorLatencyAndCounts(t *testing.T) {
	c := NewCollector()
	p := NewProbe(c)
	// Three epochs: complete at t, persist at t+lat. Percentiles are
	// bucket upper bounds of the nearest-rank sample: 20 -> 21 (a bucket
	// two wide), 300 -> 319 (32 wide).
	lats := []sim.Cycle{10, 20, 300}
	for i, lat := range lats {
		t0 := sim.Cycle(100 * (i + 1))
		p.EpochOpen(t0, 0, uint64(i))
		p.EpochComplete(t0, 0, uint64(i), "barrier", 4)
		p.EpochPersist(t0+lat, 0, uint64(i), "natural")
	}
	p.Conflict(700, ConflictInter, 1, 0, 2, 0x40, ResolveIDT)
	p.Conflict(710, ConflictIntra, 0, 0, 2, 0x40, ResolveOnline)
	p.TxRetired(720, 0)

	s := c.Snapshot()
	if s.EpochsOpened != 3 || s.EpochsPersisted != 3 {
		t.Fatalf("epochs: %+v", s)
	}
	if s.ConflictsInter != 1 || s.ConflictsIntra != 1 || s.ConflictsEviction != 0 {
		t.Fatalf("conflicts: %+v", s)
	}
	if s.Txs != 1 {
		t.Fatalf("txs: %+v", s)
	}
	if s.LatencySamples != 3 {
		t.Fatalf("latency samples: %+v", s)
	}
	if s.LatencyP50 != 21 {
		t.Fatalf("p50 = %d, want 21 (bucket of sample 20)", s.LatencyP50)
	}
	if s.LatencyP99 != 319 {
		t.Fatalf("p99 = %d, want 319 (bucket of sample 300)", s.LatencyP99)
	}
	if s.Cycle != 720 {
		t.Fatalf("cycle = %d, want 720", s.Cycle)
	}
	var want hist.Hist
	for _, lat := range lats {
		want.Observe(uint64(lat))
	}
	if s.LatencyHist != want {
		t.Fatalf("snapshot histogram is not the three samples: sum %d", s.LatencyHist.Sum)
	}
}

// TestCollectorJSONFieldsStable pins the snapshot's wire names: live
// clients parse the stats line, so a rename is a breaking change.
func TestCollectorJSONFieldsStable(t *testing.T) {
	c := NewCollector()
	p := NewProbe(c)
	p.EpochComplete(10, 0, 1, "barrier", 1)
	p.EpochPersist(22, 0, 1, "natural")
	raw, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"cycle"`, `"txs"`, `"epochs_opened"`, `"epochs_persisted"`,
		`"conflicts_intra"`, `"conflicts_inter"`, `"conflicts_eviction"`,
		`"latency_samples"`, `"latency_p50"`, `"latency_p90"`, `"latency_p99"`,
		`"latency_hist"`,
	} {
		if !strings.Contains(string(raw), field) {
			t.Fatalf("snapshot JSON missing %s: %s", field, raw)
		}
	}
}

// TestCollectorNoSampleLoss is the wraparound test: the histogram must
// keep every sample's weight however many arrive, with percentiles
// computed over all of them.
func TestCollectorNoSampleLoss(t *testing.T) {
	c := NewCollector()
	p := NewProbe(c)
	// 10000 samples of latency 5, then 100 of latency 4000. A bounded
	// sample window would see only the tail; the histogram keeps the
	// full mix.
	for i := 0; i < 10000; i++ {
		p.EpochComplete(sim.Cycle(i*10), 0, uint64(i), "barrier", 1)
		p.EpochPersist(sim.Cycle(i*10+5), 0, uint64(i), "natural")
	}
	for i := 10000; i < 10100; i++ {
		p.EpochComplete(sim.Cycle(i*10), 0, uint64(i), "barrier", 1)
		p.EpochPersist(sim.Cycle(i*10+4000), 0, uint64(i), "natural")
	}
	s := c.Snapshot()
	if s.LatencySamples != 10100 {
		t.Fatalf("samples = %d, want 10100 (histogram must not drop)", s.LatencySamples)
	}
	if s.LatencyP50 != 5 {
		t.Fatalf("p50 = %d, want 5 (the dominant 5-cycle mass)", s.LatencyP50)
	}
	if s.LatencyP99 != 5 {
		t.Fatalf("p99 = %d: the 1%% tail must not capture p99 of 10100 samples", s.LatencyP99)
	}
	if s.EpochsPersisted != 10100 {
		t.Fatalf("persisted count: %d", s.EpochsPersisted)
	}
}

func TestCollectorPersistWithoutComplete(t *testing.T) {
	c := NewCollector()
	p := NewProbe(c)
	// A persist with no recorded completion (e.g. the sink attached
	// mid-run) must count but produce no latency sample.
	p.EpochPersist(50, 2, 7, "natural")
	s := c.Snapshot()
	if s.EpochsPersisted != 1 || s.LatencySamples != 0 {
		t.Fatalf("%+v", s)
	}
	if s.LatencyHist != (hist.Hist{}) {
		t.Fatalf("empty collector carries a histogram: sum %d", s.LatencyHist.Sum)
	}
}

func TestCollectorConcurrentSnapshot(t *testing.T) {
	c := NewCollector()
	p := NewProbe(c)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			c.Snapshot()
		}
	}()
	for i := 0; i < 1000; i++ {
		p.EpochComplete(sim.Cycle(i), 0, uint64(i), "barrier", 1)
		p.EpochPersist(sim.Cycle(i+1), 0, uint64(i), "natural")
	}
	wg.Wait()
	if got := c.Snapshot().EpochsPersisted; got != 1000 {
		t.Fatalf("persisted = %d", got)
	}
}

// TestAggregateServiceStats: pooled percentiles over the merged
// histogram are exact — a shard with many fast samples pulls the pooled
// p50 down to its bucket, which the old elementwise-max rule could not
// represent.
func TestAggregateServiceStats(t *testing.T) {
	build := func(samples []uint64) ServiceStats {
		var s ServiceStats
		for _, v := range samples {
			s.LatencyHist.Observe(v)
		}
		s.setLatency(&s.LatencyHist)
		return s
	}
	fast := make([]uint64, 90)
	for i := range fast {
		fast[i] = 10 // exact
	}
	slow := make([]uint64, 10)
	for i := range slow {
		slow[i] = 1000 // bucket [960, 1023]
	}
	a := build(fast)
	a.Cycle, a.Txs, a.EpochsOpened, a.EpochsPersisted, a.ConflictsIntra = 100, 5, 4, 3, 1
	b := build(slow)
	b.Cycle, b.Txs, b.EpochsOpened, b.EpochsPersisted, b.ConflictsInter = 250, 7, 6, 5, 2

	agg := AggregateServiceStats([]ServiceStats{a, b})
	if agg.Cycle != 250 {
		t.Fatalf("Cycle = %d, want max 250", agg.Cycle)
	}
	if agg.Txs != 12 || agg.EpochsOpened != 10 || agg.EpochsPersisted != 8 {
		t.Fatalf("counters not summed: %+v", agg)
	}
	if agg.ConflictsIntra != 1 || agg.ConflictsInter != 2 {
		t.Fatalf("conflicts not summed: %+v", agg)
	}
	if agg.LatencySamples != 100 {
		t.Fatalf("LatencySamples = %d, want 100", agg.LatencySamples)
	}
	// Exact pooled percentiles: 90% of samples are fast, so pooled p50
	// and p90 sit in the fast bucket; only p99 reaches the slow one.
	// Elementwise-max would have reported p50 = 1023.
	if agg.LatencyP50 != 10 || agg.LatencyP90 != 10 {
		t.Fatalf("pooled p50/p90 = %d/%d, want 10/10", agg.LatencyP50, agg.LatencyP90)
	}
	if agg.LatencyP99 != 1023 {
		t.Fatalf("pooled p99 = %d, want 1023", agg.LatencyP99)
	}
	if agg.LatencyHist.Total() != 100 || agg.LatencyHist.Sum != 90*10+10*1000 {
		t.Fatal("aggregate lost the merged histogram")
	}
}

func TestAggregateServiceStatsDegenerate(t *testing.T) {
	if got := AggregateServiceStats(nil); got != (ServiceStats{}) {
		t.Fatalf("empty aggregate = %+v, want zero", got)
	}
	if got := AggregateServiceStats([]ServiceStats{}); got.LatencyP50 != 0 {
		t.Fatalf("zero-shard aggregate = %+v, want zero", got)
	}
	// All-empty shards: no samples anywhere.
	got := AggregateServiceStats([]ServiceStats{{Cycle: 5}, {Cycle: 9}})
	if got.Cycle != 9 || got.LatencySamples != 0 || got.LatencyP99 != 0 {
		t.Fatalf("all-empty aggregate = %+v", got)
	}
}
