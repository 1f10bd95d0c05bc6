package obs

import (
	"sync"

	"persistbarriers/internal/hist"
	"persistbarriers/internal/sim"
)

// ServiceStats is a point-in-time snapshot of a Collector.
type ServiceStats struct {
	Cycle sim.Cycle `json:"cycle"`

	Txs             uint64 `json:"txs"`
	EpochsOpened    uint64 `json:"epochs_opened"`
	EpochsPersisted uint64 `json:"epochs_persisted"`

	ConflictsIntra    uint64 `json:"conflicts_intra"`
	ConflictsInter    uint64 `json:"conflicts_inter"`
	ConflictsEviction uint64 `json:"conflicts_eviction"`

	// Persist latency (epoch completion to durability), in cycles, over
	// all samples since the collector was built. The percentiles are
	// LatencyHist's (see hist.Hist.Percentile); the histogram itself rides
	// along so per-shard snapshots merge exactly in AggregateServiceStats
	// and an exposition can report the exact sum.
	LatencySamples int       `json:"latency_samples"`
	LatencyP50     sim.Cycle `json:"latency_p50"`
	LatencyP90     sim.Cycle `json:"latency_p90"`
	LatencyP99     sim.Cycle `json:"latency_p99"`
	LatencyHist    hist.Hist `json:"latency_hist,omitzero"`
}

// setLatency fills the latency summary fields from h.
func (s *ServiceStats) setLatency(h *hist.Hist) {
	s.LatencyHist = *h
	s.LatencySamples = int(h.Total())
	s.LatencyP50 = sim.Cycle(h.Percentile(50))
	s.LatencyP90 = sim.Cycle(h.Percentile(90))
	s.LatencyP99 = sim.Cycle(h.Percentile(99))
}

// Collector is a Sink that folds the event stream into live serving
// metrics: epoch throughput, persist-latency percentiles, and conflict
// counts by kind. Unlike the Sampler it is safe for concurrent use — a
// server's stats endpoint reads Snapshot while the engine emits. Latency
// samples fold into a histogram at emission time, so Snapshot never
// sorts and never drops samples.
type Collector struct {
	mu sync.Mutex

	cycle sim.Cycle

	txs       uint64
	opened    uint64
	persisted uint64

	intra    uint64
	inter    uint64
	eviction uint64

	// completedAt holds completion cycles of epochs awaiting durability,
	// keyed by (core, epoch). Entries are consumed by the persist event.
	completedAt map[[2]int64]sim.Cycle

	// latency folds complete->persist latencies.
	latency hist.Hist
}

// NewCollector builds a collector.
func NewCollector() *Collector {
	return &Collector{
		completedAt: make(map[[2]int64]sim.Cycle),
	}
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Cycle > c.cycle {
		c.cycle = ev.Cycle
	}
	switch ev.Kind {
	case KTxRetired:
		c.txs++
	case KEpochOpen:
		c.opened++
	case KEpochComplete:
		c.completedAt[[2]int64{int64(ev.Core), ev.Epoch}] = ev.Cycle
	case KEpochPersist:
		c.persisted++
		key := [2]int64{int64(ev.Core), ev.Epoch}
		if done, ok := c.completedAt[key]; ok {
			delete(c.completedAt, key)
			c.latency.Observe(uint64(ev.Cycle - done))
		}
	case KConflict:
		switch ev.Label {
		case ConflictIntra:
			c.intra++
		case ConflictInter:
			c.inter++
		case ConflictEviction:
			c.eviction++
		}
	}
}

// Snapshot returns the current metrics.
func (c *Collector) Snapshot() ServiceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := ServiceStats{
		Cycle:             c.cycle,
		Txs:               c.txs,
		EpochsOpened:      c.opened,
		EpochsPersisted:   c.persisted,
		ConflictsIntra:    c.intra,
		ConflictsInter:    c.inter,
		ConflictsEviction: c.eviction,
	}
	s.setLatency(&c.latency)
	return s
}

// AggregateServiceStats folds per-shard snapshots into one store-wide
// view: counters sum, Cycle is the furthest shard clock, and latency
// percentiles are computed over the exact merged histogram (bucket
// counts add), so the pooled percentiles are true percentiles of the
// union of all shards' samples.
func AggregateServiceStats(per []ServiceStats) ServiceStats {
	var agg ServiceStats
	var merged hist.Hist
	for _, s := range per {
		if s.Cycle > agg.Cycle {
			agg.Cycle = s.Cycle
		}
		agg.Txs += s.Txs
		agg.EpochsOpened += s.EpochsOpened
		agg.EpochsPersisted += s.EpochsPersisted
		agg.ConflictsIntra += s.ConflictsIntra
		agg.ConflictsInter += s.ConflictsInter
		agg.ConflictsEviction += s.ConflictsEviction
		merged.Merge(&s.LatencyHist)
	}
	agg.setLatency(&merged)
	return agg
}
