// The admin surface: AdminHandler serves live operational telemetry out
// of band of the data protocol (pmkvd -admin ADDR puts it on a second
// listener):
//
//	/metrics       Prometheus 0.0.4 text exposition — per-shard pipeline
//	               stage histograms (seconds), persist-latency histograms
//	               (simulated cycles), shard/engine counters, how much
//	               audit state each engine holds and has released, and
//	               the process's resident and heap memory.
//	/statz         JSON superset of the wire "stats" op: aggregate +
//	               per-shard ServiceStats plus the live per-stage
//	               breakdown (pooled and per shard).
//	/debug/pprof/  the standard Go profiling handlers.
//
// The scrape path takes no lock the data path contends on: stage
// histograms are atomic counters folded per-shard, and collector
// snapshots take the same short mutex the wire stats op already does.

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"

	"persistbarriers/internal/obs"
	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/telemetry"
)

// Statz is the stats snapshot: the /statz payload and the wire "stats"
// reply. Stats and Shards[].Service are the simulated-cycle domain (one
// obs.Collector per shard), Stages the wall-clock one (the tracer).
type Statz struct {
	OK      bool             `json:"ok"`
	Stats   obs.ServiceStats `json:"stats"`
	Shards  []ShardStatz     `json:"shards"`
	Process ProcessStats     `json:"process"`

	// Stages pools every shard's stage-segment histograms (exact merge);
	// ShardStages is the same breakdown per shard.
	Stages      []telemetry.StageStats   `json:"stages,omitempty"`
	ShardStages [][]telemetry.StageStats `json:"shard_stages,omitempty"`
}

// ShardStatz is one shard's commit-pipeline counters plus its engine's
// service metrics.
type ShardStatz struct {
	pmkv.ShardMetrics
	Service obs.ServiceStats `json:"service"`
}

// ProcessStats is the memory the whole server holds, as the kernel and
// the Go runtime see it.
type ProcessStats struct {
	ResidentBytes  uint64 `json:"resident_memory_bytes"` // 0 where /proc is absent
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
}

func readProcessStats() ProcessStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps := ProcessStats{HeapInuseBytes: ms.HeapInuse}
	// statm's second field is the resident set in pages.
	if statm, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(statm)); len(f) > 1 {
			if pages, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				ps.ResidentBytes = pages * uint64(os.Getpagesize())
			}
		}
	}
	return ps
}

// Statz assembles the stats snapshot.
func (s *Server) Statz() Statz {
	metrics := s.store.Metrics()
	reply := Statz{OK: true, Shards: make([]ShardStatz, len(metrics)), Process: readProcessStats()}
	per := make([]obs.ServiceStats, len(metrics))
	for i, m := range metrics {
		per[i] = s.collectors[i].Snapshot()
		reply.Shards[i] = ShardStatz{ShardMetrics: m, Service: per[i]}
	}
	reply.Stats = obs.AggregateServiceStats(per)
	if s.tracer.Enabled() {
		reply.Stages = s.tracer.StageSummary()
		reply.ShardStages = make([][]telemetry.StageStats, s.tracer.Shards())
		for i := range reply.ShardStages {
			reply.ShardStages[i] = s.tracer.ShardStageSummary(i)
		}
	}
	return reply
}

// AdminHandler serves /metrics, /statz and /debug/pprof/.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(s.appendMetrics(nil))
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(s.Statz())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// appendMetrics composes the full exposition: stage histograms from the
// tracer, persist-latency cycle histograms and engine counters from the
// per-shard collectors, and pipeline gauges from the store.
func (s *Server) appendMetrics(dst []byte) []byte {
	dst = s.tracer.AppendStageMetrics(dst)

	metrics := s.store.Metrics()
	per := make([]obs.ServiceStats, len(metrics))
	for i := range metrics {
		per[i] = s.collectors[i].Snapshot()
	}

	dst = telemetry.AppendMetricHeader(dst, "pmkv_persist_latency_cycles", "histogram",
		"Epoch completion-to-durability latency in simulated cycles, per shard.")
	for i, st := range per {
		if st.LatencySamples > 0 {
			dst = telemetry.AppendHistogram(dst, "pmkv_persist_latency_cycles",
				shardLabel(i), st.LatencyHist, 1)
		}
	}

	counters := []struct {
		name, help string
		value      func(obs.ServiceStats) uint64
	}{
		{"pmkv_txs_total", "Transactions retired, per shard.",
			func(st obs.ServiceStats) uint64 { return st.Txs }},
		{"pmkv_epochs_opened_total", "Epochs opened, per shard.",
			func(st obs.ServiceStats) uint64 { return st.EpochsOpened }},
		{"pmkv_epochs_persisted_total", "Epochs made durable, per shard.",
			func(st obs.ServiceStats) uint64 { return st.EpochsPersisted }},
	}
	for _, c := range counters {
		dst = telemetry.AppendMetricHeader(dst, c.name, "counter", c.help)
		for i, st := range per {
			dst = telemetry.AppendUintSample(dst, c.name, shardLabel(i), c.value(st))
		}
	}

	dst = telemetry.AppendMetricHeader(dst, "pmkv_conflicts_total", "counter",
		"Epoch conflicts by kind, per shard.")
	for i, st := range per {
		sl := strconv.Itoa(i)
		dst = telemetry.AppendUintSample(dst, "pmkv_conflicts_total",
			fmt.Sprintf("shard=%q,kind=\"intra\"", sl), st.ConflictsIntra)
		dst = telemetry.AppendUintSample(dst, "pmkv_conflicts_total",
			fmt.Sprintf("shard=%q,kind=\"inter\"", sl), st.ConflictsInter)
		dst = telemetry.AppendUintSample(dst, "pmkv_conflicts_total",
			fmt.Sprintf("shard=%q,kind=\"eviction\"", sl), st.ConflictsEviction)
	}

	gauges := []struct {
		name, help string
		value      func(pmkv.ShardMetrics) float64
	}{
		{"pmkv_shard_cycle", "Shard simulated clock.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.Cycle) }},
		{"pmkv_shard_queue_depth", "Requests waiting in the shard mailbox.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.QueueDepth) }},
		{"pmkv_shard_mailbox_capacity", "Shard mailbox capacity.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.MailboxCap) }},
		{"pmkv_shard_publishes_durable", "Durable-prefix watermark (publishes covered).",
			func(m pmkv.ShardMetrics) float64 { return float64(m.Durable) }},
		{"pmkv_shard_publishes_total", "Publishes issued.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.Total) }},
		{"pmkv_shard_batches_total", "Group commits retired.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.Batches) }},
		{"pmkv_shard_avg_batch", "Mean requests per group commit.",
			func(m pmkv.ShardMetrics) float64 { return m.AvgBatch }},
		{"pmkv_shard_batch_limit", "Live adaptive batch-size limit.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.BatchLimit) }},
		{"pmkv_read_fast_hits_total", "GETs served from the committed-state index, bypassing the mailbox.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.FastHits) }},
		{"pmkv_read_fallback_total", "GETs that fell back to the mailbox (pending writes, drain, or crash).",
			func(m pmkv.ShardMetrics) float64 { return float64(m.FastFallbacks) }},
		{"pmkv_records_retained", "Mutation records still held: submitted, not yet durable.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.Retained) }},
		{"pmkv_records_folded_total", "Mutation records verified, folded into the checkpoint (which fast GETs read) and released.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.Folded) }},
		{"pmkv_checkpoint_keys", "Keys in the committed-state checkpoint, tombstones included.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.CheckpointKeys) }},
		{"pmkv_epochs_trimmed_total", "Persisted epochs dropped from the machine's retained history.",
			func(m pmkv.ShardMetrics) float64 { return float64(m.EpochsTrimmed) }},
	}
	counterNames := map[string]bool{
		"pmkv_shard_batches_total":   true,
		"pmkv_shard_publishes_total": true,
		"pmkv_read_fast_hits_total":  true,
		"pmkv_read_fallback_total":   true,
		"pmkv_records_folded_total":  true,
		"pmkv_epochs_trimmed_total":  true,
	}
	for _, g := range gauges {
		typ := "gauge"
		if counterNames[g.name] {
			typ = "counter"
		}
		dst = telemetry.AppendMetricHeader(dst, g.name, typ, g.help)
		for _, m := range metrics {
			dst = telemetry.AppendSample(dst, g.name, shardLabel(m.Shard), g.value(m))
		}
	}

	dst = telemetry.AppendMetricHeader(dst, "pmkv_shard_batch_size", "histogram",
		"Requests per group commit, per shard.")
	for _, m := range metrics {
		dst = telemetry.AppendHistogram(dst, "pmkv_shard_batch_size",
			shardLabel(m.Shard), m.BatchSizes, 1)
	}

	ps := readProcessStats()
	if ps.ResidentBytes > 0 {
		dst = telemetry.AppendMetricHeader(dst, "process_resident_memory_bytes", "gauge",
			"Resident memory size in bytes.")
		dst = telemetry.AppendUintSample(dst, "process_resident_memory_bytes", "", ps.ResidentBytes)
	}
	dst = telemetry.AppendMetricHeader(dst, "go_memstats_heap_inuse_bytes", "gauge",
		"Bytes in in-use heap spans.")
	dst = telemetry.AppendUintSample(dst, "go_memstats_heap_inuse_bytes", "", ps.HeapInuseBytes)
	return dst
}

func shardLabel(i int) string {
	return fmt.Sprintf("shard=%q", strconv.Itoa(i))
}
