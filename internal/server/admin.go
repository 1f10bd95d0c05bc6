// The admin surface: AdminHandler serves live operational telemetry out
// of band of the data protocol (pmkvd -admin ADDR puts it on a second
// listener):
//
//	/metrics       Prometheus 0.0.4 text exposition — per-shard pipeline
//	               stage histograms (seconds), each shard machine's own
//	               counts (simulated cycles: persist latency and the
//	               machine.Families — epochs by cause, conflicts, IDT
//	               edges, splits, stall cycles, flushes, NoC and NVRAM
//	               traffic), the commit pipeline's counts and batch
//	               sizes, the simulated cycles each worker step took,
//	               how much audit state each engine holds and has
//	               released, and the process's resident and heap memory.
//	/statz         The stats document (JSON): the store-wide counters, every
//	               shard's ShardMetrics, and the live per-stage breakdown
//	               (pooled and per shard).
//	/debug/pprof/  the standard Go profiling handlers.
//
// A scrape only reads. Stage histograms are atomic counters folded per
// shard; everything else is one pmkv.Engine.Stats per shard, which takes
// that engine's lock once — the lock its worker holds while it translates
// and pumps — copies O(cores + banks) counters and moves nothing.

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

	"persistbarriers/internal/machine"
	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/telemetry"
)

// Statz is the stats snapshot, the /statz payload. Stats and
// Shards[].Counters are the simulated-cycle domain (each shard machine's
// own counters; Stats is their sum), Stages the wall-clock one (the
// tracer).
type Statz struct {
	OK      bool                `json:"ok"`
	Stats   machine.Counters    `json:"stats"`
	Shards  []pmkv.ShardMetrics `json:"shards"`
	Process ProcessStats        `json:"process"`

	// Stages pools every shard's stage-segment histograms (exact merge);
	// ShardStages is the same breakdown per shard.
	Stages      []telemetry.StageStats   `json:"stages,omitempty"`
	ShardStages [][]telemetry.StageStats `json:"shard_stages,omitempty"`
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
	reply := Statz{OK: true, Shards: s.store.Metrics(), Process: readProcessStats()}
	for i := range reply.Shards {
		reply.Stats.Add(&reply.Shards[i].Counters)
	}
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

// shardFamily is one per-shard sample family on /metrics: a counter when
// its name ends in _total, a gauge otherwise. label names what tells one
// shard's samples apart ("" when each shard has one).
type shardFamily struct {
	name, help, label string
	samples           func(*pmkv.ShardMetrics) []machine.Sample
}

func one(v uint64) []machine.Sample { return []machine.Sample{{Value: v}} }

// shardFamilies are the per-shard families in exposition order: one
// pmkv_<name>_total per machine.Families entry, read from the shard
// machine's counters, then the shard's commit pipeline and what its engine
// holds and has released.
var shardFamilies = append(machineFamilies(), []shardFamily{
	{"pmkv_shard_cycle", "Shard simulated clock.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.Counters.Cycle)) }},
	{"pmkv_shard_queue_depth", "Requests waiting in the shard mailbox.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.QueueDepth)) }},
	{"pmkv_shard_mailbox_capacity", "Shard mailbox capacity.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.MailboxCap)) }},
	{"pmkv_shard_batches_total", "Group commits retired.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(m.Batches) }},
	{"pmkv_read_fast_hits_total", "GETs served from the committed-state index, bypassing the mailbox.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(m.FastHits) }},
	{"pmkv_records_retained", "Mutation records still held: submitted, not yet durable.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.Retained)) }},
	{"pmkv_records_folded_total", "Mutation records verified, folded into the checkpoint (which fast GETs read) and released.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.Folded)) }},
	{"pmkv_checkpoint_keys", "Keys in the committed-state checkpoint, tombstones included.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.CheckpointKeys)) }},
	{"pmkv_epochs_trimmed_total", "Persisted epochs dropped from the machine's retained history.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.EpochsTrimmed)) }},
	{"pmkv_entry_lines_bumped_total", "Entry lines carved off the heap's bump pointer: the persistent heap's size, flat once the free list feeds the Puts.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.EntryLinesBumped)) }},
	{"pmkv_entry_lines_recycled_total", "Entry lines taken off the free list for a Put instead of carving new ones.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.EntryLinesRecycled)) }},
	{"pmkv_entry_lines_free", "Entry lines on the free list: superseded behind the durable watermark, not yet reused.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.EntryLinesFree)) }},
	{"pmkv_machine_lines_tracked", "Lines the simulated machine keeps per-line state for.", "",
		func(m *pmkv.ShardMetrics) []machine.Sample { return one(uint64(m.LinesTracked)) }},
	{"pmkv_read_fallback_total", "GETs that fell back to the mailbox, by reason (the session's own unacked write to the key, drain, or crash).", "reason",
		func(m *pmkv.ShardMetrics) []machine.Sample {
			f := m.FallbackReasons
			return []machine.Sample{{Label: "pending", Value: f.Pending}, {Label: "draining", Value: f.Draining}, {Label: "crashed", Value: f.Crashed}}
		}},
	{"pmkv_shard_sim_cycles_total", "Simulated cycles the shard worker advanced its machine by, by step (pump: a commit window running until it retired; gap: background persists, up to the instant the oldest batch is durable).", "step",
		func(m *pmkv.ShardMetrics) []machine.Sample {
			return []machine.Sample{{Label: "pump", Value: m.SimCycles.Pump}, {Label: "gap", Value: m.SimCycles.Gap}}
		}},
}...)

// machineFamilies enters each machine.Families entry as a shard family.
func machineFamilies() []shardFamily {
	out := make([]shardFamily, len(machine.Families))
	for i, f := range machine.Families {
		out[i] = shardFamily{"pmkv_" + f.Name + "_total", f.Help, f.Label,
			func(m *pmkv.ShardMetrics) []machine.Sample { return f.Samples(&m.Counters) }}
	}
	return out
}

// appendMetrics composes the full exposition: stage histograms from the
// tracer, then everything store.Metrics reports — the machines'
// persist-latency histograms, every shardFamilies row and the batch-size
// histograms — and the process's memory.
func (s *Server) appendMetrics(dst []byte) []byte {
	dst = s.tracer.AppendStageMetrics(dst)

	metrics := s.store.Metrics()

	dst = telemetry.AppendMetricHeader(dst, "pmkv_persist_latency_cycles", "histogram",
		"Epoch completion-to-durability latency in simulated cycles, per shard.")
	for _, m := range metrics {
		if m.Counters.Epochs.Persisted > 0 {
			dst = telemetry.AppendHistogram(dst, "pmkv_persist_latency_cycles",
				shardLabel(m.Shard), m.Counters.PersistLatency, 1)
		}
	}

	for _, f := range shardFamilies {
		typ := "gauge"
		if strings.HasSuffix(f.name, "_total") {
			typ = "counter"
		}
		dst = telemetry.AppendMetricHeader(dst, f.name, typ, f.help)
		for i := range metrics {
			m := &metrics[i]
			for _, sm := range f.samples(m) {
				labels := shardLabel(m.Shard)
				if sm.Label != "" {
					labels += fmt.Sprintf(",%s=%q", f.label, sm.Label)
				}
				dst = telemetry.AppendUintSample(dst, f.name, labels, sm.Value)
			}
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
