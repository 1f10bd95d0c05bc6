package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef declares one named metric: its unit, which direction is
// better, and — for end-to-end metrics only — the share of the parent's
// median by which it may worsen before a change counts as a regression.
// BENCHMARK.json at the repo root carries the same table for the driver:
// it is what `benchmark manifest` prints, and
// TestBenchmarkJSONMatchesRegistry keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd lists the metrics every untraced run reports to the driver,
// on every workload. What fills each one per workload is tabulated in
// README.md; the names are deliberately generic so one definition of
// "worse" holds across the simulator, the engine and the live server.
// Only quantities that repeat from run to run on the reference host are
// here: its CPU speed drifts by 10-50 % over minutes, so no host-time
// metric keeps its ten-seed spread inside any bound the driver accepts
// (README.md, "Demotions"). setup_s is the exception the driver requires,
// and carries the largest bound. Each bound is at least three times the
// largest ten-seed quartile spread measured for its metric on any
// workload (README.md, "Measured spreads").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
	{"sim_cycles_per_op", "cycles", "lower", 0.08},
	{"epochs_per_op", "count", "lower", 0.08},
}

// simulated marks the end-to-end metrics that are simulated quantities.
// On the deterministic workloads they are a pure function of the seed,
// which `compare` uses: at equal seeds their bound there is 0.
var simulated = map[string]bool{"sim_cycles_per_op": true, "epochs_per_op": true}

// hostTime lists the host-time metrics every run, traced or not, also
// measures: throughput, CPU cost and median latency. An untraced run
// prints them and keeps them in its record and the results file, where
// `compare` judges them against these bounds; a traced run reports them
// to the driver among the per-layer metrics, under the same names.
var hostTime = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"p50_us", "us", "lower", 0.25},
}

// perLayer lists the metrics every traced run reports. A layer that does
// no work on a workload reports 0 there — which is itself the statement
// the workload table makes ("pmkv, proto and the server do none").
var perLayer = []metricDef{
	// internal/sim: the event kernel.
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.kernel_ns_per_event", Unit: "ns", Better: "lower"},

	// internal/machine: host cost and the paper's simulated counters.
	{Name: "machine.new_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.run_s", Unit: "s", Better: "lower"},
	{Name: "machine.exec_cycles", Unit: "cycles", Better: "lower"},
	{Name: "machine.host_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "machine.stall_cycles_per_op", Unit: "cycles", Better: "lower"},
	{Name: "machine.stall_intra_cycles", Unit: "cycles", Better: "lower"},
	{Name: "machine.stall_inter_cycles", Unit: "cycles", Better: "lower"},
	{Name: "machine.stall_eviction_cycles", Unit: "cycles", Better: "lower"},
	{Name: "machine.stall_pressure_cycles", Unit: "cycles", Better: "lower"},
	{Name: "machine.stall_wbuf_cycles", Unit: "cycles", Better: "lower"},
	{Name: "machine.conflicts_intra", Unit: "count", Better: "lower"},
	{Name: "machine.conflicts_inter", Unit: "count", Better: "lower"},
	{Name: "machine.conflicts_eviction", Unit: "count", Better: "lower"},
	{Name: "machine.idt_fallbacks", Unit: "count", Better: "lower"},
	{Name: "machine.conflict_epoch_pct", Unit: "%", Better: "lower"},
	{Name: "machine.epochs_persisted", Unit: "count", Better: "lower"},
	{Name: "machine.epoch_splits", Unit: "count", Better: "lower"},
	{Name: "machine.epoch_deps", Unit: "count", Better: "lower"},
	{Name: "machine.flushes", Unit: "count", Better: "lower"},
	{Name: "machine.natural_flushes", Unit: "count", Better: "higher"},
	{Name: "machine.persisted_lines", Unit: "count", Better: "lower"},
	{Name: "machine.log_writes", Unit: "count", Better: "lower"},

	// internal/cache, internal/nvram, internal/noc.
	{Name: "cache.l1_miss_frac", Unit: "fraction", Better: "lower"},
	{Name: "cache.llc_miss_frac", Unit: "fraction", Better: "lower"},
	{Name: "cache.llc_dirty_evicts", Unit: "count", Better: "lower"},
	{Name: "nvram.writes", Unit: "count", Better: "lower"},
	{Name: "nvram.busy_cycles", Unit: "cycles", Better: "lower"},
	{Name: "nvram.stall_cycles", Unit: "cycles", Better: "lower"},
	{Name: "noc.messages", Unit: "count", Better: "lower"},
	{Name: "noc.avg_hops", Unit: "hops", Better: "lower"},

	// internal/workload, internal/harness.
	{Name: "workload.gen_s", Unit: "s", Better: "lower"},
	{Name: "workload.trace_ops", Unit: "count", Better: "lower"},
	{Name: "harness.sweep_s", Unit: "s", Better: "lower"},

	// internal/pmkv.Engine: translate/retire cost and the persist counts.
	{Name: "engine.translate_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "engine.retire_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "engine.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.sim_cycles_per_op", Unit: "cycles", Better: "lower"},
	{Name: "engine.persists_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.flushes_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.epochs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.stall_cycles_per_op", Unit: "cycles", Better: "lower"},
	{Name: "engine.ops_per_s_b1", Unit: "1/s", Better: "higher"},
	{Name: "engine.ops_per_s_b256", Unit: "1/s", Better: "higher"},

	// Recovery: Engine.Close/Verify/RecoveredState and the server drain.
	{Name: "recovery.close_s", Unit: "s", Better: "lower"},
	{Name: "recovery.verify_s", Unit: "s", Better: "lower"},
	{Name: "recovery.replay_s", Unit: "s", Better: "lower"},
	{Name: "recovery.dlcheck_s", Unit: "s", Better: "lower"},
	{Name: "recovery.records", Unit: "count", Better: "lower"},
	{Name: "recovery.keys", Unit: "count", Better: "higher"},
	{Name: "recovery.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "recovery.durable_frac", Unit: "fraction", Better: "higher"},
	{Name: "server.drain_s", Unit: "s", Better: "lower"},

	// internal/pmkv.ShardedStore driven in-process (no wire, no server).
	{Name: "shard.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "shard.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.fast_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "shard.avg_batch", Unit: "count", Better: "higher"},
	{Name: "shard.batches", Unit: "count", Better: "lower"},
	{Name: "shard.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "shard.allocs_per_op", Unit: "count", Better: "lower"},

	// internal/proto codec alone.
	{Name: "proto.enc_req_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.dec_req_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.enc_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.dec_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proto.wire_bytes_per_op", Unit: "B", Better: "lower"},

	// internal/proto/client: the load generator's own view.
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.sched_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.queue_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.get_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.put_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.slo_miss_frac", Unit: "fraction", Better: "lower"},
	{Name: "client.max_ok_rate", Unit: "1/s", Better: "higher"},
	{Name: "client.cpu_us_per_op", Unit: "us", Better: "lower"},

	// cmd/pmkvd, scraped from /statz and the process table.
	{Name: "server.start_s", Unit: "s", Better: "lower"},
	{Name: "server.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "server.rss_bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "server.stage.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.stage.translate_us", Unit: "us", Better: "lower"},
	{Name: "server.stage.retire_us", Unit: "us", Better: "lower"},
	{Name: "server.stage.durable_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.stage.ack_write_us", Unit: "us", Better: "lower"},
	{Name: "server.stage.read_fast_us", Unit: "us", Better: "lower"},
	{Name: "server.stage.read_fallback_us", Unit: "us", Better: "lower"},
	{Name: "server.fast_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "server.avg_batch", Unit: "count", Better: "higher"},
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.unattributed_us", Unit: "us", Better: "lower"},

	{Name: "trace_overhead_frac", Unit: "fraction", Better: "lower"},

	// Demoted end-to-end candidates, under their original names
	// (README.md, "Demotions"): the hostTime three and p99_us because
	// their run-to-run spread on the reference host exceeds any bound the
	// driver accepts, the rest because they exist on some workloads only
	// and the driver requires every end-to-end metric on every workload.
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "p50_us", Unit: "us", Better: "lower"},
	{Name: "p99_us", Unit: "us", Better: "lower"},
	{Name: "sim_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "lbpp_vs_lb_gmean", Unit: "ratio", Better: "higher"},
	{Name: "lbpp_vs_np_gmean", Unit: "ratio", Better: "lower"},
	{Name: "paper_err_max", Unit: "fraction", Better: "lower"},
	{Name: "engine_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	{Name: "lo_p50_us", Unit: "us", Better: "lower"},
	{Name: "lo_p99_us", Unit: "us", Better: "lower"},
	{Name: "hi_p50_us", Unit: "us", Better: "lower"},
	{Name: "hi_p99_us", Unit: "us", Better: "lower"},
	{Name: "fail_frac", Unit: "fraction", Better: "lower"},
}

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's numbers by name. Setting a name outside the
// active registry is a bug in the benchmark, caught by finish.
type metricSet map[string]float64

// finish projects the set onto defs: every def gets a value (0 when the
// workload left it unset), and any name not in defs is an error.
func (m metricSet) finish(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var stray []string
	for name := range m {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics not in the registry: %v", stray)
	}
	return out, nil
}

// runResult is the last line of a single-workload run's standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printMetrics writes every metric by name with its unit, registry order.
func printMetrics(w *os.File, workload string, defs []metricDef, vals map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-12s %-32s %16.6g %s\n", workload, d.Name, vals[d.Name].Value, d.Unit)
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of floats are marshalled
	}
	return b
}

// benchmarkJSON is BENCHMARK.json, the file the driver reads, in its key
// order.
type (
	benchmarkJSON struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []bjWorkload  `json:"workloads"`
		EndToEnd   []bjBounded   `json:"end_to_end"`
		PerLayer   []bjUnbounded `json:"per_layer"`
	}
	bjWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	bjUnbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	bjBounded struct {
		bjUnbounded
		Bound float64 `json:"bound"`
	}
)

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	bj := benchmarkJSON{Command: []string{"go", "run", "-C", "benchmark", "."}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, w := range workloads {
		bj.Workloads = append(bj.Workloads, bjWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bj.EndToEnd = append(bj.EndToEnd, bjBounded{bjUnbounded{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		bj.PerLayer = append(bj.PerLayer, bjUnbounded{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(&bj, "", " ")
	if err != nil {
		panic(err) // only strings and floats are marshalled
	}
	return append(b, '\n')
}
