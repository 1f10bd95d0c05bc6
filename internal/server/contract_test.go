package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
	"persistbarriers/internal/proto/client"
	"persistbarriers/internal/server"
	"persistbarriers/internal/telemetry"
)

// The patterns benchmark/server.go reads a child pmkvd's drain report
// with, copied from there (fingerprintRE ... dlAckedRE, plus the literal
// "recovery invariants: OK"). benchmark/ is its own module and its two
// child-starting smoke tests are advisory in CI, so this is where a
// report change that would blind the benchmark fails a blocking test.
var (
	fingerprintRE = regexp.MustCompile(`combined fingerprint (\w+)`)
	publishesRE   = regexp.MustCompile(`publishes (\d+) durable / (\d+) total`)
	cyclesRE      = regexp.MustCompile(`shard \d+: clean after (\d+) cycles`)
	epochsRE      = regexp.MustCompile(`(\d+) epochs persisted`)
	dlRE          = regexp.MustCompile(`durable linearizability: (.*)`)
	dlAckedRE     = regexp.MustCompile(`^OK \(.* (\d+) acked\)$`)
)

// benchStatz is the subset of /statz that benchmark/server.go decodes.
type benchStatz struct {
	Stages []struct {
		Stage  string  `json:"stage"`
		Count  float64 `json:"count"`
		MeanUS float64 `json:"mean_us"`
	} `json:"stages"`
	Shards []struct {
		QueueDepth float64 `json:"queue_depth"`
		Batches    float64 `json:"batches"`
		AvgBatch   float64 `json:"avg_batch"`
		FastHits   float64 `json:"read_fast_hits"`
		Fallbacks  float64 `json:"read_fallbacks"`
	} `json:"shards"`
}

// sumMatches adds up capture group 1 of every match of re in text.
func sumMatches(re *regexp.Regexp, text string) (sum int64) {
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		sum += n
	}
	return sum
}

// TestBenchmarkContract drives a traced, checked 2-shard server from a
// pipelined and a one-in-flight connection, drains it, and holds the three surfaces the benchmark reads
// to one another: the Report's fields, the text WriteText renders from
// them, and /statz.
func TestBenchmarkContract(t *testing.T) {
	ts := startTestServer(t, pmkv.ShardedConfig{
		Shards: 2,
		Engine: pmkv.Config{Machine: pmkv.SmallMachine(), Buckets: 64, Check: true},
	}, server.Options{Window: 16, Tracing: true})

	// Binary: 120 pipelined puts (ids 0..119), then a get per key with
	// every tenth a delete instead.
	const keys = 120
	isWrite := func(id uint64) bool { return id < keys || id%10 == 0 }
	var acked atomic.Int64 // writes acknowledged to a client
	var failures atomic.Int64
	c, err := client.New(ts.dial(t), client.Options{Window: 16, OnComplete: func(resp *proto.Response, _, _ int64) {
		switch {
		case resp.Err != "" || resp.Crashed:
			failures.Add(1)
		case isWrite(resp.ID):
			acked.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 2*keys; id++ {
		key := []byte(fmt.Sprintf("b%03d", id%keys))
		switch {
		case id < keys:
			err = c.Put(id, key, []byte("binary-value"))
		case isWrite(id):
			err = c.Del(id, key)
		default:
			err = c.Get(id, key)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// One op in flight: 60 ops over 20 keys, put, get and delete in turn.
	c, err = client.New(ts.dial(t), client.Options{Window: 1, OnComplete: func(resp *proto.Response, _, _ int64) {
		switch {
		case resp.Err != "" || resp.Crashed:
			failures.Add(1)
		case resp.ID%3 != 1:
			acked.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 60; id++ {
		key := []byte(fmt.Sprintf("j%02d", id%20))
		switch id % 3 {
		case 0:
			err = c.Put(id, key, []byte("serial-value"))
		case 1:
			err = c.Get(id, key)
		case 2:
			err = c.Del(id, key)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d ops failed", n)
	}
	want := acked.Load()

	// (c) /statz decodes into the benchmark's subset, and the stages every
	// write crosses carry counts and exact-sum means.
	var statz benchStatz
	if err := json.Unmarshal(scrape(t, ts, "/statz"), &statz); err != nil {
		t.Fatalf("/statz: %v", err)
	}
	if len(statz.Shards) != 2 {
		t.Fatalf("/statz has %d shards, want 2", len(statz.Shards))
	}
	seen := map[string]bool{}
	for _, st := range statz.Stages {
		seen[st.Stage] = st.Count > 0 && st.MeanUS > 0
	}
	for _, stage := range []string{"queue_wait", "translate", "retire", "durable_wait", "ack_write"} {
		if !seen[stage] {
			t.Errorf("/statz stage %q has no count or no mean_us: %+v", stage, statz.Stages)
		}
	}
	var batches float64
	for _, sh := range statz.Shards {
		batches += sh.Batches
	}
	if batches == 0 {
		t.Error("/statz shards report no batches")
	}

	// (a) The report's fields.
	rep := ts.drain(t)
	var durable, cycles, epochs int64
	for _, sh := range rep.Shards {
		durable += int64(sh.DurablePublishes)
		cycles += int64(sh.Cycles)
		epochs += int64(sh.EpochsPersisted)
		if steps := sh.SimCycles.Pump + sh.SimCycles.Gap; steps != uint64(sh.Cycles) {
			t.Errorf("shard %d: pump %d + gap %d cycles != its %d cycles", sh.Shard, sh.SimCycles.Pump, sh.SimCycles.Gap, sh.Cycles)
		}
	}
	if durable != want {
		t.Errorf("report recovers %d durable publishes, clients saw %d writes acked", durable, want)
	}
	if rep.DL == nil || !rep.DL.OK() || int64(rep.DL.Acked) != want {
		t.Errorf("durable linearizability verdict %v, want OK with %d acked", rep.DL, want)
	}
	if rep.Crashed || rep.Fingerprint == "" || len(rep.Stages) == 0 {
		t.Errorf("report: crashed %v, fingerprint %q, %d stage rows", rep.Crashed, rep.Fingerprint, len(rep.Stages))
	}
	if rep.Flight == nil || rep.Flight.BadAcks != 0 || rep.Flight.Events == 0 {
		t.Errorf("flight check %+v, want events and no bad acks", rep.Flight)
	}

	// (b) The text says the same to the benchmark's patterns.
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	raw := text.String()
	if !strings.Contains(raw, "recovery invariants: OK") {
		t.Errorf("text lacks the invariants line:\n%s", raw)
	}
	if m := fingerprintRE.FindStringSubmatch(raw); m == nil || !strings.HasPrefix(rep.Fingerprint, m[1]) {
		t.Errorf("fingerprint pattern found %v, report has %q", m, rep.Fingerprint)
	}
	if got := sumMatches(publishesRE, raw); got != durable {
		t.Errorf("publishes pattern sums to %d, fields to %d", got, durable)
	}
	if got := sumMatches(cyclesRE, raw); got != cycles {
		t.Errorf("cycles pattern sums to %d, fields to %d", got, cycles)
	}
	if got := sumMatches(epochsRE, raw); got != epochs || epochs == 0 {
		t.Errorf("epochs pattern sums to %d, fields to %d", got, epochs)
	}
	m := dlRE.FindStringSubmatch(raw)
	if m == nil {
		t.Fatalf("text lacks a durable linearizability line:\n%s", raw)
	}
	if a := dlAckedRE.FindStringSubmatch(m[1]); a == nil || a[1] != strconv.FormatInt(want, 10) {
		t.Errorf("DL line %q does not report %d acked", m[1], want)
	}
}

// TestReportTextGolden pins WriteText byte for byte on a fixed Report: a
// clean and a crashed shard line, the verdict, the stage table (empty
// rows skipped) and the flight line.
func TestReportTextGolden(t *testing.T) {
	rep := &server.Report{
		Crashed: true,
		Shards: []server.ShardReport{
			{Shard: 0, Cycles: 181234, DurablePublishes: 412, TotalPublishes: 412, Keys: 97,
				EpochsPersisted: 388, LatencyP50: 1471, LatencyP99: 2303, Folded: 412,
				SimCycles: pmkv.StepCycles{Pump: 80120, Gap: 101114}},
			{Shard: 1, Crashed: true, Cycles: 100000, DurablePublishes: 230, TotalPublishes: 236, Keys: 88,
				EpochsPersisted: 201, LatencyP50: 1535, LatencyP99: 2431, Folded: 228, Retained: 8,
				SimCycles: pmkv.StepCycles{Pump: 44870, Gap: 55130}},
		},
		RecoveredKeys: 185,
		Fingerprint:   "0123456789abcdef0123456789abcdef",
		DL:            &dlcheck.Verdict{Ops: 900, Reads: 252, Publishes: 648, Durable: 642, Acked: 640},
		Stages: []telemetry.StageStats{
			{Stage: "route", Count: 900, MeanUS: 0.4, P50US: 0.383, P90US: 0.511, P99US: 1.535},
			{Stage: "durable_wait", Count: 648, MeanUS: 1204.25, P50US: 1114.111, P90US: 1835.007, P99US: 3407.871},
			{Stage: "read_fallback"},
		},
		Flight: &server.FlightCheck{Events: 900, DumpPath: "/tmp/flight.json"},
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden", text.Bytes())

	// A failed verification carries only the verdict; a failed flight
	// check says so on its line.
	text.Reset()
	failed := &server.Report{DL: &dlcheck.Verdict{Violations: []*dlcheck.Violation{{Msg: "acked write lost"}}}}
	failed.WriteText(&text)
	if got, want := text.String(), "  durable linearizability: FAILED (1 violations; first: acked write lost)\n"; got != want {
		t.Errorf("failed report renders %q, want %q", got, want)
	}
	text.Reset()
	(&server.Report{Flight: &server.FlightCheck{Events: 3, BadAcks: 2}}).WriteText(&text)
	if got, want := text.String(), "  flight recorder: 3 events, dump not written (-flight-dump unset), consistency FAILED (2 acks beyond durable prefix)\n"; got != want {
		t.Errorf("failed flight check renders %q, want %q", got, want)
	}
}
