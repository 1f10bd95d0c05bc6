package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
	"persistbarriers/internal/proto/client"
	"persistbarriers/internal/server"
	"persistbarriers/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run with -update to regenerate)\ngot:\n%s", path, got)
	}
}

// scrape GETs one admin path from the server's handler.
func scrape(t *testing.T, ts *testServer, path string) []byte {
	t.Helper()
	admin := httptest.NewServer(ts.AdminHandler())
	defer admin.Close()
	resp, err := http.Get(admin.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s, %v", path, resp.Status, err)
	}
	return body
}

// TestMetricsFamiliesGolden holds a live server's /metrics to what
// promcheck accepts (telemetry.ValidateExposition) and pins the families
// it exposes — name and type, in exposition order — so a gauge cannot
// vanish or change type unnoticed, and every family but a histogram must
// be a counter exactly when its name ends in _total. It then reads the
// retention gauges back: after acked writes the engines have folded and
// released records, and the same numbers appear on /statz and in the
// drain report.
func TestMetricsFamiliesGolden(t *testing.T) {
	ts := startTestServer(t, pmkv.ShardedConfig{Shards: 2}, server.Options{Tracing: true})
	const writes = 200
	failed := 0
	c, err := client.New(ts.dial(t), client.Options{Window: 16, OnComplete: func(resp *proto.Response, _, _ int64) {
		if resp.Err != "" || resp.Crashed {
			failed++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		key := []byte(fmt.Sprintf("k%02d", i%40))
		if i%10 == 9 {
			err = c.Del(uint64(i), key)
		} else {
			err = c.Put(uint64(i), key, []byte("value"))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// GETs sent behind the window's unacked writes leave the fast path.
	for i := 0; i < 8; i++ {
		if err := c.Get(uint64(writes+i), []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Wait(); err != nil || failed > 0 {
		t.Fatalf("%d of %d writes failed, wait: %v", failed, writes, err)
	}
	c.Close()

	exposition := scrape(t, ts, "/metrics")
	if err := telemetry.ValidateExposition(exposition); err != nil {
		t.Fatalf("exposition does not validate: %v", err)
	}
	var families bytes.Buffer
	sums := make(map[string]float64)
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families.WriteString(rest + "\n")
			name, typ, _ := strings.Cut(rest, " ")
			if typ != "histogram" && (typ == "counter") != strings.HasSuffix(name, "_total") {
				t.Errorf("%s is a %s: a family other than a histogram is a counter iff its name ends in _total", name, typ)
			}
			continue
		}
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			var v float64
			fmt.Sscan(value, &v)
			name, _, _ = strings.Cut(name, "{")
			sums[name] += v
		}
	}
	checkGolden(t, "metrics-families.golden", families.Bytes())

	// Every write was acked durable, so all of them are folded and none
	// retained; 40 keys were written.
	if got := sums["pmkv_records_folded_total"]; got != writes {
		t.Errorf("pmkv_records_folded_total = %v, want %d", got, writes)
	}
	if got := sums["pmkv_records_retained"]; got != 0 {
		t.Errorf("pmkv_records_retained = %v, want 0", got)
	}
	if got := sums["pmkv_checkpoint_keys"]; got != 40 {
		t.Errorf("pmkv_checkpoint_keys = %v, want 40", got)
	}
	if sums["pmkv_epochs_trimmed_total"] == 0 {
		t.Error("pmkv_epochs_trimmed_total = 0 after 200 durable writes")
	}
	// Every write is a one-line entry (180 short Puts, 20 tombstones): each
	// got its line off the bump pointer or the free list, and 40 keys
	// cannot need 200 lines.
	bumped, recycled := sums["pmkv_entry_lines_bumped_total"], sums["pmkv_entry_lines_recycled_total"]
	if bumped+recycled != writes || recycled == 0 || sums["pmkv_machine_lines_tracked"] < bumped {
		t.Errorf("entry lines: %v bumped + %v recycled for %d writes, %v free, machine tracks %v",
			bumped, recycled, writes, sums["pmkv_entry_lines_free"], sums["pmkv_machine_lines_tracked"])
	}
	if sums["go_memstats_heap_inuse_bytes"] == 0 {
		t.Error("go_memstats_heap_inuse_bytes = 0")
	}
	// The machine's counters, read in one scrape: every persisted epoch has
	// exactly one cause and one latency sample, and 200 writes on the
	// default PF machine persist mostly proactively and stall somewhere.
	persisted := sums["pmkv_epochs_persisted_total"]
	if got := sums["pmkv_epochs_persisted_by_cause_total"]; got != persisted || persisted == 0 {
		t.Errorf("pmkv_epochs_persisted_by_cause_total sums to %v over causes, pmkv_epochs_persisted_total is %v", got, persisted)
	}
	if got := sums["pmkv_persist_latency_cycles_count"]; got != persisted {
		t.Errorf("pmkv_persist_latency_cycles_count = %v, want one per persisted epoch (%v)", got, persisted)
	}
	if sums["pmkv_stall_cycles_total"] == 0 || sums["pmkv_epochs_conflicting_total"] > persisted {
		t.Errorf("stall cycles %v, conflicting epochs %v of %v", sums["pmkv_stall_cycles_total"], sums["pmkv_epochs_conflicting_total"], persisted)
	}
	// Nothing is in flight: every cycle on a shard's clock was taken by a
	// Pump or a Gap step, and the writes needed both.
	if got, clock := sums["pmkv_shard_sim_cycles_total"], sums["pmkv_shard_cycle"]; got != clock || clock == 0 ||
		!bytes.Contains(exposition, []byte(`pmkv_shard_sim_cycles_total{shard="0",step="gap"}`)) {
		t.Errorf("pmkv_shard_sim_cycles_total sums to %v over steps, the shard clocks to %v", got, clock)
	}

	var statz struct {
		Stats struct {
			Epochs struct{ Persisted float64 }
		} `json:"stats"`
		Shards []struct {
			Cycles struct {
				Pump, Gap uint64
			} `json:"sim_cycles"`
			Counters struct {
				Cycle uint64 `json:"cycle"`
			} `json:"counters"`
			Folded    int     `json:"records_folded"`
			Retained  int     `json:"records_retained"`
			Keys      int     `json:"checkpoint_keys"`
			Trimmed   int     `json:"epochs_trimmed"`
			Fallbacks float64 `json:"read_fallbacks"`
			Reasons   struct {
				Pending, Draining, Crashed float64
			} `json:"read_fallback_reasons"`
		} `json:"shards"`
		Process struct {
			Heap uint64 `json:"heap_inuse_bytes"`
		} `json:"process"`
	}
	if err := json.Unmarshal(scrape(t, ts, "/statz"), &statz); err != nil {
		t.Fatal(err)
	}
	folded, keys := 0, 0
	var fallbacks, reasons float64
	for i, sh := range statz.Shards {
		if sh.Cycles.Pump == 0 || sh.Cycles.Gap == 0 || sh.Cycles.Pump+sh.Cycles.Gap != sh.Counters.Cycle {
			t.Errorf("/statz shard %d: sim_cycles %+v, clock %d", i, sh.Cycles, sh.Counters.Cycle)
		}
		folded += sh.Folded
		keys += sh.Keys
		fallbacks += sh.Fallbacks
		reasons += sh.Reasons.Pending + sh.Reasons.Draining + sh.Reasons.Crashed
	}
	// One family, split by reason: the samples sum to the unsplit count
	// /statz keeps.
	if got := sums["pmkv_read_fallback_total"]; got != fallbacks || reasons != fallbacks ||
		!bytes.Contains(exposition, []byte(`pmkv_read_fallback_total{shard="1",reason="pending"}`)) {
		t.Errorf("pmkv_read_fallback_total sums to %v over reasons, /statz has read_fallbacks %v split into %v", got, fallbacks, reasons)
	}
	if folded != writes || keys != 40 || statz.Process.Heap == 0 {
		t.Errorf("/statz: folded %d, keys %d, heap %d; want %d, 40, > 0", folded, keys, statz.Process.Heap, writes)
	}
	// Nothing is in flight, so the store-wide sum on /statz is the sum the
	// /metrics scrape saw.
	if statz.Stats.Epochs.Persisted != persisted {
		t.Errorf("/statz stats: %v epochs persisted, /metrics summed to %v", statz.Stats.Epochs.Persisted, persisted)
	}

	total := 0
	for _, sh := range ts.drain(t).Shards {
		if sh.Folded+sh.Retained != sh.TotalPublishes {
			t.Errorf("shard %d: folded %d + retained %d != %d publishes", sh.Shard, sh.Folded, sh.Retained, sh.TotalPublishes)
		}
		total += sh.TotalPublishes
	}
	if total != writes {
		t.Errorf("drain report accounts for %d publishes, want %d", total, writes)
	}
}

// TestStatsReplyFieldsStable pins the wire names of the /statz
// document: live clients parse it, so a rename is a breaking change. The
// nested epochs, conflicts and cache objects carry machine.Result's own
// field names — they are untagged there because their canonical JSON is
// fingerprinted.
func TestStatsReplyFieldsStable(t *testing.T) {
	ts := startTestServer(t, pmkv.ShardedConfig{Shards: 2}, server.Options{})
	c, err := client.New(ts.dial(t), client.Options{OnComplete: func(*proto.Response, int64, int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	// Three acked Puts in turn: an ack needs the entry's line durable, not
	// its epoch's persist handshake, so one alone can leave persist_latency
	// (omitted while empty) without a sample.
	for id := uint64(1); id <= 3; id++ {
		if err := c.Put(id, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	var body bytes.Buffer
	if err := json.Compact(&body, scrape(t, ts, "/statz")); err != nil {
		t.Fatal(err)
	}
	line := body.Bytes()
	var reply struct {
		OK     bool                       `json:"ok"`
		Stats  map[string]json.RawMessage `json:"stats"`
		Shards []map[string]json.RawMessage
	}
	if err := json.Unmarshal(line, &reply); err != nil || !reply.OK || len(reply.Shards) != 2 {
		t.Fatalf("/statz %q: %v", line, err)
	}
	counters := []string{"cycle", "txs", "conflicts", "epochs", "persist_latency", "stall_cycles",
		"persisted_lines", "log_writes", "mc", "noc", "l1", "llc"}
	for _, field := range counters {
		if _, ok := reply.Stats[field]; !ok {
			t.Errorf("stats object lacks %q: %s", field, line)
		}
	}
	for _, field := range []string{"shard", "queue_depth", "mailbox_cap", "batches", "avg_batch",
		"read_fast_hits", "read_fallbacks", "read_fallback_reasons", "sim_cycles", "records_retained",
		"records_folded", "checkpoint_keys", "epochs_trimmed", "entry_lines_bumped", "entry_lines_recycled",
		"entry_lines_free", "lines_tracked", "batch_sizes", "counters"} {
		if _, ok := reply.Shards[0][field]; !ok {
			t.Errorf("shard object lacks %q: %s", field, line)
		}
	}
	for _, nested := range []string{`"epochs":{"Opened":`, `"Persisted":`, `"ByCause":[`, `"conflicts":{"Intra":`, `"IDTFallbacks":`} {
		if !strings.Contains(string(line), nested) {
			t.Errorf("/statz lacks %s: %s", nested, line)
		}
	}
	ts.drain(t)
}
