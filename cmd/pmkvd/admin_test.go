package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics-families.golden")

// TestMetricsFamiliesGolden holds a live server's /metrics to what
// promcheck accepts (telemetry.ValidateExposition) and pins the families
// it exposes — name and type, in exposition order — so a gauge cannot
// vanish or change type unnoticed. It then reads the retention gauges
// back: after acked writes the engines have folded and released records,
// and the same numbers appear on /statz and on the drain report's shard
// lines behind the fields the benchmark parses.
func TestMetricsFamiliesGolden(t *testing.T) {
	var report bytes.Buffer
	s, _, done := startTestServer(t, pmkv.ShardedConfig{Shards: 2}, serverOpts{tracing: true, out: &report})
	sess := s.store.NewSession()
	const writes = 200
	for i := 0; i < writes; i++ {
		op, val := pmkv.Put, []byte("value")
		if i%10 == 9 {
			op, val = pmkv.Delete, nil
		}
		if ack := s.store.Do(sess, op, fmt.Sprintf("k%02d", i%40), val); ack.Err != nil || ack.Crashed {
			t.Fatalf("write %d: %+v", i, ack)
		}
	}

	exposition := s.renderMetrics(nil)
	if err := telemetry.ValidateExposition(exposition); err != nil {
		t.Fatalf("exposition does not validate: %v", err)
	}
	var families bytes.Buffer
	sums := make(map[string]float64)
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families.WriteString(rest + "\n")
			continue
		}
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			var v float64
			fmt.Sscan(value, &v)
			name, _, _ = strings.Cut(name, "{")
			sums[name] += v
		}
	}
	const golden = "testdata/metrics-families.golden"
	if *update {
		if err := os.WriteFile(golden, families.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(families.Bytes(), want) {
		t.Errorf("metric families differ from %s (run with -update to regenerate)\ngot:\n%s", golden, families.String())
	}

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
	if sums["go_memstats_heap_inuse_bytes"] == 0 {
		t.Error("go_memstats_heap_inuse_bytes = 0")
	}

	var statz struct {
		Shards []struct {
			Folded   int `json:"records_folded"`
			Retained int `json:"records_retained"`
			Keys     int `json:"checkpoint_keys"`
			Trimmed  int `json:"epochs_trimmed"`
		} `json:"shards"`
		Process struct {
			Heap uint64 `json:"heap_inuse_bytes"`
		} `json:"process"`
	}
	line, err := json.Marshal(s.statz())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &statz); err != nil {
		t.Fatal(err)
	}
	folded, keys := 0, 0
	for _, sh := range statz.Shards {
		folded += sh.Folded
		keys += sh.Keys
	}
	if folded != writes || keys != 40 || statz.Process.Heap == 0 {
		t.Errorf("/statz: folded %d, keys %d, heap %d; want %d, 40, > 0", folded, keys, statz.Process.Heap, writes)
	}

	s.beginDrain()
	if err := waitServer(t, done); err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(&report)
	total := 0
	for _, line := range strings.Split(string(out), "\n") {
		var shard, cycles, durable, all, recovered, epochs, p50, p99, f, r int
		n, _ := fmt.Sscanf(strings.TrimSpace(line),
			"shard %d: clean after %d cycles; publishes %d durable / %d total; %d keys; %d epochs persisted (p50=%d p99=%d cycles); folded %d / retained %d",
			&shard, &cycles, &durable, &all, &recovered, &epochs, &p50, &p99, &f, &r)
		if n == 10 {
			if f+r != all {
				t.Errorf("shard %d: folded %d + retained %d != %d publishes", shard, f, r, all)
			}
			total += all
		}
	}
	if total != writes {
		t.Errorf("drain report accounts for %d publishes, want %d:\n%s", total, writes, out)
	}
}
