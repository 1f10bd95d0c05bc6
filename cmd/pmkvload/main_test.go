package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
	"time"

	"persistbarriers/internal/telemetry"
)

// asMain is the environment variable under which the test binary runs
// main() instead of its tests, so a test can re-execute it as pmkvload.
const asMain = "PMKVLOAD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadPacingRefused: a -rate or -duration that cannot pace a run exits
// 2 with a flag message before anything is dialed (nothing listens on the
// address, so a dial would fail with exit 1). A negative, NaN or infinite
// rate, one so high the per-connection interval truncates to 0 ns and one
// so low it overflows would otherwise run closed loop unannounced.
func TestBadPacingRefused(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-rate", "-5"},
		{"-rate", "NaN"},
		{"-rate", "Inf"},
		{"-rate", "-Inf"},
		{"-rate", "1e30"},
		{"-rate", "1e-300"},
		{"-duration", "-1s"},
		{"-duration", "0"},
	} {
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:1", "-duration", "1ms", tc.flag, tc.value)
		cmd.Env = append(os.Environ(), asMain+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: %v, want exit status 2\n%s", tc.flag, tc.value, err, stderr.Bytes())
			continue
		}
		if want := "pmkvload: " + tc.flag + " must "; !strings.HasPrefix(stderr.String(), want) {
			t.Errorf("%s %s: stderr %q, want it to start %q", tc.flag, tc.value, stderr.String(), want)
		}
	}
}

// TestSummarySchemaLocked pins the -json output schema: the exact
// top-level field set, the schema_version value, and the per-stage
// field set. Downstream scripts (EXPERIMENTS tables, dashboards) key on
// these names; renaming or dropping one must bump summarySchemaVersion
// and this test together.
func TestSummarySchemaLocked(t *testing.T) {
	s := Summary{
		SchemaVersion: summarySchemaVersion,
		ServerStages:  []telemetry.StageStats{{Stage: "route"}},
		ServerShards:  []ServerShard{{Shard: 0, Batches: 1}},
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"schema_version", "conns", "proto", "window", "elapsed_sec", "ops",
		"ops_per_sec", "gets", "puts", "dels", "found", "not_found", "errors",
		"crashed", "draining", "mean_us", "p50_us", "p90_us", "p99_us",
		"p999_us", "max_us",
		"svc_mean_us", "svc_p50_us", "svc_p90_us", "svc_p99_us",
		"svc_p999_us", "svc_max_us",
		"queue_mean_us", "queue_p50_us", "queue_p99_us", "queue_max_us",
		"read", "write",
		"server_stages", "server_shards",
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if strings.Join(got, ",") != strings.Join(sorted, ",") {
		t.Fatalf("summary fields changed:\n got %v\nwant %v\n(bump summarySchemaVersion and update this test deliberately)", got, sorted)
	}

	var ver int
	if err := json.Unmarshal(m["schema_version"], &ver); err != nil || ver != 5 {
		t.Fatalf("schema_version = %s, want 5", m["schema_version"])
	}

	kindWant := []string{
		"ops", "mean_us", "p50_us", "p90_us", "p99_us", "p999_us", "max_us",
		"svc_mean_us", "svc_p50_us", "svc_p99_us", "svc_max_us",
		"queue_mean_us", "queue_p50_us", "queue_p99_us", "queue_max_us",
	}
	for _, kind := range []string{"read", "write"} {
		var ks map[string]json.RawMessage
		if err := json.Unmarshal(m[kind], &ks); err != nil {
			t.Fatalf("%s malformed: %s", kind, m[kind])
		}
		if len(ks) != len(kindWant) {
			t.Fatalf("%s has %d fields, want %d: %s", kind, len(ks), len(kindWant), m[kind])
		}
		for _, k := range kindWant {
			if _, ok := ks[k]; !ok {
				t.Fatalf("%s missing %q: %s", kind, k, m[kind])
			}
		}
	}

	var stages []map[string]json.RawMessage
	if err := json.Unmarshal(m["server_stages"], &stages); err != nil || len(stages) != 1 {
		t.Fatalf("server_stages malformed: %s", m["server_stages"])
	}
	for _, k := range []string{"stage", "count", "mean_us", "p50_us", "p90_us", "p99_us"} {
		if _, ok := stages[0][k]; !ok {
			t.Fatalf("server_stages entry missing %q: %s", k, m["server_stages"])
		}
	}

	var shards []map[string]json.RawMessage
	if err := json.Unmarshal(m["server_shards"], &shards); err != nil || len(shards) != 1 {
		t.Fatalf("server_shards malformed: %s", m["server_shards"])
	}
	for _, k := range []string{"shard", "queue_depth", "batches", "avg_batch"} {
		if _, ok := shards[0][k]; !ok {
			t.Fatalf("server_shards entry missing %q: %s", k, m["server_shards"])
		}
	}
}

// TestSummaryOmitsStagesWithoutAdmin: without -admin the summary must not
// grow empty server_stages/server_shards keys.
func TestSummaryOmitsStagesWithoutAdmin(t *testing.T) {
	raw, err := json.Marshal(Summary{SchemaVersion: summarySchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "server_stages") {
		t.Fatalf("server_stages present with no admin scrape: %s", raw)
	}
	if strings.Contains(string(raw), "server_shards") {
		t.Fatalf("server_shards present with no admin scrape: %s", raw)
	}
}

// TestFlatSummaryIsMergedKinds: the flat latency fields, merged from the
// read and write distributions at report time, equal what recording
// every op into one distribution as well gives.
func TestFlatSummaryIsMergedKinds(t *testing.T) {
	stats := make([]connStats, 3)
	var every opDists
	rng := rand.New(rand.NewSource(1))
	for i := range 3000 {
		isRead := rng.Intn(4) > 0
		svc := time.Duration(20+rng.Intn(400)) * time.Microsecond
		if !isRead {
			svc *= 30 // writes wait for durability
		}
		queued := time.Duration(rng.Intn(2000)) * time.Microsecond
		stats[i%len(stats)].record(queued+svc, svc, queued, isRead)
		every.record(queued+svc, svc, queued)
	}
	s := summarize(stats, time.Second, len(stats), "binary", 32, nil, nil)
	want := kindSummary(&every)
	if s.KindSummary != want {
		t.Errorf("flat fields\n%+v\nwant one distribution of every op\n%+v", s.KindSummary, want)
	}
	if _, _, p90, _, p999 := distSummary(&every.svc); s.SvcP90US != p90 || s.SvcP999US != p999 {
		t.Errorf("svc p90/p99.9 = %d/%d, want %d/%d", s.SvcP90US, s.SvcP999US, p90, p999)
	}
	if s.Read.Ops+s.Write.Ops != s.Ops || s.Read.Ops == 0 || s.Write.Ops == 0 || s.Read.P50US == s.Write.P50US {
		t.Errorf("kinds %d + %d ops (p50 %d, %d) do not split %d ops", s.Read.Ops, s.Write.Ops, s.Read.P50US, s.Write.P50US, s.Ops)
	}
}
