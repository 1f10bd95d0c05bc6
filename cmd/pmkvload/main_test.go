package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/server"
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

// pmkvload re-executes the test binary as pmkvload with args and
// returns its stdout, stderr and exit status (0 when it exited cleanly).
func pmkvload(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.Bytes(), errOut.Bytes(), code
}

// wantRefused runs pmkvload with args and wants exit 2 with a message
// that starts "pmkvload: <flag> must ".
func wantRefused(t *testing.T, flag string, args ...string) {
	t.Helper()
	_, stderr, code := pmkvload(t, args...)
	if code != 2 {
		t.Errorf("%v: exit status %d, want 2\n%s", args, code, stderr)
		return
	}
	if want := "pmkvload: " + flag + " must "; !strings.HasPrefix(string(stderr), want) {
		t.Errorf("%v: stderr %q, want it to start %q", args, stderr, want)
	}
}

// TestBadPacingRefused: a -rate or -duration that cannot pace a run, or a
// -zipf, -get or -del that cannot shape its ops, exits 2 with a flag
// message before anything is dialed (nothing listens on the address, so a
// dial would fail with exit 1). A negative, NaN or infinite rate, one so
// high the per-connection interval truncates to 0 ns and one so low it
// overflows would otherwise run closed loop unannounced; an infinite
// -zipf hangs every connection in the key sampler, and a NaN -get or -del
// silently runs only puts.
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
		{"-zipf", "Inf"},
		{"-zipf", "NaN"},
		{"-get", "NaN"},
		{"-del", "NaN"},
	} {
		wantRefused(t, tc.flag, "-addr", "127.0.0.1:1", "-duration", "1ms", tc.flag, tc.value)
	}
}

// TestUnsendableValueRefused: a value past the wire limits exits 2 with
// a flag message before anything is dialed. The client refuses such a
// request without sending it, so a loader that dialed would count puts
// it never sent and end the run as if the server had drained.
func TestUnsendableValueRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()
	addr := ln.Addr().String()
	wantRefused(t, "-value", "-addr", addr, "-duration", "1s", "-conns", "2", "-value", "2000000")
	ln.Close()
	if n := dials.Load(); n > 0 {
		t.Errorf("a refused run dialed %d connections", n)
	}
}

// TestLoadAgainstLiveServer drives an in-process server with pmkvload
// closed loop at window 8 and paced with one op in flight, and holds
// each -json summary to its own tallies: every op counted once by kind
// and once by outcome, none failed, and a run as long as -duration
// asked for.
func TestLoadAgainstLiveServer(t *testing.T) {
	srv, err := server.New(pmkv.ShardedConfig{Shards: 2}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	const duration = time.Second
	for _, args := range [][]string{
		{"-window", "8"},
		{"-window", "1", "-rate", "400"},
	} {
		args = append(args, "-addr", ln.Addr().String(), "-conns", "2", "-duration", duration.String(), "-json")
		stdout, stderr, code := pmkvload(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit status %d\n%s", args, code, stderr)
		}
		var s Summary
		if err := json.Unmarshal(stdout, &s); err != nil {
			t.Fatalf("%v: summary %q: %v", args, stdout, err)
		}
		if s.Ops == 0 || s.Errors != 0 || s.Gets+s.Puts+s.Dels != s.Ops || s.Found+s.NotFound != s.Ops {
			t.Errorf("%v: %d ops, %d errors, %d get + %d put + %d del, %d found + %d not found",
				args, s.Ops, s.Errors, s.Gets, s.Puts, s.Dels, s.Found, s.NotFound)
		}
		if s.ElapsedSec < 0.9*duration.Seconds() {
			t.Errorf("%v: ran %.3fs of a %v run", args, s.ElapsedSec, duration)
		}
	}

	srv.BeginDrain()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if rep, err := srv.Close(); err != nil || rep.Crashed {
		t.Fatalf("drain: crashed %v, %v", rep != nil && rep.Crashed, err)
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
		"schema_version", "conns", "window", "elapsed_sec", "ops",
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
	if err := json.Unmarshal(m["schema_version"], &ver); err != nil || ver != 6 {
		t.Fatalf("schema_version = %s, want 6", m["schema_version"])
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
	s := summarize(stats, time.Second, len(stats), 32, nil, nil)
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
