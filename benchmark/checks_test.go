package main

import (
	"bytes"
	"strings"
	"testing"

	"persistbarriers/internal/machine"
)

// Every correctness check the benchmark applies is exercised here with a
// planted failure: a check that cannot fail is not a check.

const cleanDrain = `pmkvd: serving on 127.0.0.1:40001 (2 shards, 4 cores each, LB++ barrier, 64 buckets)
pmkvd: draining...
pmkvd: clean drain across 2 shards
  shard 0: clean after 100 cycles; publishes 60 durable / 60 total; 30 keys; 120 epochs persisted (p50=1 p99=2 cycles)
  shard 1: clean after 100 cycles; publishes 40 durable / 40 total; 20 keys; 80 epochs persisted (p50=1 p99=2 cycles)
  recovered keys: 50; combined fingerprint 44b11dd3db9b0313
  recovery invariants: OK
  durable linearizability: OK (150 ops, 100 publishes, 100 durable, 50 reads, 100 acked)
`

func TestDrainReportChecks(t *testing.T) {
	r := parseDrain(cleanDrain)
	if r.Publishes != 100 || r.DLAcked != 100 || r.Fingerprint != "44b11dd3db9b0313" || !r.InvariantOK || r.Cycles != 200 || r.Epochs != 200 {
		t.Fatalf("parsed %+v", r)
	}
	if bad := checkDrain(r, 100, true); len(bad) != 0 {
		t.Fatalf("clean report rejected: %v", bad)
	}
	if bad := checkDrain(parseDrain(strings.Replace(cleanDrain, "  durable linearizability", "  #", 1)), 100, false); len(bad) != 0 {
		t.Fatalf("untraced report needs no linearizability line: %v", bad)
	}
	planted := map[string]struct {
		raw    string
		acked  int64
		traced bool
		want   string
	}{
		"invariants line missing":                        {strings.Replace(cleanDrain, "recovery invariants: OK", "recovery verification FAILED", 1), 100, false, "recovery invariants"},
		"a write the client saw acked was not recovered": {cleanDrain, 101, false, "client saw 101"},
		"linearizability line missing on a traced run":   {strings.Replace(cleanDrain, "  durable linearizability", "  #", 1), 100, true, "lacks a durable linearizability"},
		"linearizability violated": {strings.Replace(cleanDrain, "OK (150 ops, 100 publishes, 100 durable, 50 reads, 100 acked)",
			"FAILED (1 violations; first: acked-lost)", 1), 100, true, "FAILED (1 violations"},
		"checker's acked count is not the client's": {strings.Replace(cleanDrain, "100 acked", "99 acked", 1), 100, true, "acked 99"},
	}
	for name, c := range planted {
		bad := checkDrain(parseDrain(c.raw), c.acked, c.traced)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), c.want) {
			t.Errorf("%s: got %v, want a complaint containing %q", name, bad, c.want)
		}
	}
}

func TestSimPassChecks(t *testing.T) {
	jobs, err := bepJobs(simSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := harnessPass(false, simSmoke, 1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if bad := passFailures(jobs, pass, pass.fp); len(bad) != 0 {
		t.Fatalf("clean pass rejected: %v", bad)
	}
	// The benchmark's restated machine configurations must be the
	// harness's: same grid, same statistics, bit for bit.
	for _, bsp := range []bool{false, true} {
		mk := bepJobs
		if bsp {
			mk = bspJobs
		}
		js, err := mk(simSmoke, 1)
		if err != nil {
			t.Fatal(err)
		}
		own, err := tracedPass(js, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := harnessPass(bsp, simSmoke, 1, js)
		if err != nil {
			t.Fatal(err)
		}
		if bad := passFailures(js, own, ref.fp); len(bad) != 0 {
			t.Errorf("bsp=%v: benchmark loop vs harness: %v", bsp, bad)
		}
	}

	planted := *pass
	planted.results = append([]*machine.Result(nil), pass.results...)
	dead := *pass.results[3]
	dead.Deadlocked, dead.Finished = true, false
	planted.results[3] = &dead
	bad := passFailures(jobs, &planted, pass.fp)
	if len(bad) != 1 || !strings.Contains(bad[0], jobs[3].key()) || !strings.Contains(bad[0], "deadlocked=true") {
		t.Errorf("planted deadlock in %s: got %v", jobs[3].key(), bad)
	}

	// One counter off by one in one job changes the fingerprint.
	skew := *pass.results[7]
	skew.PersistedLines++
	planted.results = append([]*machine.Result(nil), pass.results...)
	planted.results[7] = &skew
	planted.ops = 0
	if err := planted.seal(); err != nil {
		t.Fatal(err)
	}
	if bad := passFailures(jobs, &planted, pass.fp); len(bad) != 1 || !strings.Contains(bad[0], "differ") {
		t.Errorf("planted counter skew: got %v", bad)
	}
}

func TestRecoveryAudit(t *testing.T) {
	keys := make([]string, keySpace)
	for i, k := range keyTable() {
		keys[i] = string(k)
	}
	put := func(k, v uint32) kvOp { return kvOp{Kind: opPut, Key: k, Ver: v} }
	del := func(k uint32) kvOp { return kvOp{Kind: opDel, Key: k} }
	// Record order. The first six are acknowledged durable; the last
	// three were in the batch the crash cut off.
	writes := []kvOp{put(1, 1), put(2, 1), put(1, 2), del(2), put(3, 1), put(4, 1), put(1, 3), del(4), put(5, 1)}
	const acked = 6
	state := func(kv map[uint32]uint32) map[string][]byte {
		m := map[string][]byte{}
		for k, v := range kv {
			m[keys[k]] = appendValue(nil, k, v)
		}
		return m
	}
	ok := []map[uint32]uint32{
		{1: 2, 3: 1, 4: 1},       // exactly the acknowledged prefix
		{1: 3, 3: 1, 5: 1},       // the whole unacknowledged batch landed too
		{1: 2, 3: 1, 4: 1, 5: 1}, // part of it did
	}
	for i, kv := range ok {
		if bad, msgs := auditRecovery(writes, acked, state(kv), keys); bad != 0 {
			t.Errorf("legal recovery %d rejected: %v", i, msgs)
		}
	}
	planted := map[string]map[uint32]uint32{
		"an acknowledged key is missing":          {1: 2, 4: 1},
		"an acknowledged version was rolled back": {1: 1, 3: 1, 4: 1},
		"an acknowledged delete was undone":       {1: 2, 2: 1, 3: 1, 4: 1},
		"a version nobody issued":                 {1: 9, 3: 1, 4: 1},
		"a key nobody wrote":                      {1: 2, 3: 1, 4: 1, 77: 1},
	}
	for name, kv := range planted {
		if bad, _ := auditRecovery(writes, acked, state(kv), keys); bad == 0 {
			t.Errorf("audit accepted a recovery where %s", name)
		}
	}
	swapped := state(map[uint32]uint32{1: 2, 3: 1, 4: 1})
	swapped[keys[3]] = appendValue(nil, 4, 1)
	if bad, msgs := auditRecovery(writes, acked, swapped, keys); bad == 0 || !strings.Contains(strings.Join(msgs, "\n"), "belongs to key 4") {
		t.Errorf("audit accepted another key's value: %v", msgs)
	}
}

func TestFingerprintMismatch(t *testing.T) {
	plain := map[string]string{"sim_stats": "aaaa", "recovery": "bbbb"}
	if bad := fingerprintMismatches(plain, map[string]string{"sim_stats": "aaaa", "recovery": "bbbb"}); len(bad) != 0 {
		t.Fatalf("equal fingerprints rejected: %v", bad)
	}
	if bad := fingerprintMismatches(plain, map[string]string{"sim_stats": "aaaa", "recovery": "cccc"}); len(bad) != 1 || !strings.Contains(bad[0], "recovery") {
		t.Errorf("planted recovery mismatch: got %v", bad)
	}
	if bad := fingerprintMismatches(plain, map[string]string{"recovery": "bbbb"}); len(bad) != 1 {
		t.Errorf("a fingerprint missing from the traced run: got %v", bad)
	}
}

func TestMetricSetRejectsStrayAndNaN(t *testing.T) {
	if _, err := (metricSet{"setup_s": 1, "not_a_metric": 2}).finish(endToEnd); err == nil {
		t.Error("a metric outside the registry was accepted")
	}
	nan := metricSet{"setup_s": 0}
	nan["rss_mb"] = nan["setup_s"] / nan["setup_s"]
	if _, err := nan.finish(endToEnd); err == nil {
		t.Error("NaN was accepted")
	}
	vals, err := (metricSet{"setup_s": 1.5}).finish(endToEnd)
	if err != nil || len(vals) != len(endToEnd) || vals["setup_s"].Unit != "s" || vals["rss_mb"].Value != 0 {
		t.Errorf("finish: %v %v", vals, err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	thr := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		def         metricDef
		a, b, noise float64
		want        verdict
	}{
		{thr, 100, 95, 0, vSame},
		{thr, 100, 85, 0, vWorse},
		{thr, 100, 120, 0, vBetter},
		{thr, 100, 85, 0.2, vUnresolved}, // the gap is inside the runs' own spread
		{thr, 100, 98, 0.2, vUnresolved}, // spread alone exceeds the bound
		{lat, 100, 115, 0, vWorse},
		{lat, 100, 80, 0, vBetter},
		{lat, 100, 105, 0.05, vSame},
		{lat, 0, 0, 0, vSame},
	} {
		if got, _ := judge(c.def, c.a, c.b, c.noise); got != c.want {
			t.Errorf("%s %g -> %g (noise %g): %s, want %s", c.def.Name, c.a, c.b, c.noise, got, c.want)
		}
	}

	mk := func(ops float64, fp string) *resultsFile {
		rf := &resultsFile{Seed: 1, Seconds: 10, Workloads: map[string]workloadResults{}}
		for _, w := range workloads {
			e2e, host := map[string]metricValue{}, map[string]metricValue{}
			for _, d := range endToEnd {
				e2e[d.Name] = metricValue{Value: 100, Unit: d.Unit}
			}
			for _, d := range hostTime {
				host[d.Name] = metricValue{Value: 100, Unit: d.Unit}
			}
			host["ops_per_s"] = metricValue{Value: ops, Unit: "1/s"}
			rf.Workloads[w.Name] = workloadResults{Correct: true, EndToEnd: e2e, HostTime: host, Fingerprints: map[string]string{"sim_stats": fp}}
		}
		return rf
	}
	var buf bytes.Buffer
	if n := compareResults(&buf, mk(1000, "aa"), mk(1010, "aa")); n != 0 {
		t.Errorf("A/A-like pair: %d worse rows\n%s", n, buf.String())
	}
	buf.Reset()
	if n := compareResults(&buf, mk(1000, "aa"), mk(600, "bb")); n != len(workloads) {
		t.Errorf("throughput down 40%% everywhere: %d worse rows, want %d", n, len(workloads))
	}
	if !strings.Contains(buf.String(), string(vDiffers)) {
		t.Error("differing fingerprints of a deterministic workload were not reported")
	}
	// A simulated metric 1 % worse: inside its bound on a live server,
	// a regression on the deterministic workloads at equal seeds, and inside
	// its bound there too once the seeds differ.
	slower := mk(1000, "aa")
	for _, wr := range slower.Workloads {
		wr.EndToEnd["sim_cycles_per_op"] = metricValue{Value: 101, Unit: "cycles"}
	}
	exactWorkloads := 0
	for _, w := range workloads {
		if w.exact {
			exactWorkloads++
		}
	}
	if n := compareResults(&buf, mk(1000, "aa"), slower); n != exactWorkloads {
		t.Errorf("simulated cycles up 1%% at one seed: %d worse rows, want %d", n, exactWorkloads)
	}
	slower.Seed = 2
	if n := compareResults(&buf, mk(1000, "aa"), slower); n != 0 {
		t.Errorf("simulated cycles up 1%% across seeds: %d worse rows, want 0", n)
	}
	broken := mk(1000, "aa")
	w := broken.Workloads["kv-read"]
	w.Correct = false
	broken.Workloads["kv-read"] = w
	if n := compareResults(&buf, mk(1000, "aa"), broken); n != 1 {
		t.Errorf("an incorrect workload must count as worse, got %d", n)
	}
}
