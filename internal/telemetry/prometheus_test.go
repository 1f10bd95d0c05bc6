package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden metrics file")

// deterministicTracer builds a 2-shard tracer with fixed observations so
// the exposition is byte-stable.
func deterministicTracer() *Tracer {
	tr := New(2)
	gapsA := [NumSegments]int64{500, 1000, 250000, 4000, 90000, 1500000, 12000}
	gapsB := [NumSegments]int64{700, 900, 180000, 5000, 110000, 2100000, 9000}
	for i := 0; i < 3; i++ {
		tr.Complete(0, stampedSpan(int64(10000*i+1), gapsA), Meta{Op: "put", Sess: i, Key: "k0", Durable: i, OK: true})
	}
	tr.Complete(1, stampedSpan(777, gapsB), Meta{Op: "get", Sess: 9, Key: "k1", OK: true})
	return tr
}

// TestMetricsGolden pins the Prometheus text format byte-for-byte: the
// smoke test scrapes this exposition live, so format drift must be loud.
func TestMetricsGolden(t *testing.T) {
	buf := bytes.NewBuffer(deterministicTracer().AppendStageMetrics(nil))
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden file %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}

func TestMetricsValidate(t *testing.T) {
	exposition := deterministicTracer().AppendStageMetrics(nil)
	if err := ValidateExposition(exposition); err != nil {
		t.Fatalf("own exposition does not validate: %v", err)
	}
	// Spot-check shape: headers, a bucket line, +Inf, count.
	out := string(exposition)
	for _, want := range []string{
		"# TYPE pmkv_stage_duration_seconds histogram",
		`pmkv_stage_duration_seconds_bucket{shard="0",stage="route",le="+Inf"} 3`,
		`pmkv_stage_duration_seconds_count{shard="0",stage="route"} 3`,
		`pmkv_stage_ops_total{shard="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage value", "pmkv_x{a=\"1\"} notanumber\n"},
		{"bad name", "9bad_name 1\n"},
		{"unbalanced braces", "pmkv_x{a=\"1\" 2\n"},
		{"decreasing cumulative", "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"inf/count mismatch", "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
		{"nonincreasing le", "# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"},
	}
	for _, c := range cases {
		if err := ValidateExposition([]byte(c.data)); err == nil {
			t.Fatalf("%s: validated, want error", c.name)
		}
	}
	// And a well-formed non-histogram sample plus comments pass.
	ok := "# HELP g a gauge\n# TYPE g gauge\ng{shard=\"0\"} 1.5\nplain_counter 7\n\n"
	if err := ValidateExposition([]byte(ok)); err != nil {
		t.Fatalf("well-formed exposition rejected: %v", err)
	}
}

// noFlush is an epoch.FlushDriver for epochs that never need a flush.
type noFlush struct{}

func (noFlush) FlushEpoch(*epoch.Record, func()) { panic("flush of an epoch with nothing pending") }

// TestPersistLatencySumExact persists epochs at known latencies through an
// epoch.Table — where the machine's persist-latency histogram is filled —
// and renders it the way the server's /metrics does: _sum / _count must be
// their arithmetic mean exactly (an earlier histogram kept no sum, and the
// exposition made one up from bucket upper bounds), and the octave bounds
// must still validate with sub-buckets summed into them.
func TestPersistLatencySumExact(t *testing.T) {
	eng := sim.NewEngine()
	tbl, err := epoch.NewTable(0, epoch.DefaultConfig(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	arb, err := epoch.NewArbiter(eng, tbl, noFlush{})
	if err != nil {
		t.Fatal(err)
	}
	lats := []sim.Cycle{9, 10, 11, 100, 1030, 1900}
	var sum float64
	for i, lat := range lats {
		// The epoch completes at t0 with nothing pending, so the first Kick
		// after that — lat cycles later — finds it durable.
		t0 := sim.Cycle(10_000 * i)
		eng.At(t0, func() { tbl.Advance(t0, epoch.BarrierAdvance) })
		eng.At(t0+lat, arb.Kick)
		sum += float64(lat)
	}
	eng.Run()
	const name = "pmkv_persist_latency_cycles"
	out := AppendMetricHeader(nil, name, "histogram", "help")
	out = AppendHistogram(out, name, `shard="0"`, tbl.Stats().PersistLatency, 1)
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("cycle histogram invalid: %v", err)
	}
	values := make(map[string]float64)
	for _, line := range strings.Split(string(out), "\n") {
		if sample, _, value, err := parseSample(line); err == nil {
			values[sample] = value
		}
	}
	if got := values[name+"_sum"] / values[name+"_count"]; got != sum/float64(len(lats)) {
		t.Fatalf("_sum/_count = %g, want the exact mean %g", got, sum/float64(len(lats)))
	}
	for _, want := range []string{
		name + `_bucket{shard="0",le="15"} 3`,
		name + `_bucket{shard="0",le="127"} 4`,
		name + `_bucket{shard="0",le="2047"} 6`,
		name + `_bucket{shard="0",le="+Inf"} 6`,
	} {
		if !strings.Contains(string(out), want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
