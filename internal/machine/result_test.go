package machine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/noc"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

func TestConflictCountsIDTResolved(t *testing.T) {
	cases := []struct {
		name string
		c    ConflictCounts
		want uint64
	}{
		{"no IDT", ConflictCounts{Inter: 7}, 7},
		{"some fallbacks", ConflictCounts{Inter: 7, IDTFallbacks: 2}, 5},
		{"all fallbacks", ConflictCounts{Inter: 4, IDTFallbacks: 4}, 0},
		{"clamped", ConflictCounts{Inter: 1, IDTFallbacks: 3}, 0},
		{"zero", ConflictCounts{}, 0},
	}
	for _, tc := range cases {
		if got := tc.c.IDTResolved(); got != tc.want {
			t.Errorf("%s: IDTResolved = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestConflictingFraction(t *testing.T) {
	e := EpochAggregate{Persisted: 8, Conflicting: 2}
	if got := e.ConflictingFraction(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("ConflictingFraction = %v, want 0.25", got)
	}
	if got := (EpochAggregate{}).ConflictingFraction(); got != 0 {
		t.Errorf("empty ConflictingFraction = %v, want 0", got)
	}
}

func TestResultThroughput(t *testing.T) {
	r := &Result{Counters: Counters{Transactions: 50}, ExecCycles: 10000}
	if got := r.Throughput(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Throughput = %v, want 5 per kilocycle", got)
	}
	if got := (&Result{Counters: Counters{Transactions: 50}}).Throughput(); got != 0 {
		t.Errorf("zero-cycle Throughput = %v, want 0", got)
	}
}

// TestResultStallTotal: after a real run, each cause's stall total is
// the sum of the per-core stalls.
func TestResultStallTotal(t *testing.T) {
	queue, err := workload.Queue(workload.Spec{Threads: 4, OpsPerThread: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(lbStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(queue); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.StallTotal(StallWriteBuffer) == 0 {
		t.Fatal("run too tame: no write-buffer stalls")
	}
	for cause := range r.Stalls {
		var sum sim.Cycle
		for i := range r.Cores {
			sum += r.Cores[i].Stalls[cause]
		}
		if got := r.StallTotal(StallCause(cause)); got != sum {
			t.Errorf("StallTotal(%s) = %d, cores sum to %d", StallCause(cause), got, sum)
		}
	}
}

// TestCountersMatchResult: a Result's counters are the machine's reading
// at the instant it was taken, after Run and at Snapshot — at the
// machine's clock, with one latency sample per persisted epoch.
func TestCountersMatchResult(t *testing.T) {
	check := func(t *testing.T, m *Machine, r *Result) {
		t.Helper()
		got := m.Counters()
		if got.Cycle != m.Now() {
			t.Errorf("Cycle = %d, want the clock %d", got.Cycle, m.Now())
		}
		if n := got.PersistLatency.Total(); n != r.Epochs.Persisted || n == 0 {
			t.Errorf("%d latency samples for %d persisted epochs", n, r.Epochs.Persisted)
		}
		if r.Counters != got {
			t.Errorf("Counters differ from the Result's:\n got %+v\nwant %+v", got, r.Counters)
		}
	}
	spec := workload.Spec{Threads: 4, OpsPerThread: 40, Seed: 3}
	queue, err := workload.Queue(spec)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("queue LB++ Run", func(t *testing.T) {
		m, err := New(lbStreamConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(queue); err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil || !r.Finished {
			t.Fatalf("run: %v, finished %v", err, r.Finished)
		}
		if r.Conflicts.Intra+r.Conflicts.Inter+r.Conflicts.Eviction == 0 || r.StallTotal(StallWriteBuffer) == 0 {
			t.Fatalf("workload too tame to tell counters apart: %+v", r.Conflicts)
		}
		check(t, m, r)
	})

	t.Run("ssca2 bulk logging Run", func(t *testing.T) {
		cfg := lbStreamConfig()
		cfg.BulkEpochStores, cfg.Logging, cfg.CheckpointLines = 8, true, 4
		p, err := workload.Apps()["ssca2"].Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil || !r.Finished {
			t.Fatalf("run: %v, finished %v", err, r.Finished)
		}
		if r.LogWrites == 0 || r.Epochs.ByAdvance[epoch.HardwareAdvance] == 0 {
			t.Fatalf("not a bulk logging run: %d log writes, advances %v", r.LogWrites, r.Epochs.ByAdvance)
		}
		check(t, m, r)
	})

	t.Run("queue LB++ stream Snapshot and Drain", func(t *testing.T) {
		m, err := New(lbStreamConfig())
		if err != nil {
			t.Fatal(err)
		}
		for core, ops := range queue.Traces {
			if err := m.Feed(core, ops); err != nil {
				t.Fatal(err)
			}
		}
		if m.PumpUntilIdle(5_000) {
			t.Fatal("the whole trace retired before the mid-run snapshot")
		}
		check(t, m, m.Snapshot())
		if !m.PumpUntilIdle(sim.MaxCycle) {
			t.Fatal("machine did not go idle")
		}
		r, err := m.Run()
		if err != nil || !r.Finished {
			t.Fatalf("drain: %v, finished %v", err, r.Finished)
		}
		check(t, m, r)
	})
}

// TestRunEveryWindows: a windowed run is Run cut into slices. At windows
// of 1, 97 and 5 000 cycles, on an LB++ micro run, a bulk BSP run with
// logging and Figure 5(a)'s deadlock, RunEvery's Result has Run's
// fingerprint, it reads the counters ⌊last event cycle / window⌋ + 1
// times, no sample ever falls between readings, and the per-window
// differences sum to the final counters.
func TestRunEveryWindows(t *testing.T) {
	spec := workload.Spec{Threads: 4, OpsPerThread: 40, Seed: 3}
	queue, err := workload.Queue(spec)
	if err != nil {
		t.Fatal(err)
	}
	ssca2, err := workload.Apps()["ssca2"].Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	bulk := lbStreamConfig()
	bulk.BulkEpochStores, bulk.Logging, bulk.CheckpointLines = 8, true, 4
	var t0, t1 trace.Builder
	t0.Store(0).Compute(100).Load(64).Store(128)
	t1.Store(64).Compute(100).Load(0).Store(192)
	deadlock := testConfig(LB)
	deadlock.IDT, deadlock.EnableSplit = true, false
	cases := []struct {
		name string
		cfg  Config
		p    *trace.Program
	}{
		{"queue LB++", lbStreamConfig(), queue},
		{"ssca2 bulk logging", bulk, ssca2},
		{"deadlock without split", deadlock, &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}},
	}
	load := func(t *testing.T, cfg Config, p *trace.Program) *Machine {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range cases {
		m := load(t, tc.cfg, tc.p)
		ref, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		last := m.Now()
		for _, window := range []sim.Cycle{1, 97, 5000} {
			t.Run(fmt.Sprintf("%s/window=%d", tc.name, window), func(t *testing.T) {
				m := load(t, tc.cfg, tc.p)
				var prev Counters
				sums := make([][]uint64, len(Families))
				reads := 0
				r, err := m.RunEvery(window, func(c Counters) {
					reads++
					for i, f := range Families {
						was := f.Samples(&prev)
						for j, s := range f.Samples(&c) {
							if s.Value < was[j].Value {
								t.Fatalf("reading %d: %s %q fell %d -> %d", reads, f.Name, s.Label, was[j].Value, s.Value)
							}
							if j == len(sums[i]) {
								sums[i] = append(sums[i], 0)
							}
							sums[i][j] += s.Value - was[j].Value
						}
					}
					prev = c
				})
				if err != nil {
					t.Fatal(err)
				}
				if r.Deadlocked != ref.Deadlocked || stats.MustFingerprint(r) != stats.MustFingerprint(ref) {
					t.Fatalf("RunEvery's Result differs from Run's (deadlocked %v, Run's %v)", r.Deadlocked, ref.Deadlocked)
				}
				if want := int(last/window) + 1; reads != want {
					t.Errorf("%d readings for a last event at cycle %d, want %d", reads, last, want)
				}
				final := m.Counters()
				if prev != final || final.Cycle != last {
					t.Errorf("last reading at cycle %d is not the final counters at cycle %d (last event %d)", prev.Cycle, final.Cycle, last)
				}
				for i, f := range Families {
					for j, s := range f.Samples(&final) {
						if sums[i][j] != s.Value {
							t.Errorf("%s %q: windows sum to %d, final %d", f.Name, s.Label, sums[i][j], s.Value)
						}
					}
				}
			})
		}
	}
}

// TestCountersAdd: pooling per-machine readings is exact. Adding to a
// zero reading copies, and percentiles of the merged latency histogram
// are true percentiles of the union — a shard with many fast samples
// pulls the pooled p50 down to its bucket, which an elementwise rule
// over per-shard percentiles could not represent.
func TestCountersAdd(t *testing.T) {
	var a, b Counters
	for i := 0; i < 90; i++ {
		a.PersistLatency.Observe(10) // exact
	}
	for i := 0; i < 10; i++ {
		b.PersistLatency.Observe(1000) // bucket [960, 1023]
	}
	a.Cycle, a.Transactions, a.Epochs.Persisted, a.Stalls[StallWriteBuffer] = 100, 5, 3, 40
	a.NoC = noc.Stats{Messages: 30, Flits: 60, AvgHops: 2}

	var sum Counters
	sum.Add(&a)
	if sum != a {
		t.Fatalf("zero + a = %+v, want a", sum)
	}
	sum.Add(&b)
	h := sum.PersistLatency
	if h.Total() != 100 || h.Sum != 90*10+10*1000 {
		t.Fatalf("merged histogram holds %d samples summing to %d", h.Total(), h.Sum)
	}
	// 90 % of the samples are fast, so pooled p50 and p90 sit in the fast
	// bucket and only p99 reaches the slow one.
	if p50, p90, p99 := h.Percentile(50), h.Percentile(90), h.Percentile(99); p50 != 10 || p90 != 10 || p99 != 1023 {
		t.Errorf("pooled p50/p90/p99 = %d/%d/%d, want 10/10/1023", p50, p90, p99)
	}
}

// TestCountersAddCoversEveryField: Add folds in every count Counters
// carries. Every numeric field of two readings, found by reflection so a
// field added later is covered too, gets a value of its own; the pooled
// reading must hold each field's sum — the latency histogram's buckets
// and sum included, which is its exact merge — except Cycle, the
// furthest clock, and NoC.AvgHops, the message-weighted mean.
func TestCountersAddCoversEveryField(t *testing.T) {
	var a, b Counters
	la, lb := numericLeaves(t, &a), numericLeaves(t, &b)
	for i := range la {
		setLeaf(la[i].v, uint64(i+1))
		setLeaf(lb[i].v, uint64(len(la)+2*i+1))
	}
	sum := a
	sum.Add(&b)
	for i, l := range numericLeaves(t, &sum) {
		x, y := leafValue(la[i].v), leafValue(lb[i].v)
		want := x + y
		switch l.path {
		case "Cycle":
			want = max(x, y)
		case "NoC.AvgHops":
			want = (x*float64(a.NoC.Messages) + y*float64(b.NoC.Messages)) / float64(a.NoC.Messages+b.NoC.Messages)
		}
		if got := leafValue(l.v); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: %v + %v pooled to %v, want %v", l.path, x, y, got, want)
		}
	}
	t.Logf("%d numeric fields pooled", len(la))
}

type leaf struct {
	path string
	v    reflect.Value
}

// numericLeaves lists c's numeric fields, array elements included, in
// declaration order; any other kind of field fails the test, so a new
// one must be given a pooling rule here first.
func numericLeaves(t *testing.T, c *Counters) []leaf {
	t.Helper()
	var out []leaf
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(name, v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Uint64, reflect.Float64:
			out = append(out, leaf{path, v})
		default:
			t.Fatalf("Counters field %s is a %s: give it a pooling rule", path, v.Kind())
		}
	}
	walk("", reflect.ValueOf(c).Elem())
	return out
}

func setLeaf(v reflect.Value, n uint64) {
	if v.Kind() == reflect.Float64 {
		v.SetFloat(float64(n))
		return
	}
	v.SetUint(n)
}

func leafValue(v reflect.Value) float64 {
	if v.Kind() == reflect.Float64 {
		return v.Float()
	}
	return float64(v.Uint())
}
