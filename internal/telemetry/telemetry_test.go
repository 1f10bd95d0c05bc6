package telemetry

import (
	"fmt"
	"strings"
	"testing"

	"persistbarriers/internal/hist"
)

// span with deterministic stamps: stage i at base + sum of the first i
// gaps (ns).
func stampedSpan(base int64, gaps [NumSegments]int64) *Span {
	sp := &Span{}
	sp.Reset()
	t := base
	sp.Wall[0] = t
	for i := 0; i < NumSegments; i++ {
		t += gaps[i]
		sp.Wall[i+1] = t
	}
	return sp
}

func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	sp.Reset()
	sp.Stamp(StageConnRead)
	sp.StampAt(StageDurable, 42)
	var tr *Tracer
	tr.Complete(0, &Span{}, Meta{})
	if tr.Enabled() || tr.Shards() != 0 || tr.StageSummary() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestCompleteFoldsSegments(t *testing.T) {
	tr := New(2)
	gaps := [NumSegments]int64{100, 200, 400, 800, 1600, 3200, 6400}
	tr.Complete(1, stampedSpan(1000, gaps), Meta{Op: "put", Sess: 3, Key: "k1", Durable: 7, OK: true})

	for seg := 0; seg < NumSegments; seg++ {
		var want hist.Hist
		want.Observe(uint64(gaps[seg]))
		if h := tr.shards[1].segs[seg].Snapshot(); h != want {
			t.Fatalf("seg %d: total %d sum %d, want the one sample %d", seg, h.Total(), h.Sum, gaps[seg])
		}
	}
	// Shard 0 untouched.
	if h := tr.shards[0].segs[0].Snapshot(); h.Total() != 0 {
		t.Fatalf("shard 0 polluted: %d samples", h.Total())
	}
	if tr.shards[1].rec.Len() != 1 || tr.shards[0].rec.Len() != 0 {
		t.Fatalf("ops = %d/%d", tr.shards[0].rec.Len(), tr.shards[1].rec.Len())
	}
}

func TestCompleteSkipsUnstampedSegments(t *testing.T) {
	tr := New(1)
	sp := &Span{}
	sp.Reset()
	sp.Wall[StageConnRead] = 100
	sp.Wall[StageShardRoute] = 150
	// Enqueue never stamped: segments enqueue(1) and queue_wait(2) skipped.
	sp.Wall[StageDequeue] = 500
	sp.Wall[StageTranslate] = 700
	tr.Complete(0, sp, Meta{})
	for seg, want := range []struct{ n, sum uint64 }{{1, 50}, {0, 0}, {0, 0}, {1, 200}} {
		if h := tr.shards[0].segs[seg].Snapshot(); h.Total() != want.n || h.Sum != want.sum {
			t.Fatalf("%s: %d samples summing to %d, want %d and %d", segmentNames[seg], h.Total(), h.Sum, want.n, want.sum)
		}
	}
}

// TestStampFoldZeroAlloc is the hot-path guard the tentpole demands:
// stamping all eight stages and folding the span (histograms + flight
// recorder) must not allocate.
func TestStampFoldZeroAlloc(t *testing.T) {
	tr := New(1)
	sp := &Span{}
	key := "k000123"
	n := testing.AllocsPerRun(1000, func() {
		sp.Reset()
		for st := Stage(0); st < NumStages; st++ {
			sp.Stamp(st)
		}
		sp.StampAt(StageDurable, 12345)
		tr.Complete(0, sp, Meta{Op: "put", Sess: 2, Key: key, Durable: 9, OK: true})
	})
	if n != 0 {
		t.Fatalf("stamp+fold allocates %v times per op, want 0", n)
	}
}

// TestDisabledPathZeroAlloc: the nil-tracer/nil-span path must cost no
// allocations either (it is the default-server configuration).
func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	var sp *Span
	n := testing.AllocsPerRun(1000, func() {
		sp.Reset()
		for st := Stage(0); st < NumStages; st++ {
			sp.Stamp(st)
		}
		tr.Complete(0, sp, Meta{Op: "put"})
	})
	if n != 0 {
		t.Fatalf("disabled path allocates %v times per op, want 0", n)
	}
}

// TestHistBucketBounds: the exposition keeps one power-of-two le bound
// per octave however fine the layout underneath is, each carrying the
// exact cumulative count of the sub-buckets below it, and nothing past
// the octave of the largest sample.
func TestHistBucketBounds(t *testing.T) {
	var h hist.Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000, 1023, 1024} {
		h.Observe(v)
	}
	out := string(AppendHistogram(nil, "m", "", h, 1))
	var bounds []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, `m_bucket{le="`); ok {
			bounds = append(bounds, strings.Replace(rest, `"}`, "", 1))
		}
	}
	want := "0 1|1 2|3 4|7 5|15 5|31 5|63 5|127 5|255 5|511 5|1023 7|2047 8|+Inf 8"
	if got := strings.Join(bounds, "|"); got != want {
		t.Fatalf("bucket lines:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(out, "m_sum 3057\nm_count 8\n") {
		t.Fatalf("sum and count are not exact:\n%s", out)
	}
}

func TestStageSummaryMergesShards(t *testing.T) {
	tr := New(2)
	fast := [NumSegments]int64{1000, 1000, 1000, 1000, 1000, 1000, 1000}
	slow := [NumSegments]int64{900000, 900000, 900000, 900000, 900000, 900000, 900000}
	for i := 0; i < 9; i++ {
		tr.Complete(0, stampedSpan(int64(1000*i+1), fast), Meta{})
	}
	tr.Complete(1, stampedSpan(5000, slow), Meta{})

	sum := tr.StageSummary()
	if len(sum) != NumSegments+2 {
		t.Fatalf("summary len = %d, want %d segments + 2 read-path rows", len(sum), NumSegments)
	}
	if sum[NumSegments].Stage != ReadFastStage || sum[NumSegments+1].Stage != ReadFallbackStage {
		t.Fatalf("trailing rows = %q, %q", sum[NumSegments].Stage, sum[NumSegments+1].Stage)
	}
	for _, s := range sum[:NumSegments] {
		if s.Count != 10 {
			t.Fatalf("%s count = %d", s.Stage, s.Count)
		}
		// p50 pools both shards: the fast samples dominate.
		if s.P50US > 2 {
			t.Fatalf("%s p50 = %g us, want ~1", s.Stage, s.P50US)
		}
		// p99 lands in the slow shard's bucket (900000ns, reported as its
		// bucket's upper bound 917503ns).
		if s.P99US < 500 {
			t.Fatalf("%s p99 = %g us, want the slow sample", s.Stage, s.P99US)
		}
	}
	per := tr.ShardStageSummary(0)
	if per[0].Count != 9 {
		t.Fatalf("shard 0 count = %d", per[0].Count)
	}
	if names := []string{per[0].Stage, per[6].Stage}; names[0] != "route" || names[1] != "ack_write" {
		t.Fatalf("segment names wrong: %v", names)
	}
}

func TestSegmentNameVocabulary(t *testing.T) {
	want := []string{"route", "enqueue", "queue_wait", "translate", "retire", "durable_wait", "ack_write"}
	if got := segmentNames[:]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("segment names = %q, want %q", got, want)
	}
}
