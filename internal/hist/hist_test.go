package hist

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestLayout(t *testing.T) {
	// Values below 16 are exact; above, a bucket is at most an eighth of
	// its lower bound wide, bounds tile the range, and every value lands
	// in the bucket whose bounds hold it.
	for v := uint64(0); v < 16; v++ {
		if b := bucket(v); Upper(b) != v {
			t.Fatalf("value %d: bucket %d upper %d, want exact", v, b, Upper(b))
		}
	}
	for b := 1; b < Buckets; b++ {
		lo, hi := Upper(b-1)+1, Upper(b)
		if hi < lo {
			t.Fatalf("bucket %d: bounds [%d, %d] not increasing", b, lo, hi)
		}
		if bucket(lo) != b || bucket(hi) != b {
			t.Fatalf("bucket %d: bounds [%d, %d] map to %d and %d", b, lo, hi, bucket(lo), bucket(hi))
		}
		if width := hi - lo + 1; width > 1 && width*8 > lo {
			t.Fatalf("bucket %d: width %d exceeds 12.5%% of %d", b, width, lo)
		}
	}
	if got := bucket(math.MaxUint64); got != Buckets-1 {
		t.Fatalf("bucket(max) = %d, want the last bucket", got)
	}
}

// oracle is the nearest-rank percentile of an exact sample, in integer
// arithmetic: permille avoids the float product Percentile computes.
func oracle(sorted []uint64, permille int) uint64 {
	rank := (len(sorted)*permille + 999) / 1000
	return sorted[max(rank, 1)-1]
}

// TestPercentileNearestRank holds Percentile to the sorted-slice oracle
// at the sample counts where rank rules differ. Each row's sample is a
// staircase with one distinct value at the oracle's rank, so an answer
// one rank off in either direction lands in a different bucket. The two
// histograms this one replaced ranked by floor(n*p/100), which reports
// the maximum for n=100/p=99 and for n=2/p=50.
func TestPercentileNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, 101, 1000} {
		for _, permille := range []int{500, 900, 990, 999} {
			rank := (n*permille + 999) / 1000
			var h Hist
			sorted := make([]uint64, n)
			for i := range sorted {
				switch {
				case i < rank-1:
					sorted[i] = 10
				case i == rank-1:
					sorted[i] = 100
				default:
					sorted[i] = 1000
				}
				h.Observe(sorted[i])
			}
			want := Upper(bucket(oracle(sorted, permille)))
			if got := h.Percentile(float64(permille) / 10); got != want {
				t.Errorf("n=%d p=%g: got %d, want %d", n, float64(permille)/10, got, want)
			}
		}
	}
	var two Hist
	two.Observe(3)
	two.Observe(9)
	if p0, p50, p100 := two.Percentile(0), two.Percentile(50), two.Percentile(100); p0 != 3 || p50 != 3 || p100 != 9 {
		t.Fatalf("n=2: p0/p50/p100 = %d/%d/%d, want 3/3/9", p0, p50, p100)
	}
	var empty Hist
	if empty.Percentile(50) != 0 || empty.Mean() != 0 || empty.Total() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

// TestResolution: every percentile of 10^5 log-uniform samples is within
// one sub-bucket of the exact sample, and a 1.6 ms and a 1.9 ms latency
// (in microseconds) no longer share a bucket — the one-octave layout
// printed 2048 for both.
func TestResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Hist
	samples := make([]uint64, 100_000)
	for i := range samples {
		samples[i] = uint64(math.Exp(rng.Float64() * math.Log(1e9)))
		h.Observe(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, permille := range []int{10, 250, 500, 900, 990, 999, 1000} {
		exact := oracle(samples, permille)
		got := h.Percentile(float64(permille) / 10)
		if got < exact || float64(got-exact) > 0.125*float64(exact) {
			t.Errorf("p%g: got %d for exact %d, more than 12.5%% off", float64(permille)/10, got, exact)
		}
	}
	if bucket(1600) == bucket(1900) {
		t.Fatalf("1600 and 1900 share bucket %d", bucket(1600))
	}
}

func TestMergeExact(t *testing.T) {
	var a, b, both Hist
	for v := uint64(0); v < 5000; v += 7 {
		a.Observe(v)
		both.Observe(v)
	}
	for v := uint64(3); v < 1<<40; v *= 3 {
		b.Observe(v)
		both.Observe(v)
	}
	a.Merge(&b)
	if a != both {
		t.Fatal("merge differs from observing the union")
	}
	if a.Mean() != float64(both.Sum)/float64(both.Total()) {
		t.Fatalf("mean %g not sum/total", a.Mean())
	}
}

func TestJSONTrimmedRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 5, 5, 20, 300} {
		h.Observe(v)
	}
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var w wire
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	if len(w.Counts) != bucket(300)+1 {
		t.Fatalf("wire form carries %d counts, want %d (trimmed past the last sample): %s", len(w.Counts), bucket(300)+1, raw)
	}
	var back Hist
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatal("round trip lost counts or sum")
	}
	// Embedded with omitzero, an empty histogram costs nothing.
	type carrier struct {
		H Hist `json:"h,omitzero"`
	}
	if raw, _ := json.Marshal(carrier{}); string(raw) != "{}" {
		t.Fatalf("empty histogram not omitted: %s", raw)
	}
	// Counts past the layout fold into the last bucket.
	long := wire{Counts: make([]uint64, Buckets+4)}
	long.Counts[Buckets+3] = 2
	raw, _ = json.Marshal(long)
	if err := json.Unmarshal(raw, &back); err != nil || back.Counts[Buckets-1] != 2 {
		t.Fatalf("overflow counts not folded: %v %d", err, back.Counts[Buckets-1])
	}
}

func TestAtomicObserveZeroAlloc(t *testing.T) {
	var a Atomic
	v := uint64(1)
	if n := testing.AllocsPerRun(1000, func() { a.Observe(v); v += 977 }); n != 0 {
		t.Fatalf("Atomic.Observe allocates %v times per call, want 0", n)
	}
}

// TestAtomicConcurrent runs writers against snapshots (for -race) and
// checks nothing is lost once the writers are done.
func TestAtomicConcurrent(t *testing.T) {
	const writers, each = 4, 5000
	var a Atomic
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.Observe(uint64(w*each + i))
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		if s := a.Snapshot(); s.Total() > writers*each {
			t.Errorf("snapshot counts %d samples, more than were written", s.Total())
		}
	}
	wg.Wait()
	s := a.Snapshot()
	n := uint64(writers * each)
	if s.Total() != n || s.Sum != n*(n-1)/2 {
		t.Fatalf("after %d observes: total %d, sum %d", n, s.Total(), s.Sum)
	}
}
