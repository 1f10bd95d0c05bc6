// Hist is the power-of-two latency histogram shared by the Collector and
// AggregateServiceStats: bucket b counts values v with bits.Len64(v) ==
// b, so bucket 0 holds exactly 0 and bucket b>0 holds [2^(b-1), 2^b-1].
// Folding a sample is one increment (no sample retention, no sorting),
// and merging shard histograms is exact — bucket counts just add — which
// is what lets the aggregate view report true pooled percentiles instead
// of an elementwise worst case.
package obs

import "math/bits"

// HistBuckets bounds representable values at 2^47-1 (~10 minutes of
// simulated time at one cycle per unit; far beyond any persist latency).
const HistBuckets = 48

// Hist is a fixed-size pow-2 histogram. The zero value is empty and
// ready to use. Not safe for concurrent use; the Collector guards it
// with its mutex.
type Hist struct {
	Counts [HistBuckets]uint64
}

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// HistBucketUpper reports bucket b's inclusive upper bound (0 for
// bucket 0). The last bucket is unbounded but reports its nominal bound.
func HistBucketUpper(b int) uint64 {
	if b <= 0 {
		return 0
	}
	return 1<<uint(b) - 1
}

// Observe folds one value in.
func (h *Hist) Observe(v uint64) { h.Counts[histBucket(v)]++ }

// Merge adds o's counts into h (exact).
func (h *Hist) Merge(o *Hist) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
}

// Total reports the sample count.
func (h *Hist) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Percentile reports the inclusive upper bound of the bucket holding the
// nearest-rank p-th percentile sample (0 when empty): the sample at
// index ceil(n*p/100)-1 of the sorted order.
func (h *Hist) Percentile(p int) uint64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	idx := (total*uint64(p) + 99) / 100
	if idx > 0 {
		idx--
	}
	var seen uint64
	for b := 0; b < HistBuckets; b++ {
		seen += h.Counts[b]
		if seen > idx {
			return HistBucketUpper(b)
		}
	}
	return HistBucketUpper(HistBuckets - 1)
}

// Trimmed returns a copy of the counts with trailing zero buckets
// dropped (nil when empty) — the compact JSON carrier ServiceStats
// embeds so aggregation can merge exactly.
func (h *Hist) Trimmed() []uint64 {
	top := -1
	for b := HistBuckets - 1; b >= 0; b-- {
		if h.Counts[b] != 0 {
			top = b
			break
		}
	}
	if top < 0 {
		return nil
	}
	out := make([]uint64, top+1)
	copy(out, h.Counts[:top+1])
	return out
}

// HistFromCounts rebuilds a Hist from a Trimmed slice (extra buckets
// beyond HistBuckets fold into the last one).
func HistFromCounts(counts []uint64) Hist {
	var h Hist
	for b, c := range counts {
		if b >= HistBuckets {
			h.Counts[HistBuckets-1] += c
			continue
		}
		h.Counts[b] += c
	}
	return h
}
