// Package hist is the repository's one histogram: a fixed log-linear
// bucket layout, a plain mergeable value type, and an atomic view of the
// same layout for hot paths. Epoch persist latencies in simulated cycles
// (internal/epoch's Table, read through machine.Counters), wall-clock
// stage durations (internal/telemetry), group-commit sizes
// (internal/pmkv) and client latencies (cmd/pmkvload) all fold into it,
// so every percentile in the system follows one rule at one resolution.
//
// Layout: values below 8 get a bucket each; above that every octave
// [2^e, 2^(e+1)) splits into 8 equal sub-buckets, so a bucket is never
// wider than 12.5 % of the values it holds. An octave's count is the
// exact sum of its sub-buckets, which lets an exposition keep coarse
// power-of-two bounds without a second histogram.
//
// The package imports only the standard library.
package hist

import (
	"encoding/json"
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	subBits = 3
	sub     = 1 << subBits

	// Buckets is the layout size: 48 groups of 8 cover values up to
	// 2^50-1 (13 days in nanoseconds); larger values clamp into the last
	// bucket.
	Buckets = 48 * sub
)

// bucket maps a value to its bucket index.
func bucket(v uint64) int {
	if v < sub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	b := (e-subBits+1)<<subBits | int(v>>(e-subBits))&(sub-1)
	if b >= Buckets {
		return Buckets - 1
	}
	return b
}

// Upper reports bucket b's inclusive upper bound. The last bucket is
// unbounded but reports its nominal bound.
func Upper(b int) uint64 {
	if b < sub {
		return uint64(b)
	}
	return uint64(sub+b&(sub-1)+1)<<(b>>subBits-1) - 1
}

// Hist is the plain histogram. The zero value is empty and ready to use;
// it is comparable and copies by value. Not safe for concurrent use.
type Hist struct {
	Counts [Buckets]uint64
	Sum    uint64
}

// Observe folds one value in.
func (h *Hist) Observe(v uint64) {
	h.Counts[bucket(v)]++
	h.Sum += v
}

// Merge adds o into h. It is exact: bucket counts and sums just add, so
// percentiles of a merge are percentiles of the union of the samples.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Sum += o.Sum
}

// Total reports the sample count.
func (h *Hist) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Mean reports the exact mean of the observed values (0 when empty).
func (h *Hist) Mean() float64 {
	n := h.Total()
	if n == 0 {
		return 0
	}
	return float64(h.Sum) / float64(n)
}

// Percentile reports the inclusive upper bound of the bucket holding the
// nearest-rank p-th percentile sample: the sample at index
// ceil(n*p/100)-1 of the sorted order (0 when empty; p is in percent and
// clamps to the first and last sample).
func (h *Hist) Percentile(p float64) uint64 {
	n := h.Total()
	if n == 0 {
		return 0
	}
	// The epsilon keeps a product like 100*99/100 that lands a hair above
	// its integer value from rounding up a whole rank.
	rank := uint64(math.Ceil(float64(n)*p/100 - 1e-9))
	rank = min(max(rank, 1), n)
	var seen uint64
	for b, c := range h.Counts {
		seen += c
		if seen >= rank {
			return Upper(b)
		}
	}
	return Upper(Buckets - 1)
}

// wire is the JSON form: counts with the empty tail trimmed, so a
// histogram costs what it holds rather than Buckets numbers.
type wire struct {
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
}

// MarshalJSON implements json.Marshaler.
func (h Hist) MarshalJSON() ([]byte, error) {
	top := Buckets
	for top > 0 && h.Counts[top-1] == 0 {
		top--
	}
	return json.Marshal(wire{Counts: h.Counts[:top], Sum: h.Sum})
}

// UnmarshalJSON implements json.Unmarshaler. Counts past the layout fold
// into the last bucket.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*h = Hist{Sum: w.Sum}
	for b, c := range w.Counts {
		h.Counts[min(b, Buckets-1)] += c
	}
	return nil
}

// Atomic is the lock-free view of the same layout: Observe is two atomic
// adds and no allocation, safe from any number of goroutines.
type Atomic struct {
	counts [Buckets]atomic.Uint64
	sum    atomic.Uint64
}

// Observe folds one value in.
func (a *Atomic) Observe(v uint64) {
	a.counts[bucket(v)].Add(1)
	a.sum.Add(v)
}

// Snapshot copies the current state. Under concurrent Observe the copy
// may miss samples in flight, but every bucket it reports was observed.
func (a *Atomic) Snapshot() Hist {
	var h Hist
	for i := range a.counts {
		h.Counts[i] = a.counts[i].Load()
	}
	h.Sum = a.sum.Load()
	return h
}
