package main

import (
	"math"
	"sort"
)

// Estimators over exact samples. Nothing here buckets: pmkvload's
// power-of-two histogram prints p50=2048 for a 1.6 ms and a 1.9 ms mean
// alike, which is the resolution problem this benchmark exists to fix.

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It is exact — always one of the samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// nearestRank is the 1-based rank of the p-th percentile in n samples.
// The small epsilon keeps 99.9% of 10000 at rank 9990, not the 9991 that
// 9990.000000000002 would round up to.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(rank, n))
}

// median returns the middle sample, or the mean of the middle two. It
// does not disturb xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported percentile
// for it to be an estimate rather than an anecdote.
const tailBeyond = 10

// highestPercentile returns the highest of the conventional percentiles
// (50, 90, 99, 99.9) whose nearest rank leaves at least tailBeyond
// samples beyond it in a sample of n, or 0 when even the median does not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if n-nearestRank(p, n) >= tailBeyond {
			best = p
		}
	}
	return best
}

// windowTail is the tail estimator for timings that arrive in windows
// (one-second slices of a live run, rounds of the engine, passes of a
// sweep): each window contributes its own tail, and the windows' median
// is reported, so one scheduler stall moves one window and not the
// metric. A window's tail is its p99 when at least tailBeyond samples lie
// beyond that, else the highest supported percentile, else its maximum
// (a window of twenty simulation jobs has no percentile to speak of; its
// slowest job is the honest tail). The percentile used by the smallest
// window is returned alongside so the report can name it.
func windowTail(windows [][]float64) (tail float64, pct float64) {
	var tails []float64
	pct = 100
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		s := sortedCopy(w)
		p := highestPercentile(len(s))
		if p > 99 {
			p = 99
		}
		if p < 90 {
			p = 100
		}
		tails = append(tails, percentile(s, p))
		if p < pct {
			pct = p
		}
	}
	return median(tails), pct
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (exclusive method) — the
// driver's acceptance statistic, reproduced so README.md's spreads and
// the driver's agree.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
