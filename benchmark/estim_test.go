package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileIsExactNearestRank(t *testing.T) {
	xs := seq(1000) // 1..1000, sorted
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %g, want %g", c.p, got, c.want)
		}
	}
	// Two latencies a power-of-two histogram cannot tell apart stay apart.
	a, b := []float64{1600, 1600, 1600}, []float64{1900, 1900, 1900}
	if percentile(a, 50) == percentile(b, 50) {
		t.Error("1.6 ms and 1.9 ms read the same")
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty sample must read 0")
	}
}

func TestMedianDoesNotDisturbItsInput(t *testing.T) {
	xs := []float64{9, 1, 5, 3}
	if got := median(xs); got != 4 {
		t.Errorf("median = %g, want 4", got)
	}
	if xs[0] != 9 || xs[3] != 3 {
		t.Error("median sorted its argument in place")
	}
	if got := median([]float64{7, 1, 3}); got != 3 {
		t.Errorf("odd median = %g, want 3", got)
	}
}

// TestHighestPercentileRule: a percentile is reported only when at least
// ten samples lie beyond it.
func TestHighestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10_000, 99.9}, {2_000_000, 99.9},
	} {
		got := highestPercentile(c.n)
		if got != c.want {
			t.Errorf("n=%d: highest percentile %g, want %g", c.n, got, c.want)
		}
		if got > 0 {
			if beyond := c.n - nearestRank(got, c.n); beyond < tailBeyond {
				t.Errorf("n=%d: p%g leaves only %d samples beyond", c.n, got, beyond)
			}
		}
	}
}

func TestWindowTailIsTheMedianOfWindowTails(t *testing.T) {
	// Nine calm windows and one with a scheduler stall: the stall moves
	// one window's p99, not the metric.
	var windows [][]float64
	for w := 0; w < 10; w++ {
		win := seq(2000)
		if w == 3 {
			for i := 1900; i < 2000; i++ {
				win[i] = 500_000
			}
		}
		windows = append(windows, win)
	}
	tail, pct := windowTail(windows)
	if tail != 1980 || pct != 99 {
		t.Errorf("tail = %g at p%g, want 1980 at p99", tail, pct)
	}
	// A window too small for a p99 falls back: p90 at 100+, max below.
	tail, pct = windowTail([][]float64{seq(200), seq(200), seq(200)})
	if tail != 180 || pct != 90 {
		t.Errorf("200-sample windows: tail = %g at p%g, want 180 at p90", tail, pct)
	}
	tail, pct = windowTail([][]float64{seq(20), seq(20)})
	if tail != 20 || pct != 100 {
		t.Errorf("20-sample windows: tail = %g at p%g, want the maximum, 20", tail, pct)
	}
	if tail, _ := windowTail([][]float64{nil, seq(2000), nil}); tail != 1980 {
		t.Errorf("empty windows must be skipped, got %g", tail)
	}
}

// TestQuartileSpreadMatchesPython pins the driver's statistic:
// statistics.quantiles(v, n=4) (exclusive) gives [2.75, 5.5, 8.25] for
// 1..10 and [20, 30, 50] for the second sample.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	if got, want := quartileSpread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want %g", got, want)
	}
	v := []float64{40, 10, 20, 100, 50, 30, 20}
	if got, want := quartileSpread(v), (50.0-20.0)/30.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if quartileSpread([]float64{5}) != 0 || quartileSpread(nil) != 0 {
		t.Error("fewer than two samples have no spread")
	}
}
