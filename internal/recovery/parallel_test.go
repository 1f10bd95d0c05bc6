package recovery

import (
	"fmt"
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
)

// violationGraph builds a multi-core history with violations planted at
// chosen epoch numbers: each planted core writes an epoch whose program
// predecessor is missing a line from the image.
func violationGraph(cores, perCore int, planted map[int]bool) (*Graph, map[mem.Line]mem.Version) {
	image := make(map[mem.Line]mem.Version)
	var hist [][]*epoch.Summary
	v := mem.Version(1)
	line := mem.Line(1)
	for c := 0; c < cores; c++ {
		var h []*epoch.Summary
		for n := 0; n < perCore; n++ {
			writes := map[mem.Line]mem.Version{line: v}
			if planted[c*perCore+n] && n > 0 {
				// The predecessor's line is dropped from the image while
				// this epoch's write is durable.
				delete(image, mem.Line(line-1))
			}
			image[line] = v
			h = append(h, summary(c, uint64(n), false, writes))
			v++
			line++
		}
		hist = append(hist, h)
	}
	return NewGraph(hist), image
}

// TestCheckOrderingParallelMatchesSerial: any worker count must report
// exactly the violation the serial scan reports — the one at the lowest
// epoch index — and agree with the serial scan on clean images.
func TestCheckOrderingParallelMatchesSerial(t *testing.T) {
	for _, planted := range []map[int]bool{
		nil,                           // clean
		{17: true},                    // single violation
		{5: true, 23: true, 38: true}, // several: lowest index must win
	} {
		g, image := violationGraph(4, 10, planted)
		want := CheckOrdering(g, image, 1)
		for workers := 2; workers <= 6; workers++ {
			got := CheckOrdering(g, image, workers)
			if (got == nil) != (want == nil) {
				t.Fatalf("planted %v, workers %d: got %v, serial %v", planted, workers, got, want)
			}
			if got != nil && got.Error() != want.Error() {
				t.Fatalf("planted %v, workers %d: violation %q != serial %q",
					planted, workers, got, want)
			}
		}
	}
}

// TestCheckOrderingParallelLargeClean exercises the strided split on a
// graph bigger than any worker count in play.
func TestCheckOrderingParallelLargeClean(t *testing.T) {
	g, image := violationGraph(8, 64, nil)
	for _, workers := range []int{0, 1, 3, 16, 1024} {
		if err := CheckOrdering(g, image, workers); err != nil {
			t.Fatalf("workers %d: clean graph rejected: %v", workers, err)
		}
	}
}

var benchSink error

// BenchmarkCheckOrdering compares the serial screening with the strided
// parallel one (speedup is proportional to cores; on a single-core host
// they tie).
func BenchmarkCheckOrdering(b *testing.B) {
	g, image := violationGraph(8, 128, nil)
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = CheckOrdering(g, image, workers)
			}
		})
	}
}
