package recovery

import (
	"fmt"
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
)

// cleanGraph builds a multi-core history, one single-line epoch after
// another on each core, with every write durable in the image.
func cleanGraph(cores, perCore int) (*Graph, map[mem.Line]mem.Version) {
	image := make(map[mem.Line]mem.Version)
	var hist [][]*epoch.Summary
	v := mem.Version(1)
	for c := 0; c < cores; c++ {
		var h []*epoch.Summary
		for n := 0; n < perCore; n++ {
			line := mem.Line(v)
			image[line] = v
			h = append(h, summary(c, uint64(n), false, map[mem.Line]mem.Version{line: v}))
			v++
		}
		hist = append(hist, h)
	}
	return NewGraph(hist), image
}

var benchSink error

// BenchmarkCheckOrdering times the screening on a clean 1024-epoch graph
// and on one the size pmkv.Verify sees once the durable prefix is trimmed.
func BenchmarkCheckOrdering(b *testing.B) {
	for _, perCore := range []int{128, 5} {
		g, image := cleanGraph(8, perCore)
		b.Run(fmt.Sprintf("epochs=%d", 8*perCore), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = CheckOrdering(g, image)
			}
		})
	}
}
