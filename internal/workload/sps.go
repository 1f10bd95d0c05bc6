package workload

import (
	"persistbarriers/internal/mem"
	"persistbarriers/internal/trace"
)

// spsEntries is each thread's array length for the swap benchmark.
const spsEntries = 1024

// SPS generates the "sps" micro-benchmark: random swaps between entries of
// a persistent array (NV-heaps' SPS), one array per thread. A swap reads
// both 512-byte entries and writes them back, with persist barriers making
// each entry write an ordered unit:
//
//	read A, read B          — gather
//	write A'                — epoch 1
//	persist barrier
//	write B'                — epoch 2
//	persist barrier
func SPS(spec Spec) (*trace.Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := perThread(spec, func(thread int, r *trace.Rand, b *trace.Builder) func() {
		alloc := newAllocator(0x3000_0000 + mem.Addr(thread)*0x0100_0000 + mem.Addr(thread)*17*512)
		arr := alloc.entries(spsEntries)
		return func() {
			b.Compute(thinkTime(r))
			i := r.Intn(spsEntries)
			j := r.Intn(spsEntries)
			for j == i {
				j = r.Intn(spsEntries)
			}
			ei, ej := arr+mem.Addr(i)*EntrySize, arr+mem.Addr(j)*EntrySize
			b.LoadRange(ei, EntrySize)
			b.LoadRange(ej, EntrySize)
			b.StoreRange(ei, EntrySize)
			b.Barrier()
			b.StoreRange(ej, EntrySize)
			b.Barrier()
			b.TxEnd()
		}
	})
	return p, nil
}
