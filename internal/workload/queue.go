package workload

import (
	"persistbarriers/internal/mem"
	"persistbarriers/internal/trace"
)

// queueCapacity bounds each thread's circular entry area (entries).
const queueCapacity = 2048

// Queue generates the "queue" micro-benchmark: the copy-while-locked
// persistent queue of the paper's Figure 10, one queue per thread. An
// insert copies the entry at the head position and then bumps the Head
// pointer; a delete bumps the Tail pointer. The Head/Tail pointer lines
// are re-written by every operation, so nearly every epoch hits the
// Figure 3(b) intra-thread conflict — this is the conflict-heaviest
// benchmark in the suite.
func Queue(spec Spec) (*trace.Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := perThread(spec, func(thread int, r *trace.Rand, b *trace.Builder) func() {
		alloc := newAllocator(0x2000_0000 + mem.Addr(thread)*0x0100_0000 + mem.Addr(thread)*17*512)
		headPtr := alloc.line()
		tailPtr := alloc.line()
		ring := alloc.entries(queueCapacity)
		slot := func(i int) mem.Addr { return ring + mem.Addr(i%queueCapacity)*EntrySize }
		head, tail := 0, 0
		return func() {
			b.Compute(thinkTime(r))
			population := head - tail
			op := pickOp(r, population)
			if op == opInsert && population >= queueCapacity-1 {
				op = opDelete
			}
			switch op {
			case opInsert:
				// QUEUE_INSERT(Head, Entry) — Figure 10(a):
				//   1. persist barrier (start clean)
				//   2. copy(data[Head], Entry)      — epoch A
				//   3. persist barrier
				//   4. Head = Head + EntryLen       — epoch B
				//   5. persist barrier
				b.Load(headPtr)
				b.StoreRange(slot(head), EntrySize)
				b.Barrier()
				b.Store(headPtr)
				b.Barrier()
				head++
			case opDelete:
				b.Load(tailPtr)
				b.Load(slot(tail)) // read the departing entry
				b.Store(tailPtr)
				b.Barrier()
				tail++
			case opSearch:
				b.Load(tailPtr)
				b.Load(headPtr)
				n := r.Intn(min(population, 4)) + 1
				for i := 0; i < n; i++ {
					b.Load(slot(tail + i))
				}
			}
			b.TxEnd()
		}
	})
	return p, nil
}
