// Package sim provides a deterministic discrete-event simulation kernel.
//
// All hardware components in this repository (cores, caches, LLC banks,
// memory controllers, epoch arbiters) are modelled as state machines that
// schedule callbacks on a shared Engine. The engine maintains a single
// logical clock measured in Cycle units and fires events in (time, FIFO)
// order, which makes every simulation run bit-for-bit reproducible.
//
// The queue is split by scheduling distance. Almost every event a machine
// schedules lands within a few dozen cycles of now (cache latencies, mesh
// hops, flush issue intervals), so those go into a calendar ring of 64
// per-cycle FIFO buckets whose backing arrays are reused run-long — push
// and pop are O(1) with zero steady-state allocation. The rare far-future
// events go into a value-typed 4-ary min-heap. Both structures store
// events by value; nothing is boxed, and At/After allocate only when a
// bucket or the heap grows past its high-water mark.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Cycle is a point (or distance) on the simulated clock.
type Cycle uint64

// MaxCycle is the largest representable cycle; used as "never".
const MaxCycle = Cycle(math.MaxUint64)

// event is a scheduled callback. Events are stored by value in the ring
// and heap; (when, seq) totally orders them.
type event struct {
	when Cycle
	seq  uint64
	fn   func()
}

// ringSpan is the calendar ring's horizon in cycles. It must be a power
// of two: bucket indexing and the non-empty bitmask rely on it being 64.
const ringSpan = 64

// bucket is one ring slot: the FIFO of events for a single future cycle.
// head indexes the next event to fire; the tail of evs keeps its capacity
// when the bucket drains, so steady-state scheduling never allocates.
type bucket struct {
	evs  []event
	head int
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64

	// Calendar ring for events within ringSpan cycles of now. All events
	// in one bucket share the same timestamp (two pending events that
	// collide mod ringSpan are both within a 64-cycle window of each
	// other, hence equal), and arrive in seq order, so each bucket is a
	// plain FIFO. liveMask bit i is set iff buckets[i] is non-empty.
	buckets   [ringSpan]bucket
	liveMask  uint64
	ringCount int

	// 4-ary min-heap ordered by (when, seq) for events at or beyond the
	// ring horizon.
	heap []event
}

// NewEngine returns an engine with the clock at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.ringCount + len(e.heap) }

// At schedules fn to run at absolute cycle when. Scheduling in the past
// panics: it indicates a protocol bug, not a recoverable condition.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now %d", when, e.now))
	}
	e.seq++
	if when-e.now < ringSpan {
		b := &e.buckets[when&(ringSpan-1)]
		if b.head == len(b.evs) {
			b.evs = b.evs[:0]
			b.head = 0
			e.liveMask |= 1 << (when & (ringSpan - 1))
		}
		b.evs = append(b.evs, event{when: when, seq: e.seq, fn: fn})
		e.ringCount++
		return
	}
	e.heapPush(event{when: when, seq: e.seq, fn: fn})
}

// After schedules fn to run delta cycles from now.
func (e *Engine) After(delta Cycle, fn func()) { e.At(e.now+delta, fn) }

// Run executes events until the queue drains. It returns the cycle at
// which the simulation quiesced.
func (e *Engine) Run() Cycle {
	for e.ringCount+len(e.heap) > 0 {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps <= limit. The clock is advanced
// to limit if the queue drains early. It returns the current cycle.
func (e *Engine) RunUntil(limit Cycle) Cycle {
	for e.ringCount+len(e.heap) > 0 && e.nextWhen() <= limit {
		e.step()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

// RunWhile executes events with timestamps <= limit for as long as cond
// reports true; cond is evaluated before each event. If execution stops
// because the next event lies beyond limit (cond still true), the clock
// advances to limit — the "crash instant reached" case. If the queue
// drains while cond is still true, the clock is left where it is: the
// caller is waiting on something that will never fire (a deadlock it can
// detect via Pending() == 0). It returns the current cycle.
func (e *Engine) RunWhile(limit Cycle, cond func() bool) Cycle {
	for e.ringCount+len(e.heap) > 0 && cond() && e.nextWhen() <= limit {
		e.step()
	}
	if cond() && e.ringCount+len(e.heap) > 0 && e.nextWhen() > limit && e.now < limit {
		e.now = limit
	}
	return e.now
}

// ringNext returns the timestamp of the earliest ring event. The caller
// must have checked ringCount > 0. Rotating the non-empty mask so that
// now's bucket becomes bit 0 turns "first non-empty bucket at or after
// now" into a single trailing-zeros count.
func (e *Engine) ringNext() Cycle {
	rot := bits.RotateLeft64(e.liveMask, -int(e.now&(ringSpan-1)))
	return e.now + Cycle(bits.TrailingZeros64(rot))
}

// nextWhen returns the earliest pending timestamp. The caller must have
// checked Pending() > 0.
func (e *Engine) nextWhen() Cycle {
	if e.ringCount == 0 {
		return e.heap[0].when
	}
	rw := e.ringNext()
	if len(e.heap) > 0 && e.heap[0].when < rw {
		return e.heap[0].when
	}
	return rw
}

// step fires the earliest pending event. Ties on when break by seq; a
// ring bucket's head always carries the bucket's smallest seq (FIFO), so
// one comparison against the heap root decides the winner.
func (e *Engine) step() {
	var ev event
	useRing := e.ringCount > 0
	if useRing {
		rw := e.ringNext()
		b := &e.buckets[rw&(ringSpan-1)]
		head := &b.evs[b.head]
		if len(e.heap) > 0 && (e.heap[0].when < rw || (e.heap[0].when == rw && e.heap[0].seq < head.seq)) {
			useRing = false
		} else {
			ev = *head
			head.fn = nil // release the closure for GC
			b.head++
			if b.head == len(b.evs) {
				b.evs = b.evs[:0]
				b.head = 0
				e.liveMask &^= 1 << (rw & (ringSpan - 1))
			}
			e.ringCount--
		}
	}
	if !useRing {
		ev = e.heapPop()
	}
	if ev.when > e.now {
		e.now = ev.when
	}
	e.fired++
	ev.fn()
	// A popped heap event may leave far-future events that are now within
	// the ring horizon; they stay in the heap — correctness only needs
	// the (when, seq) merge above, not migration.
}

// less orders events by (when, seq).
func less(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// heapPush inserts ev into the 4-ary min-heap.
func (e *Engine) heapPush(ev event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !less(&e.heap[i], &e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// heapPop removes and returns the heap's minimum event.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the closure for GC
	h = h[:n]
	e.heap = h
	// Sift the relocated root down among up to four children per level.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(&h[c], &h[min]) {
				min = c
			}
		}
		if !less(&h[min], &h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
