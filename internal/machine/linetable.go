package machine

import (
	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

// lineState consolidates the per-line machine state: one probe on the
// access path finds coherence, transient-state, and version bookkeeping
// together.
type lineState struct {
	line   mem.Line
	latest mem.Version // newest committed version (0: never written)
	// early is the last version of the line written back early (at its
	// store, beyond the paper); an epoch flush skips an L1 copy holding it.
	early mem.Version
	dir   dirEntry
	// busy is the transient-state holder's signal (it lives in that
	// request's memReq), nil when the line is free.
	busy *sim.Signal
}

const (
	lineSlabBits = 10
	lineSlabSize = 1 << lineSlabBits
	lineSlabMask = lineSlabSize - 1
)

// lineTable interns mem.Line values into slab-backed lineState records
// indexed by an open-addressed hash table. Lines are added on first touch
// and never removed (transient fields are nil'd instead), so the index is
// insert-only, and slab storage keeps every *lineState and *dirEntry stable
// across growth — continuations capture those pointers across events.
type lineTable struct {
	idx   []int32 // 1-based slot numbers into the slabs; 0 = empty
	mask  uint64
	count int
	slabs [][]lineState
}

// lineHash spreads line addresses (sequential in most traces) across the
// index via Fibonacci hashing.
func lineHash(l mem.Line) uint64 { return uint64(l) * 0x9E3779B97F4A7C15 }

func (t *lineTable) at(slot int32) *lineState {
	return &t.slabs[slot>>lineSlabBits][slot&lineSlabMask]
}

// lookup returns the state for line, or nil if the line was never touched.
func (t *lineTable) lookup(line mem.Line) *lineState {
	if t.count == 0 {
		return nil
	}
	i := lineHash(line) & t.mask
	for {
		slot := t.idx[i]
		if slot == 0 {
			return nil
		}
		if ls := t.at(slot - 1); ls.line == line {
			return ls
		}
		i = (i + 1) & t.mask
	}
}

// get interns line, creating its state on first touch.
func (t *lineTable) get(line mem.Line) *lineState {
	if t.idx == nil {
		t.rehash(1024)
	}
	i := lineHash(line) & t.mask
	for {
		slot := t.idx[i]
		if slot == 0 {
			break
		}
		if ls := t.at(slot - 1); ls.line == line {
			return ls
		}
		i = (i + 1) & t.mask
	}
	if 4*(t.count+1) > 3*len(t.idx) {
		t.rehash(2 * len(t.idx))
		i = lineHash(line) & t.mask
		for t.idx[i] != 0 {
			i = (i + 1) & t.mask
		}
	}
	slot := t.count
	if slot>>lineSlabBits == len(t.slabs) {
		t.slabs = append(t.slabs, make([]lineState, lineSlabSize))
	}
	ls := t.at(int32(slot))
	ls.line = line
	ls.dir.owner = -1
	t.count++
	t.idx[i] = int32(slot) + 1
	return ls
}

// rehash resizes the index to size buckets (a power of two) and reinserts
// every interned line.
func (t *lineTable) rehash(size int) {
	t.idx = make([]int32, size)
	t.mask = uint64(size - 1)
	for slot := 0; slot < t.count; slot++ {
		i := lineHash(t.at(int32(slot)).line) & t.mask
		for t.idx[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.idx[i] = int32(slot) + 1
	}
}

// forEach visits every interned line in first-touch order (deterministic,
// unlike map iteration).
func (t *lineTable) forEach(f func(*lineState)) {
	for slot := 0; slot < t.count; slot++ {
		f(t.at(int32(slot)))
	}
}
