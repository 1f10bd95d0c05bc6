// Package cache implements the set-associative cache arrays used for both
// the private L1s and the shared LLC banks. Each line carries, in addition
// to the usual valid/dirty state, the EpochID+CoreID tag extension of the
// paper's Section 4.3, and the cache keeps the per-epoch line bookkeeping
// that the paper's flush engines maintain as set bitmaps.
//
// Two hot-path properties matter to the simulator's throughput. A set
// holds only the ways it uses: the cache keeps one uint32 per set naming
// its slot, 0 until the set is first touched, and a touched set's slot is
// 1, 2, 4, … ways wide, up to Ways, growing one size class only when an
// insert finds it full. Slots are carved from fixed 64-way chunks, and a
// chunk is dropped once every set that had a slot in it has moved up, so
// a Table 1 LLC bank (768 KiB of way metadata were every set full width)
// costs 4 bytes for each set a workload never references, about one way
// for each set it touches once, and about what full-width sets cost when
// every set fills. And the per-epoch line bookkeeping
// keeps each epoch's lines as an incrementally sorted slice, so the flush
// engine's work list (AppendLinesOf) is already in deterministic order —
// no sort on any flush.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
)

// FlushMode selects what a persist does to the flushed line.
type FlushMode uint8

const (
	// NonInvalidating models the clwb instruction: the line is written
	// back and stays valid and clean in the cache (the paper's choice;
	// ~30% faster in their evaluation).
	NonInvalidating FlushMode = iota
	// Invalidating models clflush: the line is written back and evicted.
	Invalidating
)

// String implements fmt.Stringer.
func (m FlushMode) String() string {
	if m == Invalidating {
		return "clflush"
	}
	return "clwb"
}

// Config sizes a cache array.
type Config struct {
	Name string
	Sets int
	Ways int
	// IndexShift drops low line-number bits before set indexing; LLC
	// banks use it so that bank-interleaved lines spread across sets.
	IndexShift uint
	// PanicOnDirtyEvict makes Insert panic when it would silently drop a
	// dirty victim. Private caches enable it: every dirty L1 line must
	// leave through an explicit writeback path.
	PanicOnDirtyEvict bool
}

// Entry is the externally visible state of one cache line.
type Entry struct {
	Line    mem.Line
	Dirty   bool
	Tag     epoch.ID    // epoch that last wrote the line; None once persisted
	Version mem.Version // newest store version the line holds
}

type way struct {
	line    mem.Line
	tag     epoch.ID
	version mem.Version
	lastUse uint64
	valid   bool
	dirty   bool
}

const (
	// chunkWays is how many ways one chunk holds. A slot never straddles
	// two chunks, so Ways may not exceed it, and a chunk is never copied
	// or grown.
	chunkWays = 64
	// maxClasses is the number of slot size classes Ways = chunkWays
	// needs: 1, 2, 4, …, 64 ways.
	maxClasses = 7
	// An index word holds a slot's class in the bits from classShift up
	// and 1 + the slot's first-way offset in the chunk table below.
	classShift = 29
	offMask    = 1<<classShift - 1
)

// chunk is chunkWays ways that one class cuts into slots.
type chunk struct {
	ways  *[chunkWays]way
	inUse uint8 // slots a set holds
}

// slotClass is where the slots of one size class come from.
type slotClass struct {
	// next and end bound the class's bump range: the offset of its next
	// fresh slot and the end of the chunk it is cutting.
	next, end int
	// free holds the offsets of vacated slots, already cleared.
	free []uint32
}

// Cache is a set-associative array with epoch-extended tags. It is a pure
// state container: all timing lives in the machine layer.
type Cache struct {
	cfg Config
	// index names each set's slot: 0 while the set is untouched, else
	// class<<classShift | 1 + the offset of the slot's first way. A class
	// c slot is min(1<<c, Ways) ways wide, and every valid way of a set
	// lies in its slot.
	index []uint32
	// chunks hold every slot's ways; the classes cut them in turn. Once
	// every slot a class cut from a chunk it has finished cutting has been
	// vacated, the chunk's ways are dropped, so a cache whose sets all
	// grew to full width holds what full-width sets would.
	chunks  []chunk
	classes [maxClasses]slotClass
	tick    uint64
	// byEpoch is the flush-engine bookkeeping: which resident lines
	// belong to each unpersisted epoch, kept sorted at all times so the
	// flush work list needs no sort.
	byEpoch map[epoch.ID][]mem.Line
	// setPool recycles drained epoch line slices; epochs are born and
	// retired constantly and their sets are small.
	setPool [][]mem.Line
	// candidates is VictimAvoiding's scratch copy of the eligible ways,
	// kept so a full-set insert does not allocate.
	candidates []way

	stats Stats
}

// Stats counts array activity.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyEvicts uint64
}

// New validates cfg and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %q: sets and ways must be positive (%d, %d)", cfg.Name, cfg.Sets, cfg.Ways)
	}
	if cfg.Ways > chunkWays {
		return nil, fmt.Errorf("cache %q: %d ways exceed a %d-way chunk", cfg.Name, cfg.Ways, chunkWays)
	}
	c := &Cache{cfg: cfg}
	// A set enters each class at most once, so a class never carves more
	// slots than there are sets; all of them must be nameable by offset.
	ways := 0
	for cls := uint32(0); cls <= c.top(); cls++ {
		perChunk := chunkWays / c.width(cls)
		ways += (cfg.Sets + perChunk - 1) / perChunk * chunkWays
	}
	if ways > offMask {
		return nil, fmt.Errorf("cache %q: %d sets x %d ways do not fit the set index", cfg.Name, cfg.Sets, cfg.Ways)
	}
	c.index = make([]uint32, cfg.Sets)
	c.chunks = make([]chunk, 0, (cfg.Sets+chunkWays-1)/chunkWays)
	c.byEpoch = make(map[epoch.ID][]mem.Line)
	return c, nil
}

// MustNew is New for statically known-good configs; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cache) setOf(line mem.Line) int {
	return int((uint64(line) >> c.cfg.IndexShift) % uint64(c.cfg.Sets))
}

// width is how many ways a slot of class cls holds.
func (c *Cache) width(cls uint32) int { return min(1<<cls, c.cfg.Ways) }

// top is the widest class, whose slots are exactly Ways wide.
func (c *Cache) top() uint32 { return uint32(bits.Len(uint(c.cfg.Ways - 1))) }

// setFor returns line's set, which is empty when never touched.
func (c *Cache) setFor(line mem.Line) []way {
	k := c.index[c.setOf(line)]
	if k == 0 {
		return nil
	}
	return c.slot(k)
}

// slot returns the ways of the slot index word k names.
func (c *Cache) slot(k uint32) []way {
	off := k&offMask - 1
	lo := off % chunkWays
	hi := lo + uint32(c.width(k>>classShift))
	return c.chunks[off/chunkWays].ways[lo:hi:hi]
}

// carve returns the index word of a cleared slot of class cls, reusing
// the class's newest vacated slot before cutting a fresh one.
func (c *Cache) carve(cls uint32) uint32 {
	sc := &c.classes[cls]
	var off int
	if n := len(sc.free); n > 0 {
		off = int(sc.free[n-1])
		sc.free = sc.free[:n-1]
	} else {
		if sc.next+c.width(cls) > sc.end {
			sc.next = len(c.chunks) * chunkWays
			sc.end = sc.next + chunkWays
			c.chunks = append(c.chunks, chunk{ways: new([chunkWays]way)})
		}
		off = sc.next
		sc.next += c.width(cls)
	}
	c.chunks[off/chunkWays].inUse++
	return cls<<classShift | uint32(off+1)
}

// grow moves set i from its full slot k up one class and returns the new
// slot's index word. Each way keeps its index, so the first invalid way
// of the new slot is the one just past the old slot's width; the old slot
// is cleared and vacated.
func (c *Cache) grow(i int, k uint32) uint32 {
	old := c.slot(k)
	nk := c.carve(k>>classShift + 1)
	copy(c.slot(nk), old)
	clear(old)
	c.vacate(k>>classShift, int(k&offMask-1))
	c.index[i] = nk
	return nk
}

// vacate returns the cleared class cls slot at off to its class's free
// list, unless that leaves no slot in use in a chunk the class has
// finished cutting: then the chunk is dropped and its slots leave the
// free list. A set enters each class once, so the class could reuse them
// only for sets that have yet to enter it.
func (c *Cache) vacate(cls uint32, off int) {
	sc := &c.classes[cls]
	ci := off / chunkWays
	ch := &c.chunks[ci]
	ch.inUse--
	cutting := sc.end == (ci+1)*chunkWays && sc.next+c.width(cls) <= sc.end
	if ch.inUse > 0 || cutting {
		sc.free = append(sc.free, uint32(off))
		return
	}
	sc.free = slices.DeleteFunc(sc.free, func(o uint32) bool { return int(o)/chunkWays == ci })
	ch.ways = nil
}

func (c *Cache) find(line mem.Line) *way {
	set := c.setFor(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

// Lookup probes for line, updating LRU state and hit/miss counters.
func (c *Cache) Lookup(line mem.Line) (Entry, bool) {
	w := c.find(line)
	if w == nil {
		c.stats.Misses++
		return Entry{}, false
	}
	c.stats.Hits++
	c.tick++
	w.lastUse = c.tick
	return Entry{Line: w.line, Dirty: w.dirty, Tag: w.tag, Version: w.version}, true
}

// Contains probes for line without disturbing LRU or counters.
func (c *Cache) Contains(line mem.Line) bool { return c.find(line) != nil }

// Peek returns the line's state without disturbing LRU or counters.
func (c *Cache) Peek(line mem.Line) (Entry, bool) {
	w := c.find(line)
	if w == nil {
		return Entry{}, false
	}
	return Entry{Line: w.line, Dirty: w.dirty, Tag: w.tag, Version: w.version}, true
}

// Victim previews the entry that Insert(line) would evict. It returns
// (zero, false) when a free or invalid way exists. The victim preference
// order is: clean LRU first, then dirty-untagged LRU, then dirty-tagged
// LRU — the cache avoids forcing epoch flushes while any cheaper victim
// exists, mirroring the paper's reliance on natural replacements.
func (c *Cache) Victim(line mem.Line) (Entry, bool) {
	set := c.setFor(line)
	if !c.full(set) {
		return Entry{}, false
	}
	w := c.pickVictim(set)
	return Entry{Line: w.line, Dirty: w.dirty, Tag: w.tag, Version: w.version}, true
}

// VictimAvoiding previews the victim for Insert while skipping lines for
// which avoid returns true (lines held in a transient request state).
// It returns (victim, full, ok): full=false means a free way exists (no
// victim needed); ok=false means the set is full and every way is
// excluded, so insertion must be retried later.
func (c *Cache) VictimAvoiding(line mem.Line, avoid func(mem.Line) bool) (Entry, bool, bool) {
	set := c.setFor(line)
	if !c.full(set) {
		return Entry{}, false, true
	}
	candidates := c.candidates[:0]
	for i := range set {
		if !avoid(set[i].line) {
			candidates = append(candidates, set[i])
		}
	}
	c.candidates = candidates
	if len(candidates) == 0 {
		return Entry{}, true, false
	}
	w := c.pickVictim(candidates)
	return Entry{Line: w.line, Dirty: w.dirty, Tag: w.tag, Version: w.version}, true, true
}

// InsertReplacing inserts line into the way currently holding victim. The
// caller chose the victim via VictimAvoiding and resolved its writeback
// obligations; a missing victim panics.
func (c *Cache) InsertReplacing(line, victim mem.Line, dirty bool, tag epoch.ID, version mem.Version) Entry {
	if c.find(line) != nil {
		panic(fmt.Sprintf("cache %q: inserting already-present %v", c.cfg.Name, line))
	}
	w := c.find(victim)
	if w == nil {
		panic(fmt.Sprintf("cache %q: replacement victim %v vanished", c.cfg.Name, victim))
	}
	evicted := Entry{Line: w.line, Dirty: w.dirty, Tag: w.tag, Version: w.version}
	c.stats.Evictions++
	if w.dirty {
		c.stats.DirtyEvicts++
	}
	c.dropFromEpoch(w.tag, w.line)
	c.tick++
	*w = way{valid: true, line: line, dirty: dirty, tag: tag, version: version, lastUse: c.tick}
	if dirty && tag.Valid() {
		c.addToEpoch(tag, line)
	}
	return evicted
}

// full reports whether set has no free way: it is Ways wide, so it cannot
// grow, and every way is valid.
func (c *Cache) full(set []way) bool {
	if len(set) < c.cfg.Ways {
		return false
	}
	for i := range set {
		if !set[i].valid {
			return false
		}
	}
	return true
}

func (c *Cache) pickVictim(set []way) *way {
	var clean, untagged, tagged *way
	for i := range set {
		w := &set[i]
		switch {
		case !w.dirty:
			if clean == nil || w.lastUse < clean.lastUse {
				clean = w
			}
		case !w.tag.Valid():
			if untagged == nil || w.lastUse < untagged.lastUse {
				untagged = w
			}
		default:
			if tagged == nil || w.lastUse < tagged.lastUse {
				tagged = w
			}
		}
	}
	if clean != nil {
		return clean
	}
	if untagged != nil {
		return untagged
	}
	return tagged
}

// Insert places line into the cache with the given state, evicting the
// previewed victim if the set is full. It returns the evicted entry, if
// any. Callers must have resolved persist-ordering obligations for the
// victim (via Victim) before calling Insert. Inserting a line that is
// already present panics: that is a protocol bug.
func (c *Cache) Insert(line mem.Line, dirty bool, tag epoch.ID, version mem.Version) (Entry, bool) {
	if c.find(line) != nil {
		panic(fmt.Sprintf("cache %q: inserting already-present %v", c.cfg.Name, line))
	}
	i := c.setOf(line)
	k := c.index[i]
	if k == 0 {
		k = c.carve(0)
		c.index[i] = k
	}
	set := c.slot(k)
	var slot *way
	for j := range set {
		if !set[j].valid {
			slot = &set[j]
			break
		}
	}
	if slot == nil && len(set) < c.cfg.Ways {
		slot = &c.slot(c.grow(i, k))[len(set)]
	}
	var evicted Entry
	var didEvict bool
	if slot == nil {
		slot = c.pickVictim(set)
		if slot.dirty && c.cfg.PanicOnDirtyEvict {
			panic(fmt.Sprintf("cache %q: silent dirty eviction of %v (tag %v) for %v",
				c.cfg.Name, slot.line, slot.tag, line))
		}
		evicted = Entry{Line: slot.line, Dirty: slot.dirty, Tag: slot.tag, Version: slot.version}
		didEvict = true
		c.stats.Evictions++
		if slot.dirty {
			c.stats.DirtyEvicts++
		}
		c.dropFromEpoch(slot.tag, slot.line)
	}
	c.tick++
	*slot = way{valid: true, line: line, dirty: dirty, tag: tag, version: version, lastUse: c.tick}
	if dirty && tag.Valid() {
		c.addToEpoch(tag, line)
	}
	return evicted, didEvict
}

// Write marks a resident line dirty with the given epoch tag and version.
// It returns the line's previous state. Writing a non-resident line panics.
func (c *Cache) Write(line mem.Line, tag epoch.ID, version mem.Version) Entry {
	w := c.find(line)
	if w == nil {
		panic(fmt.Sprintf("cache %q: writing non-resident %v", c.cfg.Name, line))
	}
	prev := Entry{Line: w.line, Dirty: w.dirty, Tag: w.tag, Version: w.version}
	if w.tag != tag {
		c.dropFromEpoch(w.tag, line)
		if tag.Valid() {
			c.addToEpoch(tag, line)
		}
	}
	c.tick++
	w.lastUse = c.tick
	w.dirty = true
	w.tag = tag
	w.version = version
	return prev
}

// CleanLine marks a resident line clean and clears its epoch tag — the
// effect of a non-invalidating (clwb-style) persist. Cleaning an absent
// line is a no-op (it may have been evicted meanwhile).
func (c *Cache) CleanLine(line mem.Line) {
	w := c.find(line)
	if w == nil {
		return
	}
	c.dropFromEpoch(w.tag, line)
	w.dirty = false
	w.tag = epoch.None
}

// Invalidate removes a line — the effect of a clflush-style persist or a
// coherence invalidation. It returns the entry that was dropped, if any.
func (c *Cache) Invalidate(line mem.Line) (Entry, bool) {
	w := c.find(line)
	if w == nil {
		return Entry{}, false
	}
	e := Entry{Line: w.line, Dirty: w.dirty, Tag: w.tag, Version: w.version}
	c.dropFromEpoch(w.tag, line)
	*w = way{}
	return e, true
}

// AppendLinesOf appends the epoch's resident lines to dst, in sorted
// order — the flush engine's work list — and returns it. The flush engine
// calls this with a reused scratch buffer, so steady-state flushes do not
// allocate; the snapshot semantics let the caller clean or invalidate
// lines while iterating.
func (c *Cache) AppendLinesOf(dst []mem.Line, id epoch.ID) []mem.Line {
	return append(dst, c.byEpoch[id]...)
}

// addToEpoch inserts line into id's sorted line set. Epoch sets are small
// (bounded by what one epoch writes while resident), so the binary search
// plus copy stays cheap and the flush path never sorts.
func (c *Cache) addToEpoch(id epoch.ID, line mem.Line) {
	set, ok := c.byEpoch[id]
	if !ok {
		if n := len(c.setPool); n > 0 {
			set = c.setPool[n-1][:0]
			c.setPool = c.setPool[:n-1]
		}
	}
	i := sort.Search(len(set), func(i int) bool { return set[i] >= line })
	if i < len(set) && set[i] == line {
		return
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = line
	c.byEpoch[id] = set
}

func (c *Cache) dropFromEpoch(id epoch.ID, line mem.Line) {
	if !id.Valid() {
		return
	}
	set, ok := c.byEpoch[id]
	if !ok {
		return
	}
	i := sort.Search(len(set), func(i int) bool { return set[i] >= line })
	if i >= len(set) || set[i] != line {
		return
	}
	copy(set[i:], set[i+1:])
	set = set[:len(set)-1]
	if len(set) == 0 {
		c.setPool = append(c.setPool, set)
		delete(c.byEpoch, id)
		return
	}
	c.byEpoch[id] = set
}

// DirtyLines returns every dirty resident line, sorted by line. It scans
// the whole array, so only tests call it: the end-of-run drain flushes
// epoch by epoch through AppendLinesOf.
func (c *Cache) DirtyLines() []Entry {
	var out []Entry
	for _, ch := range c.chunks {
		if ch.ways == nil {
			continue
		}
		for i := range ch.ways {
			w := &ch.ways[i]
			if w.valid && w.dirty {
				out = append(out, Entry{Line: w.line, Dirty: true, Tag: w.tag, Version: w.version})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// Stats returns a snapshot of the array counters.
func (c *Cache) Stats() Stats { return c.stats }
