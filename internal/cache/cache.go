// Package cache implements the set-associative cache arrays used for both
// the private L1s and the shared LLC banks. Each line carries, in addition
// to the usual valid/dirty state, the EpochID+CoreID tag extension of the
// paper's Section 4.3, and the cache keeps the per-epoch line bookkeeping
// that the paper's flush engines maintain as set bitmaps.
//
// Two hot-path properties matter to the simulator's throughput. A set's
// ways exist only once the set is first touched: the cache keeps one
// uint32 per set naming its slot, and carves touched sets' ways from
// fixed-size chunks in first-touch order, so building a Table 1-sized
// machine (24 MiB of LLC way metadata were every set touched) costs 4
// bytes for each of the many sets a workload never references. And the
// per-epoch line bookkeeping keeps each epoch's lines as an incrementally
// sorted slice, so the flush engine's work list (LinesOf / AppendLinesOf)
// is already in deterministic order — no sort on any flush.
package cache

import (
	"fmt"
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

// setsPerChunk is how many sets' ways one chunk holds. Touching k sets
// allocates ⌈k / setsPerChunk⌉ chunks; a chunk is never copied or grown.
const setsPerChunk = 32

// Cache is a set-associative array with epoch-extended tags. It is a pure
// state container: all timing lives in the machine layer.
type Cache struct {
	cfg Config
	// index names each set's slot: 0 while the set is untouched, else
	// 1 + the slot its ways were carved into.
	index []uint32
	// chunks hold the slots' ways, setsPerChunk slots apiece, in
	// first-touch order; slots counts the slots carved so far.
	chunks [][]way
	slots  int
	tick   uint64
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
	return &Cache{
		cfg:     cfg,
		index:   make([]uint32, cfg.Sets),
		chunks:  make([][]way, 0, (cfg.Sets+setsPerChunk-1)/setsPerChunk),
		byEpoch: make(map[epoch.ID][]mem.Line),
	}, nil
}

// MustNew is New for statically known-good configs; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

func (c *Cache) setOf(line mem.Line) int {
	return int((uint64(line) >> c.cfg.IndexShift) % uint64(c.cfg.Sets))
}

// setFor returns line's set, which is nil when never touched.
func (c *Cache) setFor(line mem.Line) []way {
	k := c.index[c.setOf(line)]
	if k == 0 {
		return nil
	}
	return c.slot(int(k) - 1)
}

// slot returns the ways of carved slot k.
func (c *Cache) slot(k int) []way {
	lo := k % setsPerChunk * c.cfg.Ways
	hi := lo + c.cfg.Ways
	return c.chunks[k/setsPerChunk][lo:hi:hi]
}

// ensureSet returns line's set, carving its ways on first touch. The
// last chunk is cut short when fewer sets than a full chunk remain
// untouched.
func (c *Cache) ensureSet(line mem.Line) []way {
	i := c.setOf(line)
	if c.index[i] == 0 {
		if c.slots%setsPerChunk == 0 {
			n := min(setsPerChunk, c.cfg.Sets-c.slots)
			c.chunks = append(c.chunks, make([]way, n*c.cfg.Ways))
		}
		c.slots++
		c.index[i] = uint32(c.slots)
	}
	return c.slot(int(c.index[i]) - 1)
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
	if set == nil {
		return Entry{}, false
	}
	for i := range set {
		if !set[i].valid {
			return Entry{}, false
		}
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
	if set == nil {
		return Entry{}, false, true
	}
	for i := range set {
		if !set[i].valid {
			return Entry{}, false, true
		}
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
	set := c.ensureSet(line)
	var slot *way
	for i := range set {
		if !set[i].valid {
			slot = &set[i]
			break
		}
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

// Retag moves a resident dirty line from one epoch tag to another; the
// deadlock-avoidance split (Section 3.3) uses it when an ongoing epoch's
// already-written lines are reassigned to the first half of the split.
// Absent lines are ignored.
func (c *Cache) Retag(line mem.Line, from, to epoch.ID) {
	w := c.find(line)
	if w == nil || w.tag != from {
		return
	}
	c.dropFromEpoch(from, line)
	w.tag = to
	if to.Valid() {
		c.addToEpoch(to, line)
	}
}

// LinesOf returns the resident lines tagged with the given epoch, in
// deterministic (sorted) order — the flush engine's work list. The slice
// is freshly allocated; AppendLinesOf reuses a caller buffer instead.
func (c *Cache) LinesOf(id epoch.ID) []mem.Line {
	set := c.byEpoch[id]
	if len(set) == 0 {
		return nil
	}
	out := make([]mem.Line, len(set))
	copy(out, set)
	return out
}

// AppendLinesOf appends the epoch's resident lines (already sorted) to
// dst and returns it. The flush engine calls this with a reused scratch
// buffer, so steady-state flushes do not allocate; the snapshot semantics
// let the caller clean or invalidate lines while iterating.
func (c *Cache) AppendLinesOf(dst []mem.Line, id epoch.ID) []mem.Line {
	return append(dst, c.byEpoch[id]...)
}

// EpochLineCount reports how many resident lines carry the given tag.
func (c *Cache) EpochLineCount(id epoch.ID) int { return len(c.byEpoch[id]) }

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

// DirtyLines returns every dirty resident line (sorted); the end-of-run
// drain uses it.
func (c *Cache) DirtyLines() []Entry {
	var out []Entry
	for _, chunk := range c.chunks {
		for i := range chunk {
			w := &chunk[i]
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
