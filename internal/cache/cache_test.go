package cache

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", Sets: 2, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func e(core int, num uint64) epoch.ID { return epoch.ID{Core: core, Num: num} }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Sets: 0, Ways: 4}); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 0}); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: chunkWays + 1}); err == nil {
		t.Error("a set wider than a chunk accepted")
	}
	if _, err := New(Config{Sets: 1 << 24, Ways: chunkWays}); err == nil {
		t.Error("way offsets beyond the index accepted")
	}
	if _, err := New(Config{Sets: 1024, Ways: chunkWays}); err != nil {
		t.Error(err)
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := small(t)
	if _, ok := c.Lookup(4); ok {
		t.Fatal("hit in empty cache")
	}
	c.Insert(4, false, epoch.None, 0)
	ent, ok := c.Lookup(4)
	if !ok || ent.Line != 4 || ent.Dirty {
		t.Fatalf("lookup after insert: %+v ok=%v", ent, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSetIndexingSeparatesSets(t *testing.T) {
	c := small(t) // 2 sets: even lines -> set 0, odd -> set 1
	c.Insert(0, false, epoch.None, 0)
	c.Insert(2, false, epoch.None, 0)
	// Set 0 is now full; inserting line 4 must evict, but line 1 (set 1)
	// must not.
	if _, evicted := c.Insert(1, false, epoch.None, 0); evicted {
		t.Fatal("insert into empty set evicted")
	}
	if _, evicted := c.Insert(4, false, epoch.None, 0); !evicted {
		t.Fatal("insert into full set did not evict")
	}
}

func TestIndexShift(t *testing.T) {
	c := MustNew(Config{Name: "b", Sets: 2, Ways: 1, IndexShift: 2})
	// With shift 2: lines 0..3 -> set 0, lines 4..7 -> set 1.
	c.Insert(0, false, epoch.None, 0)
	if _, evicted := c.Insert(4, false, epoch.None, 0); evicted {
		t.Fatal("lines 0 and 4 collided despite index shift")
	}
	if _, evicted := c.Insert(2, false, epoch.None, 0); !evicted {
		t.Fatal("lines 0 and 2 did not collide with shift 2")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t)
	c.Insert(0, false, epoch.None, 0) // set 0
	c.Insert(2, false, epoch.None, 0) // set 0
	c.Lookup(0)                       // make line 0 most recent
	ev, evicted := c.Insert(4, false, epoch.None, 0)
	if !evicted || ev.Line != 2 {
		t.Fatalf("evicted %+v (evicted=%v), want line 2", ev, evicted)
	}
}

func TestVictimPreviewMatchesInsert(t *testing.T) {
	c := small(t)
	c.Insert(0, true, e(1, 5), 10)
	c.Insert(2, false, epoch.None, 0)
	v, full := c.Victim(4)
	if !full {
		t.Fatal("full set reported free")
	}
	ev, evicted := c.Insert(4, false, epoch.None, 0)
	if !evicted || ev != v {
		t.Fatalf("Insert evicted %+v, Victim previewed %+v", ev, v)
	}
}

func TestVictimPrefersCleanOverDirtyTagged(t *testing.T) {
	c := small(t)
	c.Insert(0, true, e(1, 1), 1) // dirty, tagged, older LRU
	c.Insert(2, false, epoch.None, 0)
	v, full := c.Victim(4)
	if !full || v.Line != 2 {
		t.Fatalf("victim = %+v, want clean line 2 despite LRU", v)
	}
}

func TestVictimPrefersUntaggedDirtyOverTagged(t *testing.T) {
	c := small(t)
	c.Insert(0, true, e(1, 1), 1)    // dirty tagged (unpersisted epoch)
	c.Insert(2, true, epoch.None, 2) // dirty untagged (epoch persisted)
	v, full := c.Victim(4)
	if !full || v.Line != 2 {
		t.Fatalf("victim = %+v, want untagged dirty line 2", v)
	}
}

func TestVictimReportsFreeWay(t *testing.T) {
	c := small(t)
	c.Insert(0, false, epoch.None, 0)
	if _, full := c.Victim(2); full {
		t.Fatal("set with a free way reported full")
	}
}

func TestInsertDuplicatePanics(t *testing.T) {
	c := small(t)
	c.Insert(4, false, epoch.None, 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert did not panic")
		}
	}()
	c.Insert(4, false, epoch.None, 0)
}

func TestWriteTagsAndBookkeeps(t *testing.T) {
	c := small(t)
	c.Insert(4, false, epoch.None, 0)
	prev := c.Write(4, e(2, 7), 33)
	if prev.Dirty {
		t.Fatal("previous state reported dirty")
	}
	ent, _ := c.Peek(4)
	if !ent.Dirty || ent.Tag != e(2, 7) || ent.Version != 33 {
		t.Fatalf("after write: %+v", ent)
	}
	lines := c.AppendLinesOf(nil, e(2, 7))
	if len(lines) != 1 || lines[0] != 4 {
		t.Fatalf("AppendLinesOf = %v", lines)
	}
}

func TestWriteMovesLineBetweenEpochs(t *testing.T) {
	c := small(t)
	c.Insert(4, true, e(1, 1), 1)
	c.Write(4, e(1, 3), 2)
	if n := len(c.byEpoch[e(1, 1)]); n != 0 {
		t.Fatalf("old epoch still has %d lines", n)
	}
	if n := len(c.byEpoch[e(1, 3)]); n != 1 {
		t.Fatalf("new epoch has %d lines, want 1", n)
	}
}

func TestWriteNonResidentPanics(t *testing.T) {
	c := small(t)
	defer func() {
		if recover() == nil {
			t.Error("write of non-resident line did not panic")
		}
	}()
	c.Write(4, e(1, 1), 1)
}

func TestCleanLineKeepsDataDropsTag(t *testing.T) {
	c := small(t)
	c.Insert(4, true, e(1, 1), 9)
	c.CleanLine(4)
	ent, ok := c.Peek(4)
	if !ok {
		t.Fatal("clwb-style clean removed the line")
	}
	if ent.Dirty || ent.Tag.Valid() {
		t.Fatalf("after clean: %+v", ent)
	}
	if ent.Version != 9 {
		t.Fatalf("clean lost the version: %+v", ent)
	}
	if len(c.byEpoch[e(1, 1)]) != 0 {
		t.Fatal("epoch bookkeeping kept a cleaned line")
	}
	c.CleanLine(99) // absent line: no-op
}

func TestInvalidateRemovesLine(t *testing.T) {
	c := small(t)
	c.Insert(4, true, e(1, 1), 9)
	ent, ok := c.Invalidate(4)
	if !ok || ent.Version != 9 {
		t.Fatalf("invalidate returned %+v ok=%v", ent, ok)
	}
	if c.Contains(4) {
		t.Fatal("line still resident after invalidate")
	}
	if _, ok := c.Invalidate(4); ok {
		t.Fatal("double invalidate reported a drop")
	}
}

func TestLinesOfDeterministicOrder(t *testing.T) {
	c := MustNew(Config{Name: "big", Sets: 64, Ways: 4})
	for _, l := range []mem.Line{192, 0, 64, 128} {
		c.Insert(l, true, e(1, 1), 1)
	}
	lines := c.AppendLinesOf(nil, e(1, 1))
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] {
			t.Fatalf("AppendLinesOf not sorted: %v", lines)
		}
	}
}

func TestEvictionDropsEpochBookkeeping(t *testing.T) {
	c := MustNew(Config{Name: "tiny", Sets: 1, Ways: 1})
	c.Insert(0, true, e(1, 1), 1)
	c.Insert(1, false, epoch.None, 0) // evicts line 0
	if len(c.byEpoch[e(1, 1)]) != 0 {
		t.Fatal("evicted line still in epoch bookkeeping")
	}
	if c.Stats().DirtyEvicts != 1 {
		t.Fatalf("DirtyEvicts = %d, want 1", c.Stats().DirtyEvicts)
	}
}

func TestDirtyLinesSnapshot(t *testing.T) {
	c := MustNew(Config{Name: "big", Sets: 64, Ways: 4})
	c.Insert(5, true, e(0, 1), 1)
	c.Insert(3, true, e(0, 1), 2)
	c.Insert(9, false, epoch.None, 0)
	d := c.DirtyLines()
	if len(d) != 2 || d[0].Line != 3 || d[1].Line != 5 {
		t.Fatalf("DirtyLines = %+v", d)
	}
}

// Property: epoch bookkeeping always agrees with a full scan of the array.
func TestEpochBookkeepingConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(Config{Name: "p", Sets: 4, Ways: 2})
		tags := []epoch.ID{e(0, 1), e(0, 2), e(1, 1), epoch.None}
		for _, op := range ops {
			line := mem.Line(op % 16)
			tag := tags[(op>>4)%4]
			switch (op >> 6) % 4 {
			case 0:
				if !c.Contains(line) {
					c.Insert(line, tag.Valid(), tag, mem.Version(op))
				}
			case 1:
				if c.Contains(line) {
					c.Write(line, tag, mem.Version(op))
				}
			case 2:
				c.CleanLine(line)
			case 3:
				c.Invalidate(line)
			}
		}
		// Verify bookkeeping against a scan.
		counts := map[epoch.ID]int{}
		for _, ent := range c.DirtyLines() {
			if ent.Tag.Valid() {
				counts[ent.Tag]++
			}
		}
		for _, tag := range tags[:3] {
			if counts[tag] != len(c.byEpoch[tag]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNewAllocs: building a cache costs a constant number of allocations
// whatever its size, and first touches cut one-way slots a whole chunk at
// a time.
func TestNewAllocs(t *testing.T) {
	for _, sets := range []int{1, chunkWays, 1024, 1 << 16} {
		cfg := Config{Name: "t", Sets: sets, Ways: 16}
		if n := testing.AllocsPerRun(20, func() { MustNew(cfg) }); n > 4 {
			t.Errorf("New with %d sets allocates %.1f times, want <= 4", sets, n)
		}
	}
	const sets = 4*chunkWays + 7
	cfg := Config{Name: "t", Sets: sets, Ways: 4}
	base := testing.AllocsPerRun(20, func() { MustNew(cfg) })
	for _, k := range []int{1, chunkWays - 1, chunkWays, chunkWays + 1, sets} {
		n := testing.AllocsPerRun(20, func() {
			c := MustNew(cfg)
			// First touches in descending set order.
			for s := k - 1; s >= 0; s-- {
				c.Insert(mem.Line(s), false, epoch.None, 0)
			}
		}) - base
		if want := float64((k + chunkWays - 1) / chunkWays); n > want {
			t.Errorf("touching %d sets allocates %.1f times, want <= %.0f", k, n, want)
		}
	}
}

// TestSparseSetAllocs: a set holds the ways it uses. Inserting one line
// into each of k sets of a Table 1 LLC bank (1 024 sets x 16 ways) costs
// at most two ways' bytes per line, where full-width sets cost sixteen.
func TestSparseSetAllocs(t *testing.T) {
	cfg := Config{Name: "t", Sets: 1024, Ways: 16}
	wayBytes := uint64(reflect.TypeFor[way]().Size())
	for _, k := range []int{chunkWays, 256, cfg.Sets} {
		c := MustNew(cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for s := 0; s < k; s++ {
			// 7 is odd, so s*7 mod 1024 visits k distinct sets.
			c.Insert(mem.Line(s*7%cfg.Sets), false, epoch.None, 0)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 2*uint64(k)*wayBytes; got > limit {
			t.Errorf("one line in each of %d sets allocates %d bytes, want <= %d", k, got, limit)
		}
	}
}

// TestSetGrowsOnlyWhenFull: a set starts one way wide, an insert fills an
// Invalidate hole before the set grows, growing keeps every way at its
// index, and the top class is exactly Ways wide.
func TestSetGrowsOnlyWhenFull(t *testing.T) {
	c := MustNew(Config{Name: "t", Sets: 4, Ways: 3})
	// Lines 0, 4, 8, ... all map to set 0.
	want := func(lines ...mem.Line) {
		t.Helper()
		set := c.setFor(0)
		if len(set) != len(lines) {
			t.Fatalf("set is %d ways wide, want %d", len(set), len(lines))
		}
		for i, l := range lines {
			if !set[i].valid || set[i].line != l {
				t.Fatalf("way %d holds %+v, want line %v", i, set[i], l)
			}
		}
	}
	c.Insert(0, false, epoch.None, 0)
	want(0)
	c.Insert(4, true, e(0, 1), 1)
	want(0, 4)
	c.Invalidate(0)
	c.Insert(8, false, epoch.None, 0)
	want(8, 4)
	if _, full := c.Victim(12); full {
		t.Fatal("a set narrower than Ways reported full")
	}
	c.Insert(12, false, epoch.None, 0)
	want(8, 4, 12)
	if _, full := c.Victim(16); !full {
		t.Fatal("a full top-class set reported a free way")
	}
	if ev, evicted := c.Insert(16, false, epoch.None, 0); !evicted || ev.Line != 8 {
		t.Fatalf("evicted %+v (evicted=%v), want clean LRU line 8", ev, evicted)
	}
	want(16, 4, 12)
	if d := c.DirtyLines(); len(d) != 1 || d[0].Line != 4 {
		t.Fatalf("DirtyLines = %+v, want line 4 once", d)
	}
}

// TestVacatedChunkDropped: once every slot a class cut from a chunk has
// been vacated, the chunk's ways are dropped, and no slot of it is handed
// out again.
func TestVacatedChunkDropped(t *testing.T) {
	const sets = 2 * chunkWays
	c := MustNew(Config{Name: "t", Sets: sets, Ways: 2})
	held := func() (n int) {
		for _, ch := range c.chunks {
			if ch.ways != nil {
				n++
			}
		}
		return n
	}
	// The first chunkWays sets fill one class 0 chunk, then all grow to
	// their 2-way top class, vacating every slot of it.
	for s := 0; s < chunkWays; s++ {
		c.Insert(mem.Line(s), false, epoch.None, 0)
	}
	for s := 0; s < chunkWays; s++ {
		c.Insert(mem.Line(sets+s), true, e(0, 1), 1)
	}
	if n := held(); n != 2 {
		t.Fatalf("%d chunks held, want only the top class's 2", n)
	}
	// First touches of the other sets must cut a fresh class 0 chunk.
	for s := chunkWays; s < sets; s++ {
		c.Insert(mem.Line(s), false, epoch.None, 0)
	}
	for s := 0; s < sets; s++ {
		if !c.Contains(mem.Line(s)) {
			t.Fatalf("line %d lost", s)
		}
	}
	if n := held(); n != 3 {
		t.Fatalf("%d chunks held, want 3", n)
	}
	if d := c.DirtyLines(); len(d) != chunkWays {
		t.Fatalf("%d dirty lines, want %d", len(d), chunkWays)
	}
}

// refLine is one resident line of refCache.
type refLine struct {
	dirty   bool
	tag     epoch.ID
	version mem.Version
	lastUse uint64
}

// refCache is a map-based reference model of Cache: the same set mapping,
// LRU clock and victim preference, with no way arrays or size classes.
type refCache struct {
	cfg   Config
	lines map[mem.Line]*refLine
	// sets lists each set's resident lines; resident lists all of them in
	// a deterministic order to pick from.
	sets     [][]mem.Line
	resident []mem.Line
	tick     uint64
	stats    Stats
}

func (r *refCache) add(l mem.Line, x *refLine) {
	r.lines[l] = x
	r.sets[r.set(l)] = append(r.sets[r.set(l)], l)
	r.resident = append(r.resident, l)
}

func (r *refCache) remove(l mem.Line) {
	delete(r.lines, l)
	in := r.sets[r.set(l)]
	i := slices.Index(in, l)
	r.sets[r.set(l)] = slices.Delete(in, i, i+1)
	i = slices.Index(r.resident, l)
	r.resident = slices.Delete(r.resident, i, i+1)
}

func (r *refCache) set(l mem.Line) int {
	return int((uint64(l) >> r.cfg.IndexShift) % uint64(r.cfg.Sets))
}

func (r *refCache) entry(l mem.Line) Entry {
	x := r.lines[l]
	return Entry{Line: l, Dirty: x.dirty, Tag: x.tag, Version: x.version}
}

// victim returns the line Insert(l) would evict, if l's set is full.
func (r *refCache) victim(l mem.Line) (mem.Line, bool) {
	in := r.sets[r.set(l)]
	if len(in) < r.cfg.Ways {
		return 0, false
	}
	rank := func(x *refLine) int {
		switch {
		case !x.dirty:
			return 0
		case !x.tag.Valid():
			return 1
		}
		return 2
	}
	best := in[0]
	for _, m := range in[1:] {
		a, b := r.lines[m], r.lines[best]
		if rank(a) < rank(b) || rank(a) == rank(b) && a.lastUse < b.lastUse {
			best = m
		}
	}
	return best, true
}

func (r *refCache) dirtyLines() []Entry {
	var out []Entry
	for l, x := range r.lines {
		if x.dirty {
			out = append(out, r.entry(l))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

func (r *refCache) linesOf(id epoch.ID) []mem.Line {
	var out []mem.Line
	for l, x := range r.lines {
		if x.tag == id {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestMatchesReferenceAcrossChunks drives operation sequences through
// caches of more sets than a chunk has ways, in three phases — sparse,
// climbing and dense — and compares every answer with refCache. Together
// the phases take sets through every size class, open Invalidate holes
// before sets grow, and cut a second chunk in every class.
func TestMatchesReferenceAcrossChunks(t *testing.T) {
	for _, ways := range []int{1, 3, 4, 16} {
		for _, shift := range []uint{0, 2} {
			cfg := Config{Name: "t", Sets: 2*chunkWays + 11, Ways: ways, IndexShift: shift}
			t.Run(fmt.Sprintf("ways=%d/shift=%d", ways, shift), func(t *testing.T) {
				checkAgainstReference(t, cfg, uint64(ways)<<8|uint64(shift))
			})
		}
	}
}

// refCheck drives a Cache and a refCache through the same operations and
// fails the test at the first answer on which they differ.
type refCheck struct {
	t       *testing.T
	c       *Cache
	ref     *refCache
	rng     *rand.Rand
	steps   int
	version mem.Version
	// peak is the most sets seen in each size class at once.
	peak [maxClasses]int
}

func checkAgainstReference(t *testing.T, cfg Config, seed uint64) {
	r := &refCheck{
		t:   t,
		c:   MustNew(cfg),
		ref: &refCache{cfg: cfg, lines: make(map[mem.Line]*refLine), sets: make([][]mem.Line, cfg.Sets)},
		rng: rand.New(rand.NewPCG(seed, 1)),
	}
	capacity := cfg.Sets * cfg.Ways
	// Sparse: every set is first touched once, in no particular order;
	// then random operations over a universe of 64 times the capacity,
	// with an Invalidate whenever more lines than half the sets are
	// resident, so most sets stay one or two ways wide and holes open in
	// sets before they grow.
	for _, s := range r.rng.Perm(cfg.Sets) {
		r.insert(r.lineIn(s))
	}
	r.tally()
	for n := 0; n < 2000; n++ {
		if l, ok := r.pickResident(); ok && len(r.ref.resident) > cfg.Sets/2 {
			r.invalidate(l)
		} else {
			r.random(64 * capacity)
		}
		r.tally()
	}
	// Climbing: round after round every set gets one more line, in a
	// fresh order, a quarter of them just after an Invalidate hole opens
	// in them, so the sets move through the classes together, reach full
	// width and evict.
	for round := 0; round < 2*cfg.Ways+2; round++ {
		for _, s := range r.rng.Perm(cfg.Sets) {
			if in := r.ref.sets[s]; len(in) > 0 && r.rng.IntN(4) == 0 {
				r.invalidate(in[r.rng.IntN(len(in))])
			}
			r.insert(r.lineIn(s))
			r.random(2 * capacity)
		}
		r.tally()
	}
	for s, k := range r.c.index {
		if k>>classShift != r.c.top() {
			t.Fatalf("set %d is in class %d after the climb, want %d", s, k>>classShift, r.c.top())
		}
	}
	// Every set is full width, so each lower class has dropped every chunk
	// it finished cutting: the top class's chunks are left, and at most
	// one partly cut chunk per lower class.
	held := 0
	for _, ch := range r.c.chunks {
		if ch.ways != nil {
			held++
		}
	}
	perTop := chunkWays / r.c.width(r.c.top())
	if limit := (cfg.Sets+perTop-1)/perTop + int(r.c.top()); held > limit {
		t.Fatalf("%d chunks held with every set full width, want <= %d", held, limit)
	}
	// Dense: a universe twice the capacity, so sets stay full and evict.
	for n := 0; n < 4000; n++ {
		r.random(2 * capacity)
	}
	r.scan()
	if got := r.c.Stats(); got != r.ref.stats {
		t.Fatalf("stats %+v, want %+v", got, r.ref.stats)
	}
	// A class that once held more sets than a chunk has slots of its
	// width has cut a second chunk.
	for cls := uint32(0); cls <= r.c.top(); cls++ {
		if per := chunkWays / r.c.width(cls); r.peak[cls] <= per {
			t.Fatalf("class %d held at most %d sets at once, never more than the %d of one chunk", cls, r.peak[cls], per)
		}
	}
}

// lineIn returns a random non-resident line of set s.
func (r *refCheck) lineIn(s int) mem.Line {
	cfg := r.c.cfg
	for {
		l := mem.Line((s+cfg.Sets*r.rng.IntN(1<<16))<<cfg.IndexShift | r.rng.IntN(1<<cfg.IndexShift))
		if _, ok := r.ref.lines[l]; !ok {
			return l
		}
	}
}

func (r *refCheck) pickResident() (mem.Line, bool) {
	if len(r.ref.resident) == 0 {
		return 0, false
	}
	return r.ref.resident[r.rng.IntN(len(r.ref.resident))], true
}

func (r *refCheck) pickTag() epoch.ID {
	if r.rng.IntN(4) == 0 {
		return epoch.None
	}
	return e(r.rng.IntN(3), uint64(1+r.rng.IntN(4)))
}

// tally records how many sets each size class holds now.
func (r *refCheck) tally() {
	var n [maxClasses]int
	for _, k := range r.c.index {
		if k != 0 {
			n[k>>classShift]++
		}
	}
	for cls := range n {
		r.peak[cls] = max(r.peak[cls], n[cls])
	}
}

// random runs one random operation on a line of a universe of the given
// size, or on a resident line, and every 32nd operation scans the arrays.
func (r *refCheck) random(universe int) {
	pickLine := func() mem.Line { return mem.Line(r.rng.IntN(universe)) }
	switch r.rng.IntN(6) {
	case 0, 1:
		if l := pickLine(); r.ref.lines[l] == nil {
			r.insert(l)
		}
	case 2:
		if l, ok := r.pickResident(); ok {
			r.write(l)
		}
	case 3:
		r.clean(pickLine())
	case 4:
		l, ok := r.pickResident()
		if !ok || r.rng.IntN(2) == 0 {
			l = pickLine()
		}
		r.invalidate(l)
	case 5:
		l := pickLine()
		if res, ok := r.pickResident(); ok && r.rng.IntN(2) == 0 {
			l = res
		}
		r.lookup(l)
	}
	if r.steps%32 == 0 {
		r.scan()
	}
}

// insert inserts the non-resident line l, checking the Victim preview and
// the eviction.
func (r *refCheck) insert(l mem.Line) {
	r.steps++
	c, ref := r.c, r.ref
	dirty := r.rng.IntN(2) == 0
	tag := epoch.None
	if dirty {
		tag = r.pickTag()
	}
	r.version++
	wantV, wantFull := ref.victim(l)
	gotV, gotFull := c.Victim(l)
	if gotFull != wantFull || gotFull && gotV != ref.entry(wantV) {
		r.t.Fatalf("step %d: Victim(%v) = %+v,%v, want %v,%v", r.steps, l, gotV, gotFull, wantV, wantFull)
	}
	var want Entry
	if wantFull {
		want = ref.entry(wantV)
		ref.stats.Evictions++
		if want.Dirty {
			ref.stats.DirtyEvicts++
		}
		ref.remove(wantV)
	}
	ref.tick++
	ref.add(l, &refLine{dirty: dirty, tag: tag, version: r.version, lastUse: ref.tick})
	got, evicted := c.Insert(l, dirty, tag, r.version)
	if evicted != wantFull || got != want {
		r.t.Fatalf("step %d: Insert(%v) evicted %+v,%v, want %+v,%v", r.steps, l, got, evicted, want, wantFull)
	}
}

func (r *refCheck) write(l mem.Line) {
	r.steps++
	want := r.ref.entry(l)
	tag := r.pickTag()
	r.version++
	r.ref.tick++
	*r.ref.lines[l] = refLine{dirty: true, tag: tag, version: r.version, lastUse: r.ref.tick}
	if got := r.c.Write(l, tag, r.version); got != want {
		r.t.Fatalf("step %d: Write(%v) = %+v, want %+v", r.steps, l, got, want)
	}
}

func (r *refCheck) clean(l mem.Line) {
	r.steps++
	if x, ok := r.ref.lines[l]; ok {
		x.dirty, x.tag = false, epoch.None
	}
	r.c.CleanLine(l)
}

func (r *refCheck) invalidate(l mem.Line) {
	r.steps++
	_, want := r.ref.lines[l]
	var wantE Entry
	if want {
		wantE = r.ref.entry(l)
		r.ref.remove(l)
	}
	if got, ok := r.c.Invalidate(l); ok != want || got != wantE {
		r.t.Fatalf("step %d: Invalidate(%v) = %+v,%v, want %+v,%v", r.steps, l, got, ok, wantE, want)
	}
}

func (r *refCheck) lookup(l mem.Line) {
	r.steps++
	x, want := r.ref.lines[l]
	var wantE Entry
	if want {
		r.ref.stats.Hits++
		r.ref.tick++
		x.lastUse = r.ref.tick
		wantE = r.ref.entry(l)
	} else {
		r.ref.stats.Misses++
	}
	if got, ok := r.c.Lookup(l); ok != want || got != wantE {
		r.t.Fatalf("step %d: Lookup(%v) = %+v,%v, want %+v,%v", r.steps, l, got, ok, wantE, want)
	}
}

// scan compares DirtyLines and one epoch's AppendLinesOf, the two answers
// that read the whole array or the per-epoch bookkeeping.
func (r *refCheck) scan() {
	if got, want := r.c.DirtyLines(), r.ref.dirtyLines(); !reflect.DeepEqual(got, want) {
		r.t.Fatalf("step %d: DirtyLines = %v, want %v", r.steps, got, want)
	}
	id := r.pickTag()
	if !id.Valid() {
		return
	}
	if got, want := r.c.AppendLinesOf(nil, id), r.ref.linesOf(id); !reflect.DeepEqual(got, want) {
		r.t.Fatalf("step %d: AppendLinesOf(%v) = %v, want %v", r.steps, id, got, want)
	}
}
