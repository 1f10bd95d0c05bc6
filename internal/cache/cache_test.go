package cache

import (
	"fmt"
	"math/rand/v2"
	"reflect"
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
	lines := c.LinesOf(e(2, 7))
	if len(lines) != 1 || lines[0] != 4 {
		t.Fatalf("LinesOf = %v", lines)
	}
}

func TestWriteMovesLineBetweenEpochs(t *testing.T) {
	c := small(t)
	c.Insert(4, true, e(1, 1), 1)
	c.Write(4, e(1, 3), 2)
	if n := c.EpochLineCount(e(1, 1)); n != 0 {
		t.Fatalf("old epoch still has %d lines", n)
	}
	if n := c.EpochLineCount(e(1, 3)); n != 1 {
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
	if c.EpochLineCount(e(1, 1)) != 0 {
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

func TestRetagForEpochSplit(t *testing.T) {
	c := small(t)
	c.Insert(0, true, e(1, 5), 1)
	c.Insert(2, true, e(1, 5), 2)
	c.Retag(0, e(1, 5), e(1, 6))
	if c.EpochLineCount(e(1, 5)) != 1 || c.EpochLineCount(e(1, 6)) != 1 {
		t.Fatalf("split bookkeeping wrong: %d / %d",
			c.EpochLineCount(e(1, 5)), c.EpochLineCount(e(1, 6)))
	}
	// Retag with mismatched 'from' is a no-op.
	c.Retag(2, e(9, 9), e(1, 6))
	if c.EpochLineCount(e(1, 5)) != 1 {
		t.Fatal("mismatched retag moved a line")
	}
}

func TestLinesOfDeterministicOrder(t *testing.T) {
	c := MustNew(Config{Name: "big", Sets: 64, Ways: 4})
	for _, l := range []mem.Line{192, 0, 64, 128} {
		c.Insert(l, true, e(1, 1), 1)
	}
	lines := c.LinesOf(e(1, 1))
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] {
			t.Fatalf("LinesOf not sorted: %v", lines)
		}
	}
}

func TestEvictionDropsEpochBookkeeping(t *testing.T) {
	c := MustNew(Config{Name: "tiny", Sets: 1, Ways: 1})
	c.Insert(0, true, e(1, 1), 1)
	c.Insert(1, false, epoch.None, 0) // evicts line 0
	if c.EpochLineCount(e(1, 1)) != 0 {
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
			if counts[tag] != c.EpochLineCount(tag) {
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
// whatever its size, and first touches carve ways a whole chunk at a time.
func TestNewAllocs(t *testing.T) {
	for _, sets := range []int{1, setsPerChunk, 1024, 1 << 16} {
		cfg := Config{Name: "t", Sets: sets, Ways: 16}
		if n := testing.AllocsPerRun(20, func() { MustNew(cfg) }); n > 4 {
			t.Errorf("New with %d sets allocates %.1f times, want <= 4", sets, n)
		}
	}
	const sets = 4*setsPerChunk + 7
	cfg := Config{Name: "t", Sets: sets, Ways: 4}
	base := testing.AllocsPerRun(20, func() { MustNew(cfg) })
	for _, k := range []int{1, setsPerChunk - 1, setsPerChunk, setsPerChunk + 1, sets} {
		n := testing.AllocsPerRun(20, func() {
			c := MustNew(cfg)
			// First touches in descending set order.
			for s := k - 1; s >= 0; s-- {
				c.Insert(mem.Line(s), false, epoch.None, 0)
			}
		}) - base
		if want := float64((k + setsPerChunk - 1) / setsPerChunk); n > want {
			t.Errorf("touching %d sets allocates %.1f times, want <= %.0f", k, n, want)
		}
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
// LRU clock and victim preference, with no way arrays at all.
type refCache struct {
	cfg   Config
	lines map[mem.Line]*refLine
	// resident lists lines' keys in a deterministic order to pick from.
	resident []mem.Line
	tick     uint64
	stats    Stats
}

func (r *refCache) add(l mem.Line, x *refLine) {
	r.lines[l] = x
	r.resident = append(r.resident, l)
}

func (r *refCache) remove(l mem.Line) {
	delete(r.lines, l)
	i := slices.Index(r.resident, l)
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
	var in []mem.Line
	for m := range r.lines {
		if r.set(m) == r.set(l) {
			in = append(in, m)
		}
	}
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

// TestMatchesReferenceAcrossChunks drives random operation sequences
// through caches with more sets than one chunk holds, first touching
// sets out of order, and compares every answer with refCache.
func TestMatchesReferenceAcrossChunks(t *testing.T) {
	for _, ways := range []int{1, 3, 4, 16} {
		for _, shift := range []uint{0, 2} {
			cfg := Config{Name: "t", Sets: 2*setsPerChunk + 11, Ways: ways, IndexShift: shift}
			t.Run(fmt.Sprintf("ways=%d/shift=%d", ways, shift), func(t *testing.T) {
				checkAgainstReference(t, cfg, uint64(ways)<<8|uint64(shift))
			})
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, seed uint64) {
	c := MustNew(cfg)
	ref := &refCache{cfg: cfg, lines: make(map[mem.Line]*refLine)}
	rng := rand.New(rand.NewPCG(seed, 1))
	// A universe of twice the cache's capacity, so sets fill and evict;
	// random picks touch sets in no particular order.
	universe := 2 * cfg.Sets * cfg.Ways << cfg.IndexShift
	pickLine := func() mem.Line { return mem.Line(rng.IntN(universe)) }
	pickResident := func() (mem.Line, bool) {
		if len(ref.resident) == 0 {
			return 0, false
		}
		return ref.resident[rng.IntN(len(ref.resident))], true
	}
	pickTag := func() epoch.ID {
		if rng.IntN(4) == 0 {
			return epoch.None
		}
		return e(rng.IntN(3), uint64(1+rng.IntN(4)))
	}
	var version mem.Version
	for step := 0; step < 6000; step++ {
		switch op := rng.IntN(8); op {
		case 0, 1: // Insert
			l := pickLine()
			if _, ok := ref.lines[l]; ok {
				continue
			}
			dirty := rng.IntN(2) == 0
			tag := epoch.None
			if dirty {
				tag = pickTag()
			}
			version++
			wantV, wantFull := ref.victim(l)
			gotV, gotFull := c.Victim(l)
			if gotFull != wantFull || gotFull && gotV != ref.entry(wantV) {
				t.Fatalf("step %d: Victim(%v) = %+v,%v, want %v,%v", step, l, gotV, gotFull, wantV, wantFull)
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
			ref.add(l, &refLine{dirty: dirty, tag: tag, version: version, lastUse: ref.tick})
			got, evicted := c.Insert(l, dirty, tag, version)
			if evicted != wantFull || got != want {
				t.Fatalf("step %d: Insert(%v) evicted %+v,%v, want %+v,%v", step, l, got, evicted, want, wantFull)
			}
		case 2: // Write
			l, ok := pickResident()
			if !ok {
				continue
			}
			want := ref.entry(l)
			tag := pickTag()
			version++
			ref.tick++
			*ref.lines[l] = refLine{dirty: true, tag: tag, version: version, lastUse: ref.tick}
			if got := c.Write(l, tag, version); got != want {
				t.Fatalf("step %d: Write(%v) = %+v, want %+v", step, l, got, want)
			}
		case 3: // CleanLine
			l := pickLine()
			if x, ok := ref.lines[l]; ok {
				x.dirty, x.tag = false, epoch.None
			}
			c.CleanLine(l)
		case 4: // Invalidate
			l, ok := pickResident()
			if !ok || rng.IntN(2) == 0 {
				l = pickLine()
			}
			_, want := ref.lines[l]
			var wantE Entry
			if want {
				wantE = ref.entry(l)
				ref.remove(l)
			}
			if got, ok := c.Invalidate(l); ok != want || got != wantE {
				t.Fatalf("step %d: Invalidate(%v) = %+v,%v, want %+v,%v", step, l, got, ok, wantE, want)
			}
		case 5: // Retag
			l, ok := pickResident()
			if !ok {
				continue
			}
			from, to := ref.lines[l].tag, pickTag()
			if rng.IntN(4) == 0 {
				from = pickTag() // usually a mismatch: a no-op
			}
			if x := ref.lines[l]; x.tag == from {
				x.tag = to
			}
			c.Retag(l, from, to)
		case 6: // Lookup
			l := pickLine()
			if rng.IntN(2) == 0 {
				if r, ok := pickResident(); ok {
					l = r
				}
			}
			x, want := ref.lines[l]
			var wantE Entry
			if want {
				ref.stats.Hits++
				ref.tick++
				x.lastUse = ref.tick
				wantE = ref.entry(l)
			} else {
				ref.stats.Misses++
			}
			if got, ok := c.Lookup(l); ok != want || got != wantE {
				t.Fatalf("step %d: Lookup(%v) = %+v,%v, want %+v,%v", step, l, got, ok, wantE, want)
			}
		case 7: // DirtyLines and the per-epoch bookkeeping
			if got, want := c.DirtyLines(), ref.dirtyLines(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: DirtyLines = %v, want %v", step, got, want)
			}
			id := pickTag()
			if !id.Valid() {
				continue
			}
			if got, want := c.LinesOf(id), ref.linesOf(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: LinesOf(%v) = %v, want %v", step, id, got, want)
			}
		}
	}
	if got := c.Stats(); got != ref.stats {
		t.Fatalf("stats %+v, want %+v", got, ref.stats)
	}
	if c.slots != cfg.Sets || len(c.chunks) != (cfg.Sets+setsPerChunk-1)/setsPerChunk {
		t.Fatalf("%d of %d sets touched in %d chunks: the run never filled every chunk", c.slots, cfg.Sets, len(c.chunks))
	}
}
