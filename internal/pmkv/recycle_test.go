// Tests for the entry-line free list: the heap stays an exact partition
// into live, in-flight and free spans, a same-window race frees the loser
// by record order, reuse is LIFO within a size class, and a line recycled
// early is caught.
package pmkv

import (
	"bytes"
	"fmt"
	"testing"

	"persistbarriers/internal/mem"
)

// heapPartition checks that the lines the bump pointer has carved are
// exactly the live checkpoint entries' spans, the tail Puts' spans and the
// free spans, each at its class size and none twice — so no span was freed
// twice, freed while an entry still owns it, or lost — and that the overlay
// is a view of the tail: every live record is an unfolded one filed under
// its own key, and no live Put's entry (what a GET loads) is on the free
// list.
func heapPartition(t *testing.T, e *Engine, when string) {
	t.Helper()
	bumped := e.Stats().EntryLinesBumped
	e.mu.Lock()
	defer e.mu.Unlock()
	owner := make(map[mem.Line]string)
	claim := func(first mem.Line, class int, who string) {
		for i := 0; i < 1<<class; i++ {
			l := first + mem.Line(i)
			if prev, dup := owner[l]; dup {
				t.Fatalf("%s: line %v belongs to %s and to %s", when, l, prev, who)
			}
			owner[l] = who
		}
	}
	for c, stack := range e.free {
		for _, en := range stack {
			claim(en.span.first, c, "the free list")
		}
	}
	if len(e.live) > len(e.tail) {
		t.Fatalf("%s: %d live records, %d in the tail", when, len(e.live), len(e.tail))
	}
	for key, r := range e.live {
		if i := r.Idx - e.durableCursor; r.Key != key || i < 0 || i >= len(e.tail) || e.tail[i] != r {
			t.Fatalf("%s: live[%q] is record %d of %q, which is not in the tail (%d records from %d)",
				when, key, r.Idx, r.Key, len(e.tail), e.durableCursor)
		}
		if _, free := owner[r.EntryLine]; free {
			t.Fatalf("%s: %q's live entry at %v is on the free list", when, key, r.EntryLine)
		}
	}
	e.cp.each(func(en *cpEntry) {
		claim(en.span.first, sizeClass(en.span.n), "folded "+en.key)
	})
	for _, r := range e.tail {
		claim(r.EntryLine, sizeClass(r.Entries), "unfolded "+r.Key)
	}
	if bumped != len(owner) {
		t.Fatalf("%s: %d lines carved, %d accounted for", when, bumped, len(owner))
	}
}

// TestFreeListConservesSpans: over the long script, at the clean close and
// at 50 crash instants, every carved line has exactly one owner.
func TestFreeListConservesSpans(t *testing.T) {
	spec := longSpec()
	clean, out, err := runPlantedEngine(Config{}, spec, plantNone)
	if err != nil {
		t.Fatal(err)
	}
	heapPartition(t, clean, "clean run")
	if ret := clean.Stats().Retention; ret.EntryLinesRecycled < 4*ret.EntryLinesBumped {
		t.Fatalf("%d lines recycled against %d carved: the free list is barely used", ret.EntryLinesRecycled, ret.EntryLinesBumped)
	}
	for _, at := range SweepInstants(out.Stats.Cycle, 50) {
		e, _, err := runPlantedEngine(Config{CrashAt: at}, spec, plantNone)
		if err != nil {
			t.Fatalf("crash at %d: %v", at, err)
		}
		heapPartition(t, e, fmt.Sprintf("crash at %d", at))
	}
}

// settle drives the engine until every record issued so far is folded,
// which leaves the overlay nothing to hold.
func settle(t *testing.T, e *Engine) {
	t.Helper()
	n := e.RecordCount()
	if d, err := e.WaitDurable(n); err != nil || d != n {
		t.Fatalf("%d of %d records durable, err %v", d, n, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.live) != 0 {
		t.Fatalf("everything is folded and %d keys are still served from the overlay", len(e.live))
	}
}

// servedSpan is the entry a GET of key would load now.
func servedSpan(e *Engine, key string) lineSpan {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, _, _, span := e.observedRead(-1, key)
	return span
}

// onFreeList counts how many times a span's first line is on the list.
func onFreeList(e *Engine, s lineSpan) int {
	n := 0
	for _, stack := range e.free {
		for _, en := range stack {
			if en.span.first == s.first {
				n++
			}
		}
	}
	return n
}

// TestFreeListRaceLoser: two sessions on different cores put one key in
// one commit window. The winner is the record translated second — a key's
// order is its record index, whichever entry persists first — so the
// window is run with the longer value second, then with the shorter.
// Either way the loser's span is freed once and the winner's not at all,
// the key's current entry is the winner's, and the next Put of the
// loser's size gets the loser's lines.
func TestFreeListRaceLoser(t *testing.T) {
	small, large := bytes.Repeat([]byte{'s'}, 8), bytes.Repeat([]byte{'l'}, 250)
	for _, second := range []struct {
		name       string
		val, other []byte
		wins       bool
	}{
		{"second record wins", large, small, true},
		{"second record wins, smaller", small, large, true},
	} {
		e, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		s0, s1 := e.NewSession(), e.NewSession()
		if s0.Core == s1.Core {
			t.Fatal("sessions share a core")
		}
		if _, err := e.SubmitAppend(nil, []Request{
			{Sess: s0, Op: Put, Key: "k", Value: second.other},
			{Sess: s1, Op: Put, Key: "k", Value: second.val},
		}); err != nil {
			t.Fatal(err)
		}
		loser := lineSpan{first: e.tail[0].EntryLine, n: e.tail[0].Entries}
		winner := lineSpan{first: e.tail[1].EntryLine, n: e.tail[1].Entries}
		if !second.wins {
			winner, loser = loser, winner
		}
		if err := e.PumpRetire(); err != nil {
			t.Fatal(err)
		}
		settle(t, e)
		if en := e.cp.lookup("k"); en == nil || en.span != winner || (en.rec == 1) != second.wins {
			t.Fatalf("%s: checkpoint holds %+v, want span %+v", second.name, en, winner)
		}
		if n := onFreeList(e, loser); n != 1 {
			t.Fatalf("%s: loser's span is on the free list %d times", second.name, n)
		}
		if n := onFreeList(e, winner); n != 0 {
			t.Fatalf("%s: winner's span is on the free list", second.name)
		}
		if got := servedSpan(e, "k"); got != winner {
			t.Fatalf("%s: GETs of k would load %+v, the winner's lines are %+v", second.name, got, winner)
		}
		heapPartition(t, e, second.name)
		bumped := e.nextEntry
		loserVal := small
		if loser.n > 1 {
			loserVal = large
		}
		if _, err := apply(e, []Request{{Sess: s0, Op: Put, Key: "other", Value: loserVal}}); err != nil {
			t.Fatal(err)
		}
		if got := servedSpan(e, "other"); got != loser || e.nextEntry != bumped {
			t.Fatalf("%s: next Put got %+v (bump pointer moved: %v), want the loser's %+v", second.name, got, e.nextEntry != bumped, loser)
		}
		settle(t, e)
		heapPartition(t, e, second.name+", after reuse")
		res, err := e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Verify(res); err != nil {
			t.Fatalf("%s: %v", second.name, err)
		}
	}
}

// TestFreeListLIFOAndClasses: a freed span goes back to a Put of its size
// class, newest first, and the bump pointer rests while a class has one.
func TestFreeListLIFOAndClasses(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	// put applies one window of Puts (key, value size) and waits until they
	// are folded; it returns the last key's span.
	type kv struct {
		key string
		n   int
	}
	put := func(kvs ...kv) lineSpan {
		t.Helper()
		var batch []Request
		for _, p := range kvs {
			batch = append(batch, Request{Sess: s, Op: Put, Key: p.key, Value: make([]byte, p.n)})
		}
		if _, err := apply(e, batch); err != nil {
			t.Fatal(err)
		}
		settle(t, e)
		return servedSpan(e, kvs[len(kvs)-1].key)
	}
	a, a2, b := put(kv{"a", 64}), put(kv{"a2", 64}), put(kv{"b", 192})
	if a.n != 1 || a2.n != 1 || b.n != 3 || sizeClass(b.n) != 2 {
		t.Fatalf("spans %+v %+v %+v", a, a2, b)
	}
	// Supersede all three in one window: nothing is free until it folds, so
	// the new entries are carved, and the old ones come free in this order.
	put(kv{"a", 64}, kv{"a2", 64}, kv{"b", 192})
	bumped := e.nextEntry
	if got := e.Stats().EntryLinesBumped; got != 2*(1+1+4) {
		t.Fatalf("%d lines carved, want 12 (a 3-line entry takes a 4-line span)", got)
	}
	if got := put(kv{"c", 64}); got != a2 {
		t.Fatalf("64 B Put got %+v, want the newest freed 1-line span %+v", got, a2)
	}
	if got := put(kv{"d", 1}); got != a {
		t.Fatalf("1 B Put got %+v, want the older freed 1-line span %+v", got, a)
	}
	if got := put(kv{"e", 129}); got != b {
		t.Fatalf("129 B Put got %+v, want the freed 4-line span %+v", got, b)
	}
	if e.nextEntry != bumped {
		t.Fatal("the bump pointer moved while the free list could serve")
	}
	if got := put(kv{"f", 65}); got.first != mem.LineOf(bumped) || got.n != 2 || e.nextEntry != bumped+2*mem.LineSize {
		t.Fatalf("65 B Put got %+v: an empty class must carve at the bump pointer", got)
	}
	heapPartition(t, e, "after reuse")
	if ret := e.Stats().Retention; ret.EntryLinesBumped != 14 || ret.EntryLinesRecycled != 6 || ret.EntryLinesFree != 0 {
		t.Fatalf("retention %+v, want 14 carved, 6 recycled, 0 free", ret)
	}
}

// TestPlantedRecycleEarly: an engine that frees a key's lines when the
// superseding write is translated — before that write is durable — lets
// the next write overwrite the key's newest durable entry. Only check 5, the
// checker or the client-history oracle may be what notices: the ordering
// checks compare with ">=" and are satisfied by the overwriting store
// itself.
func TestPlantedRecycleEarly(t *testing.T) {
	spec := longSpec()
	clean, err := runPlanted(Config{Check: true}, spec, plantNone)
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	instants := SweepInstants(clean.Stats.Cycle, 50)
	for _, at := range instants {
		if _, err := runPlanted(Config{CrashAt: at, Check: true}, spec, plantNone); err != nil {
			t.Fatalf("crash at %d, nothing planted: %v", at, err)
		}
		out, err := runPlanted(Config{CrashAt: at, Check: true}, spec, plantRecycleEarly)
		if err == nil {
			if oracleCheck([]ShardResult{out}) != nil {
				caught++
			}
			continue
		}
		caught++
		if !CaughtEarlyRecycle(err) {
			t.Fatalf("crash at %d: caught by an unexpected check: %v", at, err)
		}
	}
	t.Logf("planted early recycle caught at %d of %d crash instants", caught, len(instants))
	if caught < len(instants)/2 {
		t.Fatalf("planted early recycle caught at only %d of %d crash instants", caught, len(instants))
	}
}
