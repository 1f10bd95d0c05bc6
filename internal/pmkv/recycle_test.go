// Tests for the entry-line free list: the heap stays an exact partition
// into live, in-flight and free spans, a same-window race frees the loser
// by record order, a commit window's spans spread evenly over the memory
// controllers, reuse is LIFO per size class, core and controller with the
// writing core's own spans first, and a line recycled early is caught.
package pmkv

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"persistbarriers/internal/machine"
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
	for i, stack := range e.free {
		for _, en := range stack {
			claim(en.span.first, e.freeClass(i), "the free list")
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
// at 50 crash instants spread over the run (ShardResult.Cycles, the clock
// before the closing drain), every carved line has exactly one owner.
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
	crashed := 0
	for _, at := range sweepInstants(out.Cycles, 50) {
		e, _, err := runPlantedEngine(Config{CrashAt: at}, spec, plantNone)
		if err != nil {
			t.Fatalf("crash at %d: %v", at, err)
		}
		heapPartition(t, e, fmt.Sprintf("crash at %d", at))
		if e.Crashed() {
			crashed++
		}
	}
	t.Logf("%d of 50 instants crash inside the run", crashed)
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
// loser's size from the loser's core, on the loser's controller, gets the
// loser's lines.
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
		bumped := e.bumped
		loserVal := small
		if loser.n > 1 {
			loserVal = large
		}
		e.nextMC = controllerOf(loser.first)
		if _, err := apply(e, []Request{{Sess: s0, Op: Put, Key: "other", Value: loserVal}}); err != nil {
			t.Fatal(err)
		}
		if got := servedSpan(e, "other"); got != loser || e.bumped != bumped {
			t.Fatalf("%s: next Put got %+v (new lines carved: %v), want the loser's %+v", second.name, got, e.bumped != bumped, loser)
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

// TestFreeListLIFOAndClasses: spans start where the previous span ended,
// and a freed span goes back to a Put of its size class on its controller
// — the newest of the writing core's own first, then another core's —
// while the lanes rest; a controller with no free span of the class gets
// a new one from its own lane, though another controller holds one.
func TestFreeListLIFOAndClasses(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := e.NewSession(), e.NewSession()
	if s0.Core != 0 || s1.Core != 1 {
		t.Fatalf("sessions on cores %d and %d", s0.Core, s1.Core)
	}
	// put applies one window of Puts (session, key, value size), its first
	// span on controller mc, and waits until they are folded; it returns
	// the keys' spans.
	type kv struct {
		sess *Session
		key  string
		n    int
	}
	put := func(mc int, kvs ...kv) []lineSpan {
		t.Helper()
		var batch []Request
		for _, p := range kvs {
			batch = append(batch, Request{Sess: p.sess, Op: Put, Key: p.key, Value: make([]byte, p.n)})
		}
		e.nextMC = mc
		if _, err := apply(e, batch); err != nil {
			t.Fatal(err)
		}
		settle(t, e)
		var spans []lineSpan
		for _, p := range kvs {
			spans = append(spans, servedSpan(e, p.key))
		}
		return spans
	}
	spans := put(0, kv{s0, "a", 64}, kv{s0, "b", 192}, kv{s0, "c", 1})
	a, b, c := spans[0], spans[1], spans[2]
	if mcs := [...]int{controllerOf(a.first), controllerOf(b.first), controllerOf(c.first)}; a.n != 1 || b.n != 3 || sizeClass(b.n) != 2 || c.n != 1 || mcs != [...]int{0, 1, 0} {
		t.Fatalf("spans %+v %+v %+v on controllers %v, want 0, 1 and, after b's three lines, 0", a, b, c, mcs)
	}
	// Supersede all three in one window: nothing is free until it folds, so
	// the new entries are carved, and the old ones come free onto core 0's
	// stacks, c above a.
	put(2, kv{s1, "a", 64}, kv{s1, "c", 64}, kv{s0, "b", 192})
	if got := e.Stats().EntryLinesBumped; got != 2*(1+1+4) {
		t.Fatalf("%d lines carved, want 12 (a 3-line entry takes a 4-line span)", got)
	}
	bumped := e.bumped
	if got := put(0, kv{s0, "d", 64})[0]; got != c {
		t.Fatalf("core 0's 64 B Put got %+v, want its newest freed 1-line span %+v", got, c)
	}
	if got := put(0, kv{s1, "e", 1})[0]; got != a {
		t.Fatalf("core 1's 1 B Put got %+v, want core 0's freed 1-line span %+v", got, a)
	}
	if got := put(1, kv{s1, "f", 129})[0]; got != b {
		t.Fatalf("129 B Put got %+v, want the freed 4-line span %+v", got, b)
	}
	if e.bumped != bumped {
		t.Fatal("new lines were carved while the free list could serve")
	}
	// a's second entry, core 1's on controller 2, comes free; controller 0
	// has no free line left, so a Put there is carved from its lane.
	a2 := servedSpan(e, "a")
	put(3, kv{s1, "a", 64})
	if got := put(0, kv{s0, "g", 64})[0]; controllerOf(a2.first) != 2 || onFreeList(e, a2) != 1 || controllerOf(got.first) != 0 || e.bumped != bumped+2 {
		t.Fatalf("64 B Put on controller 0 got %+v, %d lines carved: want a new line there, beside the free %+v", got, e.bumped-bumped, a2)
	}
	heapPartition(t, e, "after reuse")
	if ret := e.Stats().Retention; ret.EntryLinesBumped != 14 || ret.EntryLinesRecycled != 6 || ret.EntryLinesFree != 1 {
		t.Fatalf("retention %+v, want 14 carved, 6 recycled, 1 free", ret)
	}
}

// TestWindowSpreadsOverControllers: every commit window of one-line
// entries — carved while the keys are new, reused once they are not —
// puts within one line of an even share on each memory controller.
func TestWindowSpreadsOverControllers(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []*Session{e.NewSession(), e.NewSession(), e.NewSession(), e.NewSession()}
	const windows, window, keys = 40, 45, 256
	for w := range windows {
		batch := make([]Request, window)
		for i := range batch {
			op, val := Put, []byte("v")
			if i%9 == 0 {
				op, val = Delete, nil
			}
			batch[i] = Request{Sess: sessions[i%len(sessions)], Op: op, Key: fmt.Sprintf("k%03d", (w*window+i*7)%keys), Value: val}
		}
		if _, err := e.SubmitAppend(nil, batch); err != nil {
			t.Fatal(err)
		}
		var per [machine.MemControllers]int
		for _, r := range e.tail {
			per[controllerOf(r.EntryLine)]++
		}
		if lo, hi := slices.Min(per[:]), slices.Max(per[:]); hi-lo > 1 {
			t.Fatalf("window %d puts %v lines on the controllers, want within one of %d each", w, per, window/len(per))
		}
		if err := e.PumpRetire(); err != nil {
			t.Fatal(err)
		}
		settle(t, e)
	}
	if ret := e.Stats().Retention; ret.EntryLinesRecycled < ret.EntryLinesBumped {
		t.Fatalf("%d lines recycled against %d carved: the windows were mostly carved", ret.EntryLinesRecycled, ret.EntryLinesBumped)
	}
	heapPartition(t, e, "after the windows")
}

// TestFreeListOwnCoreFirst: with lines of the right class free on the
// target controller from two cores, a core's write takes its own, though
// the other core's was freed later.
func TestFreeListOwnCoreFirst(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := e.NewSession(), e.NewSession()
	put := func(mc int, sess *Session, key string) lineSpan {
		t.Helper()
		e.nextMC = mc
		if _, err := apply(e, []Request{{Sess: sess, Op: Put, Key: key, Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
		settle(t, e)
		return servedSpan(e, key)
	}
	mine := put(0, s0, "mine")
	theirs := put(0, s1, "theirs")
	put(1, s0, "mine")
	put(1, s1, "theirs")
	if onFreeList(e, mine) != 1 || onFreeList(e, theirs) != 1 || controllerOf(mine.first) != 0 || controllerOf(theirs.first) != 0 {
		t.Fatalf("want %+v (core 0's) and %+v (core 1's) free on controller 0", mine, theirs)
	}
	if got := put(0, s0, "next"); got != mine {
		t.Fatalf("core 0's Put on controller 0 got %+v, want its own freed %+v before core 1's %+v", got, mine, theirs)
	}
	if got := put(0, s0, "after"); got != theirs {
		t.Fatalf("core 0's second Put got %+v, want core 1's freed %+v", got, theirs)
	}
	heapPartition(t, e, "after reuse")
}

// TestEntryLinesAllocFree: in steady state, taking a window's lines and
// giving them back allocates nothing: the stacks reuse their storage, a
// freed entry's value included, and a freed entry carries its writer's
// core itself.
func TestEntryLinesAllocFree(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 100)
	var ens [64]cpEntry
	cycle := func() {
		for i := range ens {
			core := i % e.cfg.Machine.Cores
			ens[i] = cpEntry{val: val, span: e.entryLinesFor(core, val), core: int32(core)}
		}
		for i := range ens {
			e.freeEntry(&ens[i])
		}
	}
	cycle()
	cycle()
	bumped := e.bumped
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("a window's lines taken and freed allocate %.2f times, want 0", avg)
	}
	if e.bumped != bumped {
		t.Fatalf("steady state carved %d new lines", e.bumped-bumped)
	}
}

// TestPlantedRecycleEarly: an engine that frees a key's lines when the
// superseding write is translated — before that write is durable — lets
// the next write overwrite the key's newest durable entry. Only check 5, the
// checker or the client-history oracle may be what notices: the ordering
// checks compare with ">=" and are satisfied by the overwriting store
// itself. Over fpdump-long's sweep check 5 must catch it.
func TestPlantedRecycleEarly(t *testing.T) {
	requireCaught(t, "fpdump-long", plantRecycleEarly, "overwritten")
}

// recycleEarlyScript is shaped for the early-recycle plant. Session 0
// puts four one-line keys, rewrites them in the next window, and puts four
// fresh keys in the window after: under the plant the rewrites free the
// old entries' lines at translate, one on each controller, and each fresh
// Put takes its core's own freed line on its controller. In the rewriting
// window session 1 first puts a 960-byte value, a lower record whose
// persist is slow, so the watermark holds the rewrites back from folding
// while the fresh stores persist over the entries they superseded. A
// closing window reads the four keys from session 1.
func recycleEarlyScript() Script {
	line := make([]byte, mem.LineSize)
	rewrite := []ScriptedOp{{Sess: 1, Op: Put, Key: "slow", Value: make([]byte, 960)}}
	var put, fresh, get []ScriptedOp
	for i := range 4 {
		key := fmt.Sprintf("k%d", i)
		put = append(put, ScriptedOp{Sess: 0, Op: Put, Key: key, Value: line})
		rewrite = append(rewrite, ScriptedOp{Sess: 0, Op: Put, Key: key, Value: line})
		fresh = append(fresh, ScriptedOp{Sess: 0, Op: Put, Key: fmt.Sprintf("f%d", i), Value: line})
		get = append(get, ScriptedOp{Sess: 1, Op: Get, Key: key})
	}
	return Script{put, rewrite, fresh, get}
}

// TestPlantedRecycleEarlyScript: over every image of recycleEarlyScript
// the early-recycle plant is rejected by Verify's check 5 and by the
// oracle, each at some image, so the plant's catch does not ride on which
// line fpdump-long's next write happens to take.
func TestPlantedRecycleEarlyScript(t *testing.T) {
	requireCaught(t, "recycle-early", plantRecycleEarly, "overwritten", "oracle")
}

// caughtEarlyRecycle reports whether err is a rejection an early recycle
// may be caught by: Verify's check 5 or a checker verdict. The older
// checks compare with ">=" and are satisfied by the overwriting store
// itself, so any other message means the wrong thing fired.
func caughtEarlyRecycle(err error) bool {
	return strings.Contains(err.Error(), "was overwritten while the entry was live") ||
		strings.Contains(err.Error(), "durable linearizability")
}
