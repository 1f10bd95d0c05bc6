package pmkv

import (
	"fmt"
	"runtime"
	"testing"

	"persistbarriers/internal/sim"
)

// gapRig drives one engine the way the shard worker does with its mailbox
// idle, without the worker: a round submits a batch and pumps it, then
// four times polls and takes a Gap on the oldest batch still waiting for
// its ack (a window's entries share one epoch per core, so a batch takes a
// few Gaps to become durable).
type gapRig struct {
	e        *Engine
	sess     []*Session
	targets  []int // oldest first: each batch's RecordCount, until the watermark covers it
	round    int
	gapsLeft int // in this round
}

func newGapRig(t *testing.T, cfg Config) *gapRig {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &gapRig{e: e}
	for i := 0; i < 4; i++ {
		r.sess = append(r.sess, e.NewSession())
	}
	return r
}

// commit is a round's Submit and Pump: eight writes over 24 keys, values
// of one or two lines, except the batch's last record, an eight-line Put,
// which often becomes durable last.
func (r *gapRig) commit(t *testing.T) {
	t.Helper()
	var reqs []Request
	for i := 0; i < 8; i++ {
		op, n := Put, (r.round*8+i)*7
		if n%5 == 0 && i < 7 {
			op = Delete
		}
		size := 16 + n%96
		if i == 7 {
			size = 512
		}
		reqs = append(reqs, Request{Sess: r.sess[i%len(r.sess)], Op: op, Key: fmt.Sprintf("g%02d", n%24), Value: make([]byte, size)})
	}
	r.round++
	if _, err := r.e.SubmitAppend(nil, reqs); err != nil {
		t.Fatal(err)
	}
	r.targets = append(r.targets, r.e.RecordCount())
	if err := r.e.PumpRetire(); err != nil {
		t.Fatal(err)
	}
}

// next brings the rig up to its next Gap: a new round's commit when this
// round's four Gaps are taken, then a Poll.
func (r *gapRig) next(t *testing.T) {
	if r.gapsLeft == 0 {
		r.commit(t)
		r.gapsLeft = 4
	}
	r.gapsLeft--
	d, _, _ := r.e.DurableWatermark()
	for len(r.targets) > 0 && r.targets[0] <= d {
		r.targets = r.targets[1:]
	}
}

// oldest is what the worker hands Gap: the oldest unacked batch's target,
// or 0 with nothing pending.
func (r *gapRig) oldest() int {
	if len(r.targets) == 0 {
		return 0
	}
	return r.targets[0]
}

// rigAt is a rig that has taken gaps Gaps and stands before the next.
func rigAt(t *testing.T, cfg Config, gaps int) *gapRig {
	r := newGapRig(t, cfg)
	for i := 0; i < gaps; i++ {
		r.next(t)
		if err := r.e.gap(r.oldest()); err != nil {
			t.Fatal(err)
		}
	}
	r.next(t)
	return r
}

// TestGapEndsAtDurable holds the Gap step to its rule. With a batch
// pending it ends at the cycle where a machine stepped one cycle at a time
// first has the durable watermark cover the batch, or after gapCycles if
// that comes first. With nothing pending it takes the full gap. It never
// passes CrashAt, and power lost at the instant it would end still runs
// the rest of that cycle: a crash image holds every event at its instant.
func TestGapEndsAtDurable(t *testing.T) {
	early, full, midCycle := 0, 0, 0
	for gaps := 0; gaps < 96; gaps++ {
		gapped, oracle := rigAt(t, Config{}, gaps), rigAt(t, Config{}, gaps)
		target, start := gapped.oldest(), gapped.e.Now()
		if err := gapped.e.gap(target); err != nil {
			t.Fatal(err)
		}
		end := start + gapCycles
		for c := start; target > oracle.e.Committed() && c <= start+gapCycles; c++ {
			oracle.e.m.Step(c - oracle.e.Now()) // every event up to cycle c
			if d, _, _ := oracle.e.DurableWatermark(); d >= target {
				end = c
				break
			}
		}
		if got := gapped.e.Now(); got != end {
			t.Fatalf("after %d Gaps: the Gap for records below %d ran %d..%d, the one-cycle oracle has them durable at %d (gap bound %d)",
				gaps, target, start, got, end, start+gapCycles)
		}
		if end < start+gapCycles {
			early++
		} else {
			full++
		}
		// Events the oracle ran at cycle end that the Gap, stopping right
		// after the persist it waited for, left for later.
		left := gapped.e.m.Engine().Fired() < oracle.e.m.Engine().Fired()
		if left {
			midCycle++
		}

		for _, at := range []sim.Cycle{start + (end-start)/2, end} {
			if at == start || (at == end && !left && gaps%8 != 0) {
				continue
			}
			crashing := rigAt(t, Config{CrashAt: at}, gaps)
			if err := crashing.e.gap(target); err != ErrCrashed || crashing.e.Now() != at {
				t.Fatalf("after %d Gaps: Gap with CrashAt %d ends at %d, %v", gaps, at, crashing.e.Now(), err)
			}
			if at == end && crashing.e.m.Engine().Fired() != oracle.e.m.Engine().Fired() {
				t.Fatalf("after %d Gaps: power lost at %d after %d events, the oracle ran %d through that cycle",
					gaps, at, crashing.e.m.Engine().Fired(), oracle.e.m.Engine().Fired())
			}
		}
	}
	if early == 0 || full == 0 || midCycle == 0 {
		t.Fatalf("%d Gaps ended early (%d mid-cycle) and %d took the full gap: the probes miss a case", early, midCycle, full)
	}

	// Nothing pending — no target, or one the watermark already covers —
	// is the full gap, whatever persists in it.
	r := rigAt(t, Config{}, 3)
	for _, target := range []int{0, r.e.Committed()} {
		start := r.e.Now()
		if err := r.e.gap(target); err != nil || r.e.Now() != start+gapCycles {
			t.Fatalf("Gap with target %d (watermark %d) ran %d..%d, %v; want %d cycles", target, r.e.Committed(), start, r.e.Now(), err, gapCycles)
		}
	}
}

// TestGapAllocs: a Gap allocates nothing of its own. Its stop test runs
// before every simulated event, so one allocation there would be one per
// event. The persists a Gap runs do allocate (an epoch's history summary),
// so each Gap is held to a twin engine that runs the same events with a
// bare event count for a stop test: the two must allocate alike.
func TestGapAllocs(t *testing.T) {
	gapped, twin := newGapRig(t, Config{}), newGapRig(t, Config{})
	var fired uint64 // the twin runs while it has fired fewer events
	twinRunning := func() bool { return twin.e.m.Engine().Fired() < fired }
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	early := 0
	for i := 0; i < 600; i++ {
		gapped.next(t)
		twin.next(t)
		start, before := gapped.e.Now(), gapped.e.m.Engine().Fired()
		m0 := mallocs()
		err := gapped.e.gap(gapped.oldest())
		m1 := mallocs()
		end := gapped.e.Now()
		fired = gapped.e.m.Engine().Fired()
		twin.e.m.Engine().RunWhile(end, twinRunning)
		if twin.e.Now() < end {
			twin.e.m.Step(end - twin.e.Now())
		}
		m2 := mallocs()
		if err != nil {
			t.Fatal(err)
		}
		if twin.e.Now() != end || twin.e.m.Engine().Fired() != fired {
			t.Fatalf("Gap %d: the twin reached cycle %d after %d events, the Gap %d after %d", i, twin.e.Now(), twin.e.m.Engine().Fired(), end, fired)
		}
		if i < 400 {
			continue // warm-up
		}
		if own := int64(m1-m0) - int64(m2-m1); own != 0 {
			t.Fatalf("Gap %d allocated %d times, the same %d events without its stop test %d", i, m1-m0, fired-before, m2-m1)
		}
		if end < start+gapCycles && fired > before {
			early++
		}
	}
	if early == 0 {
		t.Fatal("no measured Gap ended early: the stop test never fired")
	}
}

// TestSubmitFeedsNothingUntilPump: SubmitAppend only translates; a
// window's ops reach the machine when PumpRetire feeds them, so a Gap
// between the two runs no transaction and persists no line, and the pump
// then runs the whole window.
func TestSubmitFeedsNothingUntilPump(t *testing.T) {
	r := newGapRig(t, Config{})
	r.commit(t) // a first window, so the Gap has something to persist
	if _, err := r.e.WaitDurable(r.e.RecordCount()); err != nil {
		t.Fatal(err)
	}
	batch := []Request{
		{Sess: r.sess[0], Op: Put, Key: "a", Value: make([]byte, 100)},
		{Sess: r.sess[1], Op: Delete, Key: "g00"},
		{Sess: r.sess[2], Op: Get, Key: "g07"},
		{Sess: r.sess[3], Op: Put, Key: "b", Value: make([]byte, 8)},
	}
	before := r.e.Stats()
	if _, err := r.e.SubmitAppend(nil, batch); err != nil {
		t.Fatal(err)
	}
	if err := r.e.gap(r.e.RecordCount()); err != nil {
		t.Fatal(err)
	}
	held := r.e.Stats()
	if held.Cycle != before.Cycle+gapCycles {
		t.Fatalf("the Gap ran from cycle %d to %d, want the full %d cycles", before.Cycle, held.Cycle, gapCycles)
	}
	if held.Transactions != before.Transactions || held.PersistedLines != before.PersistedLines {
		t.Fatalf("a submitted, unpumped window ran: transactions %d -> %d, persisted lines %d -> %d",
			before.Transactions, held.Transactions, before.PersistedLines, held.PersistedLines)
	}
	if err := r.e.PumpRetire(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.e.Stats().Transactions, before.Transactions+uint64(len(batch)); got != want {
		t.Fatalf("after the pump %d transactions, want %d", got, want)
	}
	if d, err := r.e.WaitDurable(r.e.RecordCount()); err != nil || d != r.e.RecordCount() {
		t.Fatalf("watermark %d of %d after the pump (%v)", d, r.e.RecordCount(), err)
	}
}
