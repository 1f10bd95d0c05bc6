package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end cycle = %d, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOWithinSameCycle(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Cycle
	e.At(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	for _, c := range []Cycle{5, 10, 15, 20} {
		c := c
		e.At(c, func() { fired = append(fired, c) })
	}
	now := e.RunUntil(12)
	if now != 12 {
		t.Fatalf("RunUntil returned %d, want 12", now)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 5 and 10 only", fired)
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run, fired = %v, want all four", fired)
	}
}

func TestEngineClockAdvancesToDrainedLimit(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		// A mildly tangled schedule: events spawn events.
		for i := 0; i < 50; i++ {
			i := i
			e.At(Cycle(i%7)*3, func() {
				order = append(order, i)
				e.After(Cycle(i%5), func() { order = append(order, 1000+i) })
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEngineTimeNeverRegresses(t *testing.T) {
	// Property: however events are scheduled (at legal times), observed
	// firing times are monotonically non-decreasing.
	f := func(deltas []uint16) bool {
		e := NewEngine()
		var last Cycle
		ok := true
		for _, d := range deltas {
			e.At(Cycle(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignalSubscribeBeforeFire(t *testing.T) {
	var s Signal
	hits := 0
	s.Subscribe(func() { hits++ })
	s.Subscribe(func() { hits++ })
	if hits != 0 {
		t.Fatal("subscribers ran before fire")
	}
	s.Fire()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if !s.fired {
		t.Fatal("signal not fired after Fire")
	}
}

func TestSignalSubscribeAfterFire(t *testing.T) {
	var s Signal
	s.Fire()
	hits := 0
	s.Subscribe(func() { hits++ })
	if hits != 1 {
		t.Fatalf("late subscriber did not run immediately, hits = %d", hits)
	}
}

func TestSignalDoubleFireIsIdempotent(t *testing.T) {
	var s Signal
	hits := 0
	s.Subscribe(func() { hits++ })
	s.Fire()
	s.Fire()
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

// TestSignalResubscribeDuringFire: a subscriber that Resets the signal it
// was fired from and subscribes to the next round (an epoch slot reused
// while its previous epoch's persist is still being announced) must not
// run in this round, and must run once at the next Fire.
func TestSignalResubscribeDuringFire(t *testing.T) {
	var s Signal
	next := 0
	s.Subscribe(func() {
		s.Reset()
		s.Subscribe(func() { next++ })
	})
	s.Subscribe(func() {})
	s.Fire()
	if next != 0 || s.fired {
		t.Fatalf("after the first Fire: next round ran %d times, fired=%v; want 0, false", next, s.fired)
	}
	s.Fire()
	if next != 1 {
		t.Fatalf("next round's subscriber ran %d times at the second Fire, want 1", next)
	}
}

// TestSignalResetZeroAlloc: a Reset signal serves another round of
// subscribers from the array it already has, which is what lets a pooled
// frame embed its signal instead of allocating one per use.
func TestSignalResetZeroAlloc(t *testing.T) {
	var s Signal
	hits := 0
	fn := func() { hits++ }
	round := func() {
		s.Reset()
		for i := 0; i < 4; i++ {
			s.Subscribe(fn)
		}
		if s.fired {
			t.Fatal("signal reads fired after Reset")
		}
		s.Fire()
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("Reset/Subscribe/Fire round allocated %.2f times, want 0", n)
	}
	if hits != 4*102 {
		t.Fatalf("%d subscriber runs, want %d: a round's subscribers must each run exactly once", hits, 4*102)
	}
}
