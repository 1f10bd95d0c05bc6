package machine

import (
	"fmt"

	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// Every machine runs one stream of ops per core. New parks each core at
// cycle 0; Feed appends ops to a core while the simulation is paused, and
// PumpUntilIdle advances the machine until every core has retired its
// queued ops (background persist machinery keeps its in-flight state
// across pumps, so epochs persist lazily under later batches exactly as
// buffered epoch persistency intends). Step and Snapshot also run between
// feeds. CloseFeed ends the stream: Run, RunEvery and RunUntil close it
// before they run, and Load installs a whole program and closes it at
// once. The driver is single-threaded with respect to the machine:
// Feed/Pump/Step/Snapshot calls must not race the engine.

// Feed appends ops to core's instruction stream, waking it if parked. It
// may only be called between pumps (never from inside an engine event).
func (m *Machine) Feed(core int, ops []trace.Op) error {
	if m.feedClosed {
		return fmt.Errorf("machine: Feed after CloseFeed")
	}
	if core < 0 || core >= len(m.cores) {
		return fmt.Errorf("machine: Feed to core %d of %d", core, len(m.cores))
	}
	c := m.cores[core]
	if c.pc > 0 && c.pc == len(c.ops) {
		// The core consumed everything it was fed: reclaim the prefix so a
		// long-lived stream runs in bounded memory (and appends below stay
		// amortized O(1) instead of growing the slice forever).
		c.retired += c.pc
		c.pc = 0
		c.ops = c.ops[:0]
	}
	c.ops = append(c.ops, ops...)
	if c.waiting {
		c.waiting = false
		m.eng.At(m.eng.Now(), c.stepCoreFn)
	}
	return nil
}

// CloseFeed declares that no further ops will arrive on any core. Parked
// cores are released so they can retire; the run then finishes (with the
// usual end-of-run persist drain) once every core runs dry.
func (m *Machine) CloseFeed() {
	if m.feedClosed {
		return
	}
	m.feedClosed = true
	for _, c := range m.cores {
		if c.waiting {
			c.waiting = false
			m.eng.At(m.eng.Now(), c.stepCoreFn)
		}
	}
}

// Idle reports whether every core is parked awaiting ops (or retired).
func (m *Machine) Idle() bool {
	for _, c := range m.cores {
		if !c.waiting && !c.done {
			return false
		}
	}
	return true
}

// PumpUntilIdle runs the machine until every core has retired its queued
// ops, the crash limit is reached, or the machine deadlocks. It returns
// true when the cores went idle before limit; false means the clock hit
// limit first (a crash instant — snapshot with Snapshot) or the machine
// deadlocked (Deadlocked reports which).
func (m *Machine) PumpUntilIdle(limit sim.Cycle) bool {
	m.eng.RunWhile(limit, func() bool { return !m.Idle() })
	if m.Idle() {
		return true
	}
	if m.eng.Pending() == 0 {
		// Cores stuck with nothing scheduled: a genuine protocol deadlock
		// (e.g. splitting disabled under a circular dependence).
		m.deadlocked = true
	}
	return false
}

// Step advances the clock by up to delta cycles, running whatever
// background machinery (epoch flushes, NVRAM writes) is scheduled — the
// analogue of wall-clock time passing between request batches.
func (m *Machine) Step(delta sim.Cycle) {
	m.eng.RunUntil(m.eng.Now() + delta)
}

// Snapshot captures the machine state as a Result without ending the run
// — the durable image is exactly what NVRAM holds at this instant, which
// is what a crash at the current cycle would leave behind.
func (m *Machine) Snapshot() *Result { return m.result() }

// Deadlocked reports whether the machine has wedged.
func (m *Machine) Deadlocked() bool { return m.deadlocked }

// Now reports the current simulated cycle.
func (m *Machine) Now() sim.Cycle { return m.eng.Now() }
