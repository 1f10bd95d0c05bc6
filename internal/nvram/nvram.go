// Package nvram models the non-volatile memory side of the system: the
// memory controllers (MCs) that front the NVRAM DIMMs, their queuing
// behaviour, and the durable "shadow image" of persisted store versions
// that the recovery checker inspects after a simulated crash.
//
// The paper's system (Table 1) has 4 memory controllers at the corners of
// the mesh and NVRAM access latencies of 240 cycles (read) and 360 cycles
// (write). Each controller here is a single service queue: a request
// occupies the controller for a service interval (modelling bandwidth) and
// completes after the device latency. A write becomes durable — visible to
// a crash — exactly when its PersistAck fires.
//
// Beyond the paper, a controller also takes background writes (the
// machine's early write-back of whole-line stores): they wait in a queue
// of their own and are admitted only when the channel is idle, so they
// never delay a request that arrives while they wait. A foreground write
// of a line first admits the queued background write of that line.
package nvram

import (
	"fmt"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/sim"
)

// ReadLatency and WriteLatency are the device latencies of a line read
// and of a durable line write (Table 1: 240 and 360 cycles).
const (
	ReadLatency  sim.Cycle = 240
	WriteLatency sim.Cycle = 360
)

// readService and writeService are a controller's occupancy per request:
// successive requests to the same MC are spaced at least this far apart,
// modelling channel bandwidth. They are sized for a banked PCM-class DIMM:
// bank-level parallelism hides most of the cell-write occupancy, leaving
// the channel busy for a burst per request (writes still cost ~2x reads).
const (
	readService  sim.Cycle = 6
	writeService sim.Cycle = 12
)

// LogEntry is one undo-log record: the version of line that was durable
// before the logged epoch first modified it. LogSeq orders entries within
// a crash image.
type LogEntry struct {
	Line mem.Line
	Old  mem.Version
	// EpochCore and EpochNum identify the epoch the entry belongs to.
	EpochCore int
	EpochNum  uint64
}

// Controller is one memory controller and the NVRAM region behind it.
type Controller struct {
	id   int
	eng  *sim.Engine
	free sim.Cycle // earliest cycle the next request can begin service

	image map[mem.Line]mem.Version // durable data region
	log   []LogEntry               // durable undo-log region, append order

	// freeWrites holds the pendingWrite frames not in flight, newest on
	// top: a steady-state Write or WriteLog takes one and allocates nothing.
	freeWrites []*pendingWrite

	// background holds the background writes not yet admitted, oldest
	// first; it is reused and copied down, never resliced forward, so a
	// steady state allocates nothing. admitScheduled marks that an
	// admitBackground event is pending, bound once in admitBackgroundFn.
	background        []*pendingWrite
	admitScheduled    bool
	admitBackgroundFn func()

	stats Stats
	probe *obs.Probe
}

// pendingWrite is one Write or WriteLog between admission and its
// PersistAck. It takes the place of a closure per request: its two
// continuations are bound once, when the frame is first made, and the frame
// returns to its controller's free list when the one it scheduled fires.
type pendingWrite struct {
	c     *Controller // nil while on the free list, so a late fire panics
	line  mem.Line
	v     mem.Version
	entry LogEntry
	done  func()

	// queued is when a background write joined the background queue.
	queued sim.Cycle

	fireWriteFn, fireLogFn func() // bound once in acquireWrite
}

func (c *Controller) acquireWrite(done func()) *pendingWrite {
	var w *pendingWrite
	if n := len(c.freeWrites); n > 0 {
		w = c.freeWrites[n-1]
		c.freeWrites = c.freeWrites[:n-1]
	} else {
		w = &pendingWrite{}
		w.fireWriteFn, w.fireLogFn = w.fireWrite, w.fireLog
	}
	w.c, w.done = c, done
	return w
}

// release returns w to the free list and hands back what its ack needs.
func (w *pendingWrite) release() (*Controller, func()) {
	c, done := w.c, w.done
	w.c, w.done = nil, nil
	c.freeWrites = append(c.freeWrites, w)
	return c, done
}

func (w *pendingWrite) fireWrite() {
	line, v := w.line, w.v
	c, done := w.release()
	c.image[line] = v
	if done != nil {
		done()
	}
}

func (w *pendingWrite) fireLog() {
	entry := w.entry
	c, done := w.release()
	c.log = append(c.log, entry)
	if done != nil {
		done()
	}
}

// Stats counts controller activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	LogWrites  uint64
	BusyCycles sim.Cycle
	// StallCycles accumulates time requests spent waiting for the
	// controller to become free (queuing delay).
	StallCycles sim.Cycle
	// BackgroundWaitCycles accumulates time background writes spent in
	// their queue before admission; StallCycles does not see it. Omitted
	// from JSON while zero, so a run without background writes renders
	// (and fingerprints) as before.
	BackgroundWaitCycles sim.Cycle `json:",omitzero"`
}

// NewController returns a controller with an empty durable image.
func NewController(id int, eng *sim.Engine) (*Controller, error) {
	if eng == nil {
		return nil, fmt.Errorf("nvram: engine must not be nil")
	}
	c := &Controller{
		id:    id,
		eng:   eng,
		image: make(map[mem.Line]mem.Version),
	}
	c.admitBackgroundFn = c.admitBackground
	return c, nil
}

// ID reports the controller's index.
func (c *Controller) ID() int { return c.id }

// AttachProbe installs an observability probe; each admitted request
// emits a queue-depth sample (its queuing delay in cycles).
func (c *Controller) AttachProbe(p *obs.Probe) { c.probe = p }

// admit claims the controller for one request and returns the cycle at
// which service begins.
func (c *Controller) admit(service sim.Cycle) sim.Cycle {
	now := c.eng.Now()
	start := now
	if c.free > start {
		start = c.free
		c.stats.StallCycles += start - now
	}
	c.free = start + service
	c.stats.BusyCycles += service
	if c.probe.Active() {
		c.probe.NVRAMQueue(now, c.id, start-now)
	}
	return start
}

// Read schedules a line read; done fires when the data is available at the
// controller.
func (c *Controller) Read(line mem.Line, done func()) {
	start := c.admit(readService)
	c.stats.Reads++
	c.eng.At(start+ReadLatency, done)
}

// Write durably writes version v of line. done (the PersistAck) fires when
// the write has reached NVRAM; the shadow image updates at that same cycle,
// so a crash strictly before the ack does not observe the write.
func (c *Controller) Write(line mem.Line, v mem.Version, done func()) {
	if len(c.background) > 0 {
		// An older version of line waiting in the background queue must
		// not land after this one.
		c.promote(line)
	}
	w := c.acquireWrite(done)
	w.line, w.v = line, v
	c.startWrite(w)
}

// startWrite admits a line write and schedules its PersistAck.
func (c *Controller) startWrite(w *pendingWrite) {
	start := c.admit(writeService)
	c.stats.Writes++
	c.eng.At(start+WriteLatency, w.fireWriteFn)
}

// WriteBackground is Write as background traffic: it joins the background
// queue and is admitted, in queue order, only when the controller is idle.
// done is its PersistAck.
func (c *Controller) WriteBackground(line mem.Line, v mem.Version, done func()) {
	w := c.acquireWrite(done)
	w.line, w.v, w.queued = line, v, c.eng.Now()
	c.background = append(c.background, w)
	c.scheduleAdmit()
}

// scheduleAdmit arranges an admitBackground at the cycle the channel
// next comes free, unless one is pending or nothing waits.
func (c *Controller) scheduleAdmit() {
	if c.admitScheduled || len(c.background) == 0 {
		return
	}
	c.admitScheduled = true
	c.eng.At(max(c.free, c.eng.Now()), c.admitBackgroundFn)
}

// admitBackground admits the oldest background write if the channel is
// idle, and otherwise waits for it to come free.
func (c *Controller) admitBackground() {
	c.admitScheduled = false
	if len(c.background) > 0 && c.free <= c.eng.Now() {
		w := c.background[0]
		n := copy(c.background, c.background[1:])
		c.background[n] = nil
		c.background = c.background[:n]
		c.stats.BackgroundWaitCycles += c.eng.Now() - w.queued
		c.startWrite(w)
	}
	c.scheduleAdmit()
}

// promote admits the queued background writes of line, in queue order,
// and copies the rest down.
func (c *Controller) promote(line mem.Line) {
	now, kept := c.eng.Now(), 0
	for _, w := range c.background {
		if w.line != line {
			c.background[kept] = w
			kept++
			continue
		}
		c.stats.BackgroundWaitCycles += now - w.queued
		c.startWrite(w)
	}
	clear(c.background[kept:])
	c.background = c.background[:kept]
}

// WriteLog durably appends an undo-log entry. done fires when the entry is
// durable. Log writes share the controller's write bandwidth.
func (c *Controller) WriteLog(entry LogEntry, done func()) {
	start := c.admit(writeService)
	c.stats.LogWrites++
	w := c.acquireWrite(done)
	w.entry = entry
	c.eng.At(start+WriteLatency, w.fireLogFn)
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats { return c.stats }

// PersistedVersion returns the version of line currently durable at this
// controller (NoVersion if the line has never persisted). Unlike Bank.Image it
// is a point query with no allocation, cheap enough for live durability
// watermarks polled between request batches.
func (c *Controller) PersistedVersion(line mem.Line) mem.Version {
	return c.image[line]
}

// Bank groups several controllers and routes lines to them by address
// interleaving, the way the paper places 4 MCs at the mesh corners.
type Bank struct {
	ctrls []*Controller
}

// NewBank creates n controllers.
func NewBank(n int, eng *sim.Engine) (*Bank, error) {
	if n <= 0 {
		return nil, fmt.Errorf("nvram: controller count must be positive, got %d", n)
	}
	b := &Bank{ctrls: make([]*Controller, n)}
	for i := range b.ctrls {
		c, err := NewController(i, eng)
		if err != nil {
			return nil, err
		}
		b.ctrls[i] = c
	}
	return b, nil
}

// AttachProbe installs an observability probe on every controller.
func (b *Bank) AttachProbe(p *obs.Probe) {
	for _, c := range b.ctrls {
		c.AttachProbe(p)
	}
}

// Interleave is the index of the controller, of n, that owns line: lines
// are interleaved one at a time, so consecutive lines go to consecutive
// controllers. It is the one placement rule; software that places data
// per controller uses it too.
func Interleave(line mem.Line, n int) int { return int(uint64(line) % uint64(n)) }

// ControllerFor returns the controller owning line (see Interleave).
func (b *Bank) ControllerFor(line mem.Line) *Controller {
	return b.ctrls[Interleave(line, len(b.ctrls))]
}

// PersistedVersion returns the durable version of line (a point query on
// the owning controller; NoVersion when never persisted).
func (b *Bank) PersistedVersion(line mem.Line) mem.Version {
	return b.ControllerFor(line).PersistedVersion(line)
}

// Image merges every controller's durable image into one map.
func (b *Bank) Image() map[mem.Line]mem.Version {
	out := make(map[mem.Line]mem.Version)
	for _, c := range b.ctrls {
		for l, v := range c.image {
			out[l] = v
		}
	}
	return out
}

// Log concatenates all controllers' undo logs. Entries keep per-controller
// append order; cross-controller order is by controller index, which is
// sufficient for rollback because entries are keyed by epoch.
func (b *Bank) Log() []LogEntry {
	var out []LogEntry
	for _, c := range b.ctrls {
		out = append(out, c.log...)
	}
	return out
}

// Stats sums all controllers' counters.
func (b *Bank) Stats() Stats {
	var s Stats
	for _, c := range b.ctrls {
		cs := c.Stats()
		s.Reads += cs.Reads
		s.Writes += cs.Writes
		s.LogWrites += cs.LogWrites
		s.BusyCycles += cs.BusyCycles
		s.StallCycles += cs.StallCycles
		s.BackgroundWaitCycles += cs.BackgroundWaitCycles
	}
	return s
}
