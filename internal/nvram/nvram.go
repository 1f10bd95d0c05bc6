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
package nvram

import (
	"fmt"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/sim"
)

// Config holds the timing parameters of one memory controller.
type Config struct {
	ReadLatency  sim.Cycle // device latency for a line read (Table 1: 240)
	WriteLatency sim.Cycle // device latency for a durable line write (Table 1: 360)
	// ReadService and WriteService are the controller occupancy per
	// request; successive requests to the same MC are spaced at least
	// this far apart, modelling channel bandwidth.
	ReadService  sim.Cycle
	WriteService sim.Cycle
}

// DefaultConfig matches the paper's Table 1 latencies with service
// intervals sized for a banked PCM-class DIMM: bank-level parallelism
// hides most of the cell-write occupancy, leaving the channel busy for a
// burst per request (writes still cost ~2x reads).
func DefaultConfig() Config {
	return Config{
		ReadLatency:  240,
		WriteLatency: 360,
		ReadService:  6,
		WriteService: 12,
	}
}

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
	cfg  Config
	free sim.Cycle // earliest cycle the next request can begin service

	image map[mem.Line]mem.Version // durable data region
	log   []LogEntry               // durable undo-log region, append order

	// freeWrites holds the pendingWrite frames not in flight, newest on
	// top: a steady-state Write or WriteLog takes one and allocates nothing.
	freeWrites []*pendingWrite

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
}

// NewController returns a controller with an empty durable image.
func NewController(id int, eng *sim.Engine, cfg Config) (*Controller, error) {
	if eng == nil {
		return nil, fmt.Errorf("nvram: engine must not be nil")
	}
	if cfg.ReadLatency == 0 || cfg.WriteLatency == 0 {
		return nil, fmt.Errorf("nvram: device latencies must be nonzero")
	}
	if cfg.ReadService == 0 || cfg.WriteService == 0 {
		return nil, fmt.Errorf("nvram: service intervals must be nonzero")
	}
	return &Controller{
		id:    id,
		eng:   eng,
		cfg:   cfg,
		image: make(map[mem.Line]mem.Version),
	}, nil
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
	start := c.admit(c.cfg.ReadService)
	c.stats.Reads++
	c.eng.At(start+c.cfg.ReadLatency, done)
}

// Write durably writes version v of line. done (the PersistAck) fires when
// the write has reached NVRAM; the shadow image updates at that same cycle,
// so a crash strictly before the ack does not observe the write.
func (c *Controller) Write(line mem.Line, v mem.Version, done func()) {
	start := c.admit(c.cfg.WriteService)
	c.stats.Writes++
	w := c.acquireWrite(done)
	w.line, w.v = line, v
	c.eng.At(start+c.cfg.WriteLatency, w.fireWriteFn)
}

// WriteLog durably appends an undo-log entry. done fires when the entry is
// durable. Log writes share the controller's write bandwidth.
func (c *Controller) WriteLog(entry LogEntry, done func()) {
	start := c.admit(c.cfg.WriteService)
	c.stats.LogWrites++
	w := c.acquireWrite(done)
	w.entry = entry
	c.eng.At(start+c.cfg.WriteLatency, w.fireLogFn)
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats { return c.stats }

// Image returns the durable data image (line -> persisted version) as of
// the current simulation instant. The returned map is a copy.
func (c *Controller) Image() map[mem.Line]mem.Version {
	out := make(map[mem.Line]mem.Version, len(c.image))
	for l, v := range c.image {
		out[l] = v
	}
	return out
}

// PersistedVersion returns the version of line currently durable at this
// controller (NoVersion if the line has never persisted). Unlike Image it
// is a point query with no allocation, cheap enough for live durability
// watermarks polled between request batches.
func (c *Controller) PersistedVersion(line mem.Line) mem.Version {
	return c.image[line]
}

// Log returns the durable undo-log entries in append order (a copy).
func (c *Controller) Log() []LogEntry {
	out := make([]LogEntry, len(c.log))
	copy(out, c.log)
	return out
}

// Bank groups several controllers and routes lines to them by address
// interleaving, the way the paper places 4 MCs at the mesh corners.
type Bank struct {
	ctrls []*Controller
}

// NewBank creates n controllers sharing one config.
func NewBank(n int, eng *sim.Engine, cfg Config) (*Bank, error) {
	if n <= 0 {
		return nil, fmt.Errorf("nvram: controller count must be positive, got %d", n)
	}
	b := &Bank{ctrls: make([]*Controller, n)}
	for i := range b.ctrls {
		c, err := NewController(i, eng, cfg)
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

// ControllerFor returns the controller owning line (line-interleaved).
func (b *Bank) ControllerFor(line mem.Line) *Controller {
	return b.ctrls[int(uint64(line)%uint64(len(b.ctrls)))]
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
	}
	return s
}
