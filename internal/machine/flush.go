package machine

import (
	"persistbarriers/internal/cache"
	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

// flushDriver adapts one core's epoch flushes onto the machine's banked
// handshake protocol.
type flushDriver struct {
	m *Machine
	c *coreCtx
}

// FlushEpoch implements epoch.FlushDriver.
func (d *flushDriver) FlushEpoch(rec *epoch.Record, done func()) {
	if !d.m.cfg.GlobalArbiter {
		d.m.flushEpoch(d.c, rec, done)
		return
	}
	// Ablation: a single machine-wide arbiter serializes all epoch
	// flushes; cores queue for the flush token.
	m := d.m
	start := func() {
		m.globalFlushBusy = true
		m.flushEpoch(d.c, rec, func() {
			m.globalFlushBusy = false
			if len(m.globalFlushWaiters) > 0 {
				next := m.globalFlushWaiters[0]
				m.globalFlushWaiters = m.globalFlushWaiters[1:]
				next()
			}
			done()
		})
	}
	if m.globalFlushBusy {
		m.globalFlushWaiters = append(m.globalFlushWaiters, start)
		return
	}
	start()
}

// flushEpoch runs the Section 4.1 multi-banked flush handshake:
//
//  1. the arbiter (at the L1) writes the epoch's L1-resident lines back to
//     their LLC banks and broadcasts FlushEpoch to every bank;
//  2. each bank drains its lines of the epoch to the memory controllers
//     and collects PersistAcks;
//  3. each bank sends a BankAck to the arbiter;
//  4. the arbiter broadcasts PersistCMP; done fires when it lands.
//
// Cache state moves at flush start (the simulator's state/timing split);
// latency is charged through the per-bank start times and per-line issue
// intervals.
func (m *Machine) flushEpoch(c *coreCtx, rec *epoch.Record, done func()) {
	id := rec.ID
	now := m.eng.Now()
	f := m.acquireFlushOp(c, rec, done)

	// Step 1a: L1 writebacks of the epoch's lines, pipelined one line per
	// flushIssue interval; each bank may not start before its last line
	// arrives (the EpochCMP precondition of §4.1).
	l1Lines := c.l1.AppendLinesOf(m.acquireLineBuf(), id)
	i := 0
	for _, line := range l1Lines {
		b := m.bank(line)
		ent, _ := c.l1.Peek(line)
		if m.lines.lookup(line).early == ent.Version {
			// Written back early: this version is already on its way to
			// NVRAM, and its PersistAck cleans the copy.
			continue
		}
		arrive := now + sim.Cycle(i)*flushIssue + m.mesh.Latency(c.tile, b.tile, 64)
		i++
		if bo := &f.banks[b.id]; arrive > bo.ready {
			bo.ready = arrive
		}
		if llcEnt, ok := b.arr.Peek(line); !ok {
			// The LLC no longer holds the line (evicted or clflushed):
			// flush it straight from the L1 to NVRAM instead of forcing
			// a re-insert that could displace another epoch's line.
			c.l1.CleanLine(line)
			m.nvramWriteFrom(c.tile, rec, line, ent.Version, nil)
			continue
		} else if llcEnt.Version < ent.Version {
			if llcEnt.Dirty && llcEnt.Tag.Valid() && llcEnt.Tag != id {
				if m.lookupRec(llcEnt.Tag) != nil {
					// A foreign epoch's unpersisted version sits below
					// ours (its writeback landed after our conflict
					// check, outside the line's transaction window). It
					// must reach NVRAM first: defer this line — it stays
					// dirty in the L1 and pending, and the arbiter
					// re-flushes the epoch once the foreign epoch
					// persists (we demand it here).
					m.demandFlush(llcEnt.Tag, epoch.CauseEviction, c.arb.Kick)
					continue
				}
			}
			b.arr.Write(line, id, ent.Version)
		}
		c.l1.CleanLine(line)
	}
	m.releaseLineBuf(l1Lines)

	// Steps 1b-3 per bank; step 4 happens when every bank has acked.
	for i := range f.banks {
		bo := &f.banks[i]
		start := now + m.mesh.Latency(c.tile, bo.b.tile, 0) // FlushEpoch message
		if bo.ready > start {
			start = bo.ready
		}
		bo.ready = 0 // for the frame's next handshake
		m.eng.At(start, bo.bankFlushFn)
	}
}

// The handshake's continuations are methods on pooled frames, not
// closures: a flushOp per handshake, holding one bankOp per LLC bank, and a
// lineOp per line a bank drains. Each frame's method values are bound once,
// when the frame is first made; a frame goes back to its machine's free
// list only when the last continuation scheduled on it has fired, with its
// pointers cleared, so a continuation that fires later panics instead of
// acting on the frame's next occupant. The frames schedule exactly the
// events the closures did, in the same order, at the same cycles.

// flushOp is one handshake from FlushEpoch broadcast to the last BankAck.
type flushOp struct {
	m    *Machine
	c    *coreCtx
	rec  *epoch.Record // the flushing head, safe to hold: Arbiter.flushing says why
	done func()

	banks   []bankOp // one per LLC bank, bank order
	sending int      // banks that have not sent their BankAck yet (only plantEarlyFlushRelease reads it)
	acks    int      // BankAcks that have not reached the arbiter yet

	bankAckArrivedFn func() // bound once in acquireFlushOp, as bankOp.bankFlushFn is
}

// bankOp is one bank's share of a handshake.
type bankOp struct {
	f         *flushOp
	b         *bankCtx
	ready     sim.Cycle // when the last L1 writeback reaches this bank; 0 between handshakes
	remaining int       // lines whose PersistAck the BankAck still waits for

	bankFlushFn func()
}

// lineOp is one line of a bank's drain, from its issue slot to its
// PersistAck.
type lineOp struct {
	bo   *bankOp
	line mem.Line

	drainLineFn, lineDoneFn func() // bound once in bankFlush
}

func (m *Machine) acquireFlushOp(c *coreCtx, rec *epoch.Record, done func()) *flushOp {
	f := m.flushOps.get()
	if f == nil {
		f = &flushOp{m: m, banks: make([]bankOp, len(m.banks))}
		f.bankAckArrivedFn = f.bankAckArrived
		for i := range f.banks {
			bo := &f.banks[i]
			bo.f, bo.b = f, m.banks[i]
			bo.bankFlushFn = bo.bankFlush
		}
	}
	f.c, f.rec, f.done = c, rec, done
	f.sending, f.acks = len(f.banks), len(f.banks)
	return f
}

func (m *Machine) releaseFlushOp(f *flushOp) {
	f.c, f.rec, f.done = nil, nil, nil
	m.flushOps.put(f)
}

// bankFlush drains one bank's lines of the epoch to NVRAM; the BankAck
// goes out when the last PersistAck arrives.
func (bo *bankOp) bankFlush() {
	m, rec, b := bo.f.m, bo.f.rec, bo.b
	lines := b.arr.AppendLinesOf(m.acquireLineBuf(), rec.ID)
	if m.cfg.Probe.Active() {
		m.cfg.Probe.BankFlushStart(m.eng.Now(), b.id, rec.ID.Core, rec.ID.Num, len(lines))
	}
	if len(lines) == 0 {
		m.releaseLineBuf(lines)
		bo.sendAck()
		return
	}
	bo.remaining = len(lines)
	for i, line := range lines {
		lo := m.lineOps.get()
		if lo == nil {
			lo = &lineOp{}
			lo.drainLineFn, lo.lineDoneFn = lo.drainLine, lo.lineDone
		}
		lo.bo, lo.line = bo, line
		m.eng.After(sim.Cycle(i)*flushIssue, lo.drainLineFn)
	}
	// Each lineOp holds its own line; the snapshot buffer is free to reuse.
	m.releaseLineBuf(lines)
}

func (lo *lineOp) drainLine() {
	m, rec, b, line := lo.bo.f.m, lo.bo.f.rec, lo.bo.b, lo.line
	ent, ok := b.arr.Peek(line)
	if !ok || ent.Tag != rec.ID {
		lo.lineDone() // drained or evicted concurrently
		return
	}
	if m.cfg.FlushMode == cache.Invalidating {
		// clflush semantics: the flush evicts the line from the
		// whole hierarchy, destroying locality (§7 discussion).
		// Only clean private copies may be dropped — a dirty L1
		// copy holds a newer version from a later epoch and
		// remains tracked by its owner.
		b.arr.Invalidate(line)
		d := m.dirEntryFor(line)
		for _, o := range m.cores {
			if pe, ok := o.l1.Peek(line); ok && !pe.Dirty {
				o.l1.Invalidate(line)
				d.sharers &^= 1 << uint(o.id)
				if d.owner == o.id {
					d.owner = -1
				}
			}
		}
	} else {
		b.arr.CleanLine(line)
	}
	m.nvramWriteFrom(b.tile, rec, line, ent.Version, lo.lineDoneFn)
}

func (lo *lineOp) lineDone() {
	bo := lo.bo
	lo.bo = nil
	bo.f.m.lineOps.put(lo)
	bo.remaining--
	if bo.remaining == 0 {
		bo.sendAck()
	}
}

// sendAck sends this bank's BankAck to the arbiter.
func (bo *bankOp) sendAck() {
	f := bo.f
	m, c, rec := f.m, f.c, f.rec
	if m.cfg.Probe.Active() {
		m.cfg.Probe.BankAck(m.eng.Now(), bo.b.id, rec.ID.Core, rec.ID.Num)
	}
	m.eng.After(m.mesh.Latency(bo.b.tile, c.tile, 0), f.bankAckArrivedFn)
	f.sending--
	if m.plant == plantEarlyFlushRelease && f.sending == 0 {
		m.releaseFlushOp(f)
	}
}

// bankAckArrived collects one BankAck; the last one broadcasts PersistCMP
// and ends the flushOp (done belongs to the arbiter, not to this frame).
func (f *flushOp) bankAckArrived() {
	f.acks--
	if f.acks > 0 {
		return
	}
	m, c, done := f.m, f.c, f.done
	var worst sim.Cycle
	for _, b := range m.banks {
		if l := m.mesh.Latency(c.tile, b.tile, 0); l > worst {
			worst = l
		}
	}
	if m.plant != plantEarlyFlushRelease {
		m.releaseFlushOp(f)
	}
	m.eng.After(worst, done) // PersistCMP broadcast
}
