package machine

import (
	"persistbarriers/internal/cache"
	"persistbarriers/internal/epoch"
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

	// Step 1a: L1 writebacks of the epoch's lines, pipelined one line per
	// FlushIssue interval; each bank may not start before its last line
	// arrives (the EpochCMP precondition of §4.1).
	bankReady := make([]sim.Cycle, len(m.banks))
	l1Lines := c.l1.AppendLinesOf(m.acquireLineBuf(), id)
	for i, line := range l1Lines {
		b := m.bank(line)
		ent, _ := c.l1.Peek(line)
		arrive := now + sim.Cycle(i)*m.cfg.FlushIssue + m.mesh.Latency(c.tile, b.tile, 64)
		if arrive > bankReady[b.id] {
			bankReady[b.id] = arrive
		}
		if m.cfg.DebugLine != 0 {
			m.dbg(line, "flushEpoch l1-writeback epoch=%v ver=%d", id, ent.Version)
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
				if fr := m.lookupRec(llcEnt.Tag); fr != nil {
					// A foreign epoch's unpersisted version sits below
					// ours (its writeback landed after our conflict
					// check, outside the line's transaction window). It
					// must reach NVRAM first: defer this line — it stays
					// dirty in the L1 and pending, and the arbiter
					// re-flushes the epoch once the foreign epoch
					// persists (we demand it here).
					arb := c.arb
					m.demandFlush(m.cores[llcEnt.Tag.Core], fr, epoch.CauseEviction, func() { arb.Kick() })
					continue
				}
			}
			b.arr.Write(line, id, ent.Version)
		}
		c.l1.CleanLine(line)
	}
	m.releaseLineBuf(l1Lines)

	// Step 4 happens when every bank has acked.
	barrier := sim.NewBarrier(len(m.banks), func() {
		var worst sim.Cycle
		for _, b := range m.banks {
			if l := m.mesh.Latency(c.tile, b.tile, 0); l > worst {
				worst = l
			}
		}
		m.eng.After(worst, done) // PersistCMP broadcast
	})

	// Steps 1b-3 per bank.
	for _, b := range m.banks {
		b := b
		start := now + m.mesh.Latency(c.tile, b.tile, 0) // FlushEpoch message
		if bankReady[b.id] > start {
			start = bankReady[b.id]
		}
		m.eng.At(start, func() { m.bankFlush(c, b, rec, barrier) })
	}
}

// bankFlush drains one bank's lines of the epoch to NVRAM and sends the
// BankAck when its last PersistAck arrives.
func (m *Machine) bankFlush(c *coreCtx, b *bankCtx, rec *epoch.Record, barrier *sim.Barrier) {
	bankAck := func() {
		if m.cfg.Probe.Active() {
			m.cfg.Probe.BankAck(m.eng.Now(), b.id, rec.ID.Core, rec.ID.Num)
		}
		m.eng.After(m.mesh.Latency(b.tile, c.tile, 0), barrier.Arrive)
	}
	lines := b.arr.AppendLinesOf(m.acquireLineBuf(), rec.ID)
	if m.cfg.Probe.Active() {
		m.cfg.Probe.BankFlushStart(m.eng.Now(), b.id, rec.ID.Core, rec.ID.Num, len(lines))
	}
	if len(lines) == 0 {
		m.releaseLineBuf(lines)
		bankAck()
		return
	}
	remaining := len(lines)
	lineDone := func() {
		remaining--
		if remaining == 0 {
			bankAck()
		}
	}
	for i, line := range lines {
		line := line
		m.eng.After(sim.Cycle(i)*m.cfg.FlushIssue, func() {
			ent, ok := b.arr.Peek(line)
			if !ok || ent.Tag != rec.ID {
				if m.cfg.DebugLine != 0 {
					m.dbg(line, "bankFlush skip epoch=%v ok=%v tag=%v", rec.ID, ok, ent.Tag)
				}
				lineDone() // drained or evicted concurrently
				return
			}
			if m.cfg.DebugLine != 0 {
				m.dbg(line, "bankFlush drain epoch=%v ver=%d", rec.ID, ent.Version)
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
			m.nvramWriteFrom(b.tile, rec, line, ent.Version, lineDone)
		})
	}
	// Each scheduled closure captured its own line copy; the snapshot
	// buffer itself is free to reuse.
	m.releaseLineBuf(lines)
}
