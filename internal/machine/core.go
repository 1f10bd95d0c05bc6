package machine

import (
	"fmt"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/trace"
)

// The core is serial: it retires one op at a time and has at most one
// continuation of its own outstanding (its posted stores and posted loads
// travel as memReqs). So the core is its own frame: every continuation
// its pipeline schedules is a method value bound once, by bindCore, and
// what a closure would have captured is a field.

func (m *Machine) bindCore(c *coreCtx) {
	c.m = m
	c.stall.init(m)
	c.stall.c = c
	c.stepCoreFn, c.after = c.stepCore, c.retireOp
	c.postedStoreDoneFn, c.afterStoreFn = c.postedStoreDone, c.afterStore
	c.postedLoadDoneFn, c.drainStoresFn = c.postedLoadDone, c.drainStores
	c.epBarrierFn, c.lbBarrierFn, c.writeCheckpointFn = c.epBarrier, c.lbBarrier, c.writeCheckpoint
}

// retireOp is the completion of every op the core executes.
func (c *coreCtx) retireOp() {
	if c.m.cfg.RecordOpTimes {
		c.opTimes = append(c.opTimes, c.m.eng.Now())
	}
	c.stepCore()
}

// stepCore retires the next op of core c; completion of async ops
// re-enters it through c.after.
func (c *coreCtx) stepCore() {
	m := c.m
	if c.pc >= len(c.ops) {
		if !m.feedClosed {
			// Park until Feed appends more ops (or CloseFeed retires
			// the core) once the posted loads are in, so a parked core
			// has retired every op it was fed.
			if c.ldOutstanding > 0 {
				c.waitLoads(0, c.stepCoreFn)
				return
			}
			c.waiting = true
			return
		}
		// Wait for the loads and the write buffer to drain before
		// retiring the core.
		c.drain(func() { m.coreFinished(c) })
		return
	}
	op := c.ops[c.pc]
	c.pc++
	switch op.Kind() {
	case trace.Compute:
		m.eng.After(op.Cycles(), c.after)
	case trace.TxEnd:
		c.txs++
		if m.cfg.Probe.Active() {
			m.cfg.Probe.TxRetired(m.eng.Now(), c.id)
		}
		m.eng.After(0, c.after) // zero-time, but break recursion depth
	case trace.Barrier:
		c.barrier()
	case trace.Load:
		m.access(c, mem.Load, mem.LineOf(op.Addr()), false, c.after)
	case trace.PostedLoad:
		if c.ldOutstanding >= loadSlots {
			c.pc-- // issue it again when a slot frees
			c.waitLoads(loadSlots-1, c.stepCoreFn)
			return
		}
		c.ldOutstanding++
		m.access(c, mem.Load, mem.LineOf(op.Addr()), false, c.postedLoadDoneFn)
		m.eng.After(L1Latency, c.after)
	case trace.Store, trace.StoreLine:
		if c.ldOutstanding > 0 {
			// In-order retirement: a store leaves for the write buffer
			// only after every older load is in, so an inter-thread
			// dependence a posted load finds lands no later than the
			// epoch of the stores that follow it.
			c.pc--
			c.waitLoads(0, c.stepCoreFn)
			return
		}
		if tok := op.Token(); tok != 0 {
			line := mem.LineOf(op.Addr())
			if c.pendingTok == nil {
				c.pendingTok = make(map[mem.Line]uint64)
			}
			if prev, ok := c.pendingTok[line]; ok {
				// Silently overwriting would bind the new token to the
				// posted store's version and lose the old one, corrupting
				// Result.TokenVersions. Same-line tagged stores must be
				// separated by a barrier that drains the write buffer.
				panic(fmt.Sprintf(
					"machine: tagged store (token %d) to %v on core %d while token %d is still in flight to that line",
					tok, line, c.id, prev))
			}
			c.pendingTok[line] = tok
		}
		c.postStore(mem.LineOf(op.Addr()), op.Kind() == trace.StoreLine)
	default:
		panic("machine: unknown op kind")
	}
}

// postStore issues a store (whole: a trace.StoreLine) through the write
// buffer (Table 1: 32 entries): the core moves on after the issue latency
// while the access completes in the background, stalling only when the
// buffer is full. Strict persistency bypasses the buffer — rule S2 forbids
// a store to issue before its predecessor persisted.
func (c *coreCtx) postStore(line mem.Line, whole bool) {
	m := c.m
	if m.cfg.Model == SP || m.cfg.WriteBuffer == 0 {
		c.countBulkStore()
		m.access(c, mem.Store, line, whole, c.afterStoreFn)
		return
	}
	if c.wbOutstanding >= m.cfg.WriteBuffer {
		// The core stops here until a slot frees, so there is only ever
		// this one store waiting.
		c.wbStalled, c.wbStalledLine, c.wbStalledWhole, c.wbStalledAt = true, line, whole, m.eng.Now()
		return
	}
	c.wbOutstanding++
	c.countBulkStore()
	m.access(c, mem.Store, line, whole, c.postedStoreDoneFn)
	m.eng.After(L1Latency, c.afterStoreFn)
}

// postedStoreDone is the completion of a store posted through the write
// buffer: its slot goes to the store stalled on a full buffer, if any, and
// the last one out wakes the barrier (or end of run) waiting for the drain.
func (c *coreCtx) postedStoreDone() {
	now := c.m.eng.Now()
	c.wbOutstanding--
	if c.wbStalled {
		c.wbStalled = false
		c.stalls[StallWriteBuffer] += now - c.wbStalledAt
		c.postStore(c.wbStalledLine, c.wbStalledWhole)
	}
	if c.wbOutstanding == 0 && c.wbDrained != nil {
		drained := c.wbDrained
		c.wbDrained = nil
		c.stalls[StallWriteBuffer] += now - c.wbDrainAt
		drained()
	}
}

// countBulkStore tracks the hardware persistence engine's store quota.
func (c *coreCtx) countBulkStore() {
	if c.m.cfg.BulkEpochStores > 0 {
		c.storesSinceBarrier++
	}
}

// afterStore runs when a store has issued; it applies bulk-mode hardware
// barrier insertion at issue order.
func (c *coreCtx) afterStore() {
	if n := c.m.cfg.BulkEpochStores; n > 0 && c.storesSinceBarrier >= n {
		c.storesSinceBarrier = 0
		c.hardwareBarrier()
		return
	}
	c.after()
}

// postedLoadDone is the completion of a posted load: its slot frees, and
// the continuation parked on the loads runs once few enough remain.
func (c *coreCtx) postedLoadDone() {
	c.ldOutstanding--
	if c.ldWait != nil && c.ldOutstanding <= c.ldWaitMax {
		wait := c.ldWait
		c.ldWait = nil
		wait()
	}
}

// waitLoads runs cont once at most n posted loads are in flight. Only
// one waiter can exist per core (the core is serial).
func (c *coreCtx) waitLoads(n int, cont func()) {
	if c.ldOutstanding <= n {
		cont()
		return
	}
	c.ldWait, c.ldWaitMax = cont, n
}

// drain runs cont once every posted load and then every posted store has
// completed: what a barrier and the end of the run wait for. The loads go
// first so that the inter-thread dependence a read finds lands on the
// epoch the barrier closes.
func (c *coreCtx) drain(cont func()) {
	if c.ldOutstanding == 0 || c.m.plantBarrierSkipsLoads {
		c.drainWriteBuffer(cont)
		return
	}
	c.drainThen = cont
	c.waitLoads(0, c.drainStoresFn)
}

// drainStores is a drain's second half, once the loads are in.
func (c *coreCtx) drainStores() {
	cont := c.drainThen
	c.drainThen = nil
	c.drainWriteBuffer(cont)
}

// drainWriteBuffer runs cont once every posted store has completed. Only
// one drain waiter can exist per core (the core is serial).
func (c *coreCtx) drainWriteBuffer(cont func()) {
	if c.wbOutstanding == 0 {
		cont()
		return
	}
	c.wbDrained, c.wbDrainAt = cont, c.m.eng.Now()
}

// barrier handles a programmer-inserted persist barrier per the model. A
// barrier first drains the posted loads and the write buffer: an epoch may
// only complete when all its stores have completed (§4.1's EpochCMP
// precondition), and every dependence its reads found is attached.
func (c *coreCtx) barrier() {
	switch c.m.cfg.Model {
	case NP, SP, WT:
		// NP ignores barriers; SP and WT already order every store.
		c.after()
	case EP:
		c.drain(c.epBarrierFn)
	case LB:
		if c.m.cfg.BulkEpochStores > 0 {
			// Bulk mode: hardware places barriers; programmer barriers
			// in the trace are transparent.
			c.after()
			return
		}
		c.advanceWhy = epoch.BarrierAdvance
		c.drain(c.lbBarrierFn)
	}
}

// epBarrier closes the epoch and stalls until it has persisted (rule E2).
func (c *coreCtx) epBarrier() {
	m, tbl := c.m, c.table
	if !tbl.CanAdvance() {
		// Cannot happen under EP (previous epoch persisted before the
		// barrier returned), but guard for structural safety.
		oldest := tbl.Oldest().ID
		c.arb.DemandThrough(oldest.Num, epoch.CausePressure)
		c.stall.until(oldest, StallPressure, c.epBarrierFn)
		return
	}
	closed := tbl.Current().ID
	tbl.Advance(m.eng.Now(), epoch.BarrierAdvance)
	c.arb.DemandThrough(closed.Num, epoch.CauseEager)
	c.stall.until(closed, StallBarrier, c.after)
}

// lbBarrier closes the epoch (for the reason in c.advanceWhy) without
// waiting (buffered epoch persistency), stalling only when the in-flight
// window is exhausted.
func (c *coreCtx) lbBarrier() {
	tbl := c.table
	if !tbl.CanAdvance() {
		oldest := tbl.Oldest().ID
		c.arb.DemandThrough(oldest.Num, epoch.CausePressure)
		c.stall.until(oldest, StallPressure, c.lbBarrierFn)
		return
	}
	c.m.completeEpoch(c, c.advanceWhy)
	c.after()
}

// completeEpoch closes c's current epoch (barrier, hardware quota, split,
// or drain), applies PF, and kicks the arbiter. The caller must have
// ensured CanAdvance.
func (m *Machine) completeEpoch(c *coreCtx, why epoch.AdvanceReason) {
	closed := c.table.Current().ID.Num
	c.table.Advance(m.eng.Now(), why)
	if m.cfg.PF {
		c.arb.RequestProactive(closed)
	}
	c.arb.Kick()
}

// hardwareBarrier is the bulk-mode BSP epoch boundary: drain the loads
// and the write buffer, persist the processor state (register checkpoint)
// into the closing epoch, then close it like an LB barrier.
func (c *coreCtx) hardwareBarrier() {
	c.advanceWhy = epoch.HardwareAdvance
	c.ckptNext = 0
	c.drain(c.writeCheckpointFn)
}

// writeCheckpoint stores the next register-state line of the current
// epoch's rotating checkpoint slot, then closes the epoch after the last.
func (c *coreCtx) writeCheckpoint() {
	m, i := c.m, c.ckptNext
	if i >= m.cfg.CheckpointLines {
		c.lbBarrier()
		return
	}
	c.ckptNext++
	slot := c.table.Current().ID.Num % 8
	addr := c.ckptBase + mem.Addr(slot)*mem.Addr(m.cfg.CheckpointLines)*64 + mem.Addr(i)*64
	m.access(c, mem.Store, mem.LineOf(addr), false, c.writeCheckpointFn)
}
