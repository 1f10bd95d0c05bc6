package machine

import (
	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/obs"
)

// resolveConflict enforces the epoch-conflict rules of Section 3 before
// request r may complete against a line carrying epoch tag `tag`; it ends in
// r.resolved, which receives the inter-thread source epoch whose dependence
// must be attached to the requesting epoch at completion time. Deferring
// the attachment to completion matters: a deadlock-avoidance split can
// advance the requester's epoch between resolution and commit, and the
// dependence belongs to the epoch that finally performs the access.
func (m *Machine) resolveConflict(r *memReq, tag epoch.ID) {
	c := r.c
	r.tag = tag
	if !m.usesEpochs() || !tag.Valid() {
		r.resolved(epoch.None)
		return
	}
	if tag.Core == c.id {
		// Intra-thread: reads never conflict (program-order persist
		// tracking already covers them, §3.2); writes to a line of an
		// older unpersisted epoch must flush that epoch first.
		if r.kind == mem.Load {
			r.resolved(epoch.None)
			return
		}
		rec := c.table.Lookup(tag.Num)
		if rec == nil || rec == c.table.Current() {
			r.resolved(epoch.None)
			return
		}
		m.intraConflicts++
		rec.ConflictDemanded = true
		if m.cfg.Probe.Active() {
			m.cfg.Probe.Conflict(m.eng.Now(), obs.ConflictIntra, c.id, rec.ID.Core, rec.ID.Num, r.line, obs.ResolveOnline)
		}
		c.arb.DemandThrough(tag.Num, epoch.CauseIntra)
		r.stall.until(tag, StallIntra, r.resolvedNilFn)
		return
	}
	// Inter-thread conflict (§3.1): both loads and stores establish a
	// persist-ordering constraint on the source epoch.
	rec := m.cores[tag.Core].table.Lookup(tag.Num)
	if rec == nil {
		r.resolved(epoch.None)
		return
	}
	m.interConflicts++
	rec.ConflictDemanded = true
	if m.cfg.Probe.Active() {
		res := obs.ResolveOnline
		if m.cfg.IDT {
			res = obs.ResolveIDT
		}
		m.cfg.Probe.Conflict(m.eng.Now(), obs.ConflictInter, c.id, rec.ID.Core, rec.ID.Num, r.line, res)
	}
	r.src = tag
	if m.cfg.IDT {
		r.idtResolve()
		return
	}
	r.onlineInterResolve()
}

// idtResolve handles an inter-thread conflict (with epoch r.src) under the
// IDT optimization: the request completes immediately and the dependence
// is handed on for attachment at completion. If the source epoch is still
// ongoing, the deadlock-avoidance split (§3.3) closes it first so the
// dependence can never become circular.
func (r *memReq) idtResolve() {
	m, rec := r.m, r.m.lookupRec(r.src)
	if rec == nil {
		r.resolved(epoch.None)
		return
	}
	if rec.State == epoch.Open {
		if !m.cfg.EnableSplit {
			// Without splitting, the only safe resolution is to wait
			// for the ongoing epoch — the configuration that deadlocks
			// on Figure 5(a)'s circular pattern.
			r.onlineInterResolve()
			return
		}
		m.splitEpoch(m.cores[r.src.Core], r.idtResolveFn)
		return
	}
	r.resolved(r.src)
}

// attachDep registers the deferred IDT dependence on the current epoch of
// r's core at request completion. When the dependence registers are full,
// it falls back to the online flush (as the hardware would) and retries;
// retry runs in the same event as the eventual completion, so attachment
// and the access commit stay atomic.
func (m *Machine) attachDep(r *memReq, dep epoch.ID, cont func()) {
	c := r.c
	if m.lookupRec(dep) == nil {
		cont()
		return
	}
	if c.table.Current().EarlyWrites > 0 && m.plant != plantEarlyEdgeNoSplit {
		// Lines of the epoch are already on their way to NVRAM, ahead of
		// dep: split it, so the dependence lands on the next epoch, then
		// complete the request again (l1Filled, for a load or a store).
		r.dep = dep
		m.splitEpoch(c, r.l1FilledFn)
		return
	}
	if c.table.AddDependence(c.table.Current(), dep) {
		cont()
		return
	}
	m.idtFallbacks++
	if m.cfg.Probe.Active() {
		m.cfg.Probe.IDTFallback(m.eng.Now(), c.id, dep.Core, dep.Num)
	}
	m.cores[dep.Core].arb.DemandThrough(dep.Num, epoch.CauseInter)
	r.stall.until(dep, StallInter, cont)
}

// onlineInterResolve is the LB behaviour: demand a flush of the source
// epoch chain (r.src) and stall the request until it persists. If
// splitting is enabled and the source epoch is ongoing, the completed first
// half is flushed (the "[w]ithout IDT we would have had to flush the first
// part" case of §3.3).
func (r *memReq) onlineInterResolve() {
	m, id, rec := r.m, r.src, r.m.lookupRec(r.src)
	if rec == nil {
		r.resolved(epoch.None)
		return
	}
	src := m.cores[id.Core]
	if rec.State == epoch.Open && m.cfg.EnableSplit {
		m.splitEpoch(src, r.onlineInterResolveFn)
		return
	}
	src.arb.DemandThrough(id.Num, epoch.CauseInter)
	r.stall.until(id, StallInter, r.onlineWaitedFn)
}

// onlineWaited continues a request whose online wait for r.src is over.
// The synchronous wait enforces source -> dependent ordering, and the edge
// is recorded for the recovery checker on the epoch current now, not the
// one current when the wait began: another core's deadlock-avoidance split
// can close that epoch meanwhile, and it then persists on its own, holding
// nothing the access wrote. As with an IDT dependence (resolveConflict),
// the edge belongs to the epoch that performs the access, and so no epoch
// carries an online edge whose source has not persisted.
func (r *memReq) onlineWaited() {
	if r.m.cfg.RecordHistory {
		cur := r.c.table.Current()
		cur.OnlineEdges = append(cur.OnlineEdges, r.src)
	}
	r.resolved(epoch.None)
}

// demandFlush demands a flush through epoch id and runs then when it
// persists, splitting the epoch first when it is still ongoing (otherwise the
// demand would wait on a barrier that may itself be blocked behind this
// request — the deadlock Section 3.3 avoids). Used by the eviction paths.
func (m *Machine) demandFlush(id epoch.ID, cause epoch.FlushCause, then func()) {
	rec, src := m.lookupRec(id), m.cores[id.Core]
	if rec == nil {
		then()
		return
	}
	if rec.State == epoch.Open && m.cfg.EnableSplit {
		m.splitEpoch(src, func() { m.demandFlush(id, cause, then) })
		return
	}
	src.arb.DemandThrough(id.Num, cause)
	src.table.OnPersisted(id.Num, then)
}

// splitEpoch closes src's ongoing epoch early (deadlock avoidance, §3.3).
// When src's in-flight window is exhausted, the split waits behind a
// pressure flush of src's oldest epoch.
func (m *Machine) splitEpoch(src *coreCtx, cont func()) {
	if !src.table.CanAdvance() {
		oldest := src.table.Oldest().ID.Num
		src.arb.DemandThrough(oldest, epoch.CausePressure)
		src.table.OnPersisted(oldest, func() { m.splitEpoch(src, cont) })
		return
	}
	m.completeEpoch(src, epoch.SplitAdvance)
	cont()
}
