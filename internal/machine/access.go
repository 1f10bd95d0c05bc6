package machine

import (
	"fmt"

	"persistbarriers/internal/cache"
	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/noc"
	"persistbarriers/internal/nvram"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/sim"
)

// access serves one load or store for core c, firing done at completion;
// whole marks a store that writes the line whole (trace.StoreLine). This
// is the path on which epoch conflicts are detected (Section 3).
func (m *Machine) access(c *coreCtx, kind mem.Kind, line mem.Line, whole bool, done func()) {
	if ent, hit := c.l1.Lookup(line); hit {
		if kind == mem.Load {
			m.eng.After(L1Latency, done)
			return
		}
		d := m.dirEntryFor(line)
		if d.owner == c.id {
			// Exclusive hit. The only ordering hazard is an intra-thread
			// conflict with the line's own older-epoch tag.
			m.resolveConflict(m.acquireReq(c, kind, line, whole, done), ent.Tag)
			return
		}
		// Shared hit needing an upgrade: take the LLC path for ownership.
	}
	r := m.acquireReq(c, kind, line, whole, done)
	r.b = m.bank(line)
	m.eng.After(L1Latency+m.mesh.Latency(c.tile, r.b.tile, 0), r.atBankFn)
}

// memReq is one load or store from the moment it needs more than an L1
// hit until it completes: a pooled frame like flush.go's, whose bound
// methods are every continuation the request path schedules. A request
// that reaches its home bank takes the line's transient state (locked) and
// lends the line its own busy signal; an exclusive L1 hit stays unlocked.
// The chain is sequential, so one set of fields serves every hop and one
// stall serves every wait. A locked request goes back to the free list in
// unlock, an unlocked one when its store commits or restarts.
type memReq struct {
	m     *Machine
	c     *coreCtx
	kind  mem.Kind
	line  mem.Line
	whole bool // a store that writes the line whole: no data travels to the writer
	done  func()

	b      *bankCtx   // home bank
	ls     *lineState // the line's state, once locked
	locked bool       // holds ls.busy; restarts re-enter atBankLocked
	busy   sim.Signal // what ls.busy points at while locked
	stall  stall

	tag   epoch.ID    // the tag the conflict check ran against
	src   epoch.ID    // inter-thread conflict: the source epoch being resolved
	dep   epoch.ID    // deferred IDT dependence, attached at completion (None: nothing)
	owner *coreCtx    // recall in flight: the core being recalled
	ver   mem.Version // version in transit: the owner's copy (recall), then the LLC's (grant)

	victim cache.Entry // the dirty L1 line the fill is writing back first

	// Every continuation, bound once in acquireReq: xFn is r.x.
	atBankFn, atBankLockedFn, unlockFn         func()
	recallArrivedFn, recallFinishFn            func()
	fillReadLineFn, fillReturnFn, fillInsertFn func()
	l1FillFn, victimAtBankFn, victimWrittenFn  func()
	commitFn, resolvedNilFn                    func()
	idtResolveFn, onlineInterResolveFn         func()
	onlineWaitedFn, l1FilledFn                 func()
}

func (m *Machine) acquireReq(c *coreCtx, kind mem.Kind, line mem.Line, whole bool, done func()) *memReq {
	r := m.memReqs.get()
	if r == nil {
		r = &memReq{m: m, src: epoch.None, dep: epoch.None}
		r.stall.init(m)
		r.atBankFn, r.atBankLockedFn, r.unlockFn = r.atBank, r.atBankLocked, r.unlock
		r.recallArrivedFn, r.recallFinishFn = r.recallArrived, r.recallFinish
		r.fillReadLineFn, r.fillReturnFn, r.fillInsertFn = r.fillReadLine, r.fillReturn, r.fillInsert
		r.l1FillFn, r.victimAtBankFn, r.victimWrittenFn = r.l1Fill, r.victimAtBank, r.victimWritten
		r.commitFn, r.resolvedNilFn = r.commit, func() { r.resolved(epoch.None) }
		r.idtResolveFn, r.onlineInterResolveFn = r.idtResolve, r.onlineInterResolve
		r.onlineWaitedFn, r.l1FilledFn = r.onlineWaited, r.l1Filled
	}
	r.c, r.kind, r.line, r.whole, r.done = c, kind, line, whole, done
	r.stall.c = c
	return r
}

// releaseReq ends an unlocked request (or, from unlock, a locked one) and
// hands back its completion.
func (m *Machine) releaseReq(r *memReq) func() {
	done := r.done
	r.c, r.done, r.b, r.ls, r.owner, r.stall.c = nil, nil, nil, nil, nil, nil
	r.src, r.dep, r.locked = epoch.None, epoch.None, false
	m.memReqs.put(r)
	return done
}

// atBank is the request's arrival at the home LLC bank. The bank admits
// one request per line at a time (the transient-state blocking a real
// controller's MSHRs provide): competing requests queue behind the line's
// busy signal, which eliminates ownership races and request livelock.
func (r *memReq) atBank() {
	m := r.m
	ls := m.lines.get(r.line)
	if ls.busy != nil {
		ls.busy.Subscribe(r.atBankFn)
		return
	}
	r.ls, r.locked = ls, true
	r.busy.Reset()
	ls.busy = &r.busy
	r.atBankLocked()
}

// unlock completes a locked request: the line's transient state is freed,
// the requests queued behind it re-arrive, and done fires.
func (r *memReq) unlock() {
	r.ls.busy = nil
	r.busy.Fire()
	r.m.releaseReq(r)()
}

// atBankLocked processes a request that holds the line's transient state:
// recall a remote modified copy, ensure residency, run the conflict check,
// then grant. Every restart of the request (recall, fill, tag change,
// ownership race) re-enters here.
func (r *memReq) atBankLocked() {
	d := &r.ls.dir
	if d.owner >= 0 && d.owner != r.c.id {
		r.recallOwner()
		return
	}
	if !r.b.arr.Contains(r.line) {
		r.llcFill()
		return
	}
	ent, _ := r.b.arr.Lookup(r.line)
	r.m.resolveConflict(r, ent.Tag)
}

// resolved continues a request whose conflict check (against r.tag) is
// settled. dep is the inter-thread source epoch whose dependence must be
// attached to the requesting epoch at completion time (epoch.None when the
// request may complete without tracking anything).
func (r *memReq) resolved(dep epoch.ID) {
	r.dep = dep
	if !r.locked {
		r.commit()
		return
	}
	// An online resolution may have waited; if a new epoch's version
	// landed in the LLC meanwhile, the conflict check must be redone
	// against the fresh tag.
	if cur, ok := r.b.arr.Peek(r.line); !ok || cur.Tag != r.tag {
		r.atBankLocked()
		return
	}
	r.grant()
}

// recallOwner pulls the line out of the current owner's L1: its dirty data
// is written back into the LLC copy, and the owner's copy is invalidated
// (store) or downgraded to shared (load).
func (r *memReq) recallOwner() {
	m, b := r.m, r.b
	o := m.cores[r.ls.dir.owner]
	r.owner = o
	lat := m.mesh.Latency(b.tile, o.tile, 0) + L1Latency + m.mesh.Latency(o.tile, b.tile, mem.LineSize)
	m.eng.After(lat, r.recallArrivedFn)
}

func (r *memReq) recallArrived() {
	m, o := r.m, r.owner
	if r.ls.dir.owner != o.id {
		r.atBankLocked() // another request already recalled it
		return
	}
	ent, has := o.l1.Peek(r.line)
	r.ver = ent.Version
	if has && ent.Dirty {
		m.llcApplyWriteback(r.b, r.line, ent.Tag, ent.Version, r.recallFinishFn)
		return
	}
	r.recallFinish()
}

// recallFinish runs once the owner's data is in the LLC. The writeback may
// have waited on an epoch flush and the world may have moved. Downgrade
// o's copy only if it still holds at most the version we wrote back — a
// newer version means o recommitted and must stay the tracked owner. A
// vanished copy also releases ownership, or the recall would retry forever.
func (r *memReq) recallFinish() {
	o, d := r.owner, &r.ls.dir
	pe, ok := o.l1.Peek(r.line)
	switch {
	case !ok:
		d.sharers &^= 1 << uint(o.id)
		if d.owner == o.id {
			d.owner = -1
		}
	case pe.Version <= r.ver:
		if r.kind == mem.Store {
			o.l1.Invalidate(r.line)
			d.sharers &^= 1 << uint(o.id)
		} else {
			o.l1.CleanLine(r.line)
			d.sharers |= 1 << uint(o.id)
		}
		if d.owner == o.id {
			d.owner = -1
		}
	}
	r.atBankLocked()
}

// llcApplyWriteback merges a written-back dirty line into the LLC copy.
// If the LLC copy holds an unpersisted version from a different epoch, that
// version must reach NVRAM first (the multi-version collision of §3.1's
// write-after-write case), so the writeback stalls behind a demanded flush.
func (m *Machine) llcApplyWriteback(b *bankCtx, line mem.Line, tag epoch.ID, ver mem.Version, cont func()) {
	if !b.arr.Contains(line) {
		// Inclusion was broken by a concurrent eviction: re-establish.
		m.llcInsert(nil, b, line, ver, func() {
			m.llcApplyWriteback(b, line, tag, ver, cont)
		})
		return
	}
	ent, _ := b.arr.Peek(line)
	if ent.Version > ver {
		cont() // a newer version already landed; drop the stale data
		return
	}
	if ent.Version == ver {
		// Same version: either a duplicate writeback (already dirty and
		// tracked) or our own clean placeholder from the reinsert path.
		// Restore the dirty state and epoch tag only if the version's
		// epoch is still unpersisted; otherwise the copy is legitimately
		// clean.
		if !ent.Dirty && m.lookupRec(tag) != nil {
			b.arr.Write(line, tag, ver)
		}
		cont()
		return
	}
	if ent.Dirty && ent.Tag.Valid() && ent.Tag != tag {
		if rec := m.lookupRec(ent.Tag); rec != nil {
			m.evictionConflicts++
			rec.ConflictDemanded = true
			if m.cfg.Probe.Active() {
				m.cfg.Probe.Conflict(m.eng.Now(), obs.ConflictEviction, -1, rec.ID.Core, rec.ID.Num, line, obs.ResolveDemand)
			}
			m.demandFlush(ent.Tag, epoch.CauseEviction, func() {
				m.llcApplyWriteback(b, line, tag, ver, cont)
			})
			return
		}
	}
	b.arr.Write(line, tag, ver)
	cont()
}

// llcFill fetches a missing line from NVRAM into the bank: request to the
// controller's tile, device read, data back to the bank, insert. A
// whole-line store reads nothing: the bank allocates the line at once.
func (r *memReq) llcFill() {
	if r.whole {
		r.fillInsert()
		return
	}
	m := r.m
	mcTile := m.mcTiles[m.mcs.ControllerFor(r.line).ID()]
	m.eng.After(m.mesh.Latency(r.b.tile, mcTile, 0), r.fillReadLineFn)
}

func (r *memReq) fillReadLine() {
	r.m.mcs.ControllerFor(r.line).Read(r.line, r.fillReturnFn)
}

func (r *memReq) fillReturn() {
	m := r.m
	mcTile := m.mcTiles[m.mcs.ControllerFor(r.line).ID()]
	m.eng.After(m.mesh.Latency(mcTile, r.b.tile, mem.LineSize), r.fillInsertFn)
}

func (r *memReq) fillInsert() {
	r.m.llcInsert(r.c, r.b, r.line, r.ls.latest, r.atBankLockedFn)
}

// llcInsert places a line into the bank, resolving the victim's coherence
// and persist-ordering obligations. c (may be nil) is the core whose
// request is stalled, for stall attribution.
func (m *Machine) llcInsert(c *coreCtx, b *bankCtx, line mem.Line, ver mem.Version, cont func()) {
	if b.arr.Contains(line) {
		cont()
		return
	}
	// Never evict a line another request is actively transacting (its
	// busy signal is held): stealing it mid-transfer livelocks under
	// heavy set contention. If every way is busy, retry shortly.
	v, full, ok := b.arr.VictimAvoiding(line, m.avoidBusy)
	if !ok {
		m.eng.After(LLCLatency, m.deferInsert(c, b, line, ver, cont).rerunFn)
		return
	}
	if !full {
		b.arr.Insert(line, false, epoch.None, ver)
		cont()
		return
	}
	vd := m.dirEntryFor(v.Line)
	if vd.owner >= 0 {
		// A private cache holds the victim modified: recall it into the
		// LLC first so its data is not lost, then retry.
		o := m.cores[vd.owner]
		ent, has := o.l1.Peek(v.Line)
		if has && ent.Dirty {
			lat := m.mesh.Latency(b.tile, o.tile, 0) + L1Latency + m.mesh.Latency(o.tile, b.tile, mem.LineSize)
			w := m.deferInsert(c, b, line, ver, cont)
			w.owner, w.held = o, ent
			m.eng.After(lat, w.recalledFn)
			return
		}
		vd.owner = -1
	}
	finishInsert := func() {
		m.backInvalidate(v.Line, vd)
		if vd.owner >= 0 {
			// A dirty private copy survived an ownership race; the
			// victim cannot leave yet. Retry around it.
			m.llcInsert(c, b, line, ver, cont)
			return
		}
		if b.arr.Contains(v.Line) {
			b.arr.InsertReplacing(line, v.Line, false, epoch.None, ver)
		} else {
			m.llcInsert(c, b, line, ver, cont)
			return
		}
		cont()
	}
	if !v.Dirty {
		finishInsert()
		return
	}
	rec := m.lookupRec(v.Tag)
	if rec == nil {
		// Untagged dirty data (NP/SP/WT, or an already-persisted epoch):
		// plain fire-and-forget writeback.
		m.nvramWriteFrom(b.tile, nil, v.Line, v.Version, nil)
		finishInsert()
		return
	}
	src := m.cores[v.Tag.Core]
	if m.canDrainLine(src, rec) {
		// Natural replacement persists the line offline — the mechanism
		// LB relies on (§2.1).
		m.nvramWriteFrom(b.tile, rec, v.Line, v.Version, nil)
		finishInsert()
		return
	}
	// Persist ordering forbids writing this line yet: older epochs (or
	// IDT sources) must persist first. Demand the flush and retry.
	m.evictionConflicts++
	rec.ConflictDemanded = true
	if m.cfg.Probe.Active() {
		reqCore := -1
		if c != nil {
			reqCore = c.id
		}
		m.cfg.Probe.Conflict(m.eng.Now(), obs.ConflictEviction, reqCore, rec.ID.Core, rec.ID.Num, v.Line, obs.ResolveDemand)
	}
	w := m.deferInsert(c, b, line, ver, cont)
	w.since = m.eng.Now()
	m.demandFlush(v.Tag, epoch.CauseEviction, w.flushedFn)
}

// insertWait is an llcInsert that has to wait before it can run again: for
// a way to come free, for the victim's dirty L1 copy to be recalled, or
// for the victim's epoch to be flushed. It holds the call's arguments and
// reruns the call; a pooled frame like flush.go's, released as it reruns.
type insertWait struct {
	m    *Machine
	c    *coreCtx
	b    *bankCtx
	line mem.Line
	ver  mem.Version
	cont func()

	owner *coreCtx    // recall: the core holding the victim modified...
	held  cache.Entry // ...and its copy when the recall was sent
	since sim.Cycle   // eviction conflict: when the requester began to stall

	rerunFn, recalledFn, writtenBackFn, flushedFn func() // bound once in deferInsert
}

func (m *Machine) deferInsert(c *coreCtx, b *bankCtx, line mem.Line, ver mem.Version, cont func()) *insertWait {
	w := m.insertWaits.get()
	if w == nil {
		w = &insertWait{m: m}
		w.rerunFn, w.recalledFn, w.writtenBackFn, w.flushedFn = w.rerun, w.recalled, w.writtenBack, w.flushed
	}
	w.c, w.b, w.line, w.ver, w.cont = c, b, line, ver, cont
	return w
}

func (w *insertWait) rerun() {
	m, c, b, line, ver, cont := w.m, w.c, w.b, w.line, w.ver, w.cont
	w.c, w.b, w.cont, w.owner = nil, nil, nil, nil
	m.insertWaits.put(w)
	m.llcInsert(c, b, line, ver, cont)
}

func (w *insertWait) recalled() {
	w.m.llcApplyWriteback(w.b, w.held.Line, w.held.Tag, w.held.Version, w.writtenBackFn)
}

func (w *insertWait) writtenBack() {
	o, vd := w.owner, w.m.dirEntryFor(w.held.Line)
	if vd.owner == o.id {
		o.l1.Invalidate(w.held.Line)
		vd.owner = -1
		vd.sharers &^= 1 << uint(o.id)
	}
	w.rerun()
}

func (w *insertWait) flushed() {
	if w.c != nil {
		w.c.stalls[StallEviction] += w.m.eng.Now() - w.since
	}
	w.rerun()
}

// canDrainLine reports whether a line of rec may be written to NVRAM right
// now without violating epoch ordering: rec must be the core's oldest
// unpersisted epoch, with all IDT sources persisted and its undo-log
// entries durable.
func (m *Machine) canDrainLine(src *coreCtx, rec *epoch.Record) bool {
	return src.table.Oldest() == rec && src.arb.DepsPersisted(rec) && rec.LogPending == 0
}

// backInvalidate removes the clean L1 copies of a line the LLC is
// evicting (inclusion). Dirty copies are never dropped here: the caller
// recalls the tracked owner, and a dirty copy surviving an ownership race
// stays resident (inclusion is re-established by its eventual writeback).
func (m *Machine) backInvalidate(line mem.Line, d *dirEntry) {
	keptOwner := false
	for _, o := range m.cores {
		pe, ok := o.l1.Peek(line)
		if !ok {
			continue
		}
		if pe.Dirty {
			d.owner = o.id
			d.sharers = 1 << uint(o.id)
			keptOwner = true
			continue
		}
		o.l1.Invalidate(line)
		d.sharers &^= 1 << uint(o.id)
	}
	if !keptOwner {
		d.sharers = 0
		d.owner = -1
	}
}

// grant finishes a request at the bank: data response for loads,
// ownership (with sharer invalidation) for stores, with the line's data
// unless the store writes the line whole.
func (r *memReq) grant() {
	m, c, b, line, d := r.m, r.c, r.b, r.line, &r.ls.dir
	if !b.arr.Contains(line) {
		r.atBankLocked() // evicted while we waited: restart
		return
	}
	if r.kind == mem.Store && d.owner >= 0 && d.owner != c.id {
		r.atBankLocked() // ownership raced away: restart
		return
	}
	ent, _ := b.arr.Peek(line)
	r.ver = ent.Version
	payload := mem.LineSize
	if r.whole {
		payload = 0
	}
	respLat := LLCLatency + m.mesh.Latency(b.tile, c.tile, payload)
	if r.kind == mem.Store {
		// Invalidate the other sharers; the slowest round trip bounds
		// the grant.
		var invLat sim.Cycle
		for _, o := range m.cores {
			if o.id != c.id && d.sharers&(1<<uint(o.id)) != 0 {
				if se, ok := o.l1.Peek(line); ok && se.Dirty {
					// A dirty copy must be recalled through the owner
					// path, never dropped as a sharer.
					panic(fmt.Sprintf("machine: invalidating dirty copy of %v in L1-%d", line, o.id))
				}
				o.l1.Invalidate(line)
				rt := 2 * m.mesh.Latency(b.tile, o.tile, 0)
				if rt > invLat {
					invLat = rt
				}
			}
		}
		d.sharers = 1 << uint(c.id)
		d.owner = c.id
		if invLat > respLat {
			respLat = invLat
		}
		// The line's busy signal (held since atBank) covers the transfer
		// until the commit completes.
	} else {
		d.sharers |= 1 << uint(c.id)
	}
	m.eng.After(respLat, r.l1FillFn)
}

// commit commits a store whose ordering conflicts were resolved, but only
// if the core still holds the line and no other core snatched ownership
// during the waits; otherwise the access restarts — a locked request from
// the top of atBankLocked, an exclusive L1 hit as a fresh access. The
// dependence attachment, the check, and the commit happen in one event, so
// exactly one contender wins and the dependence lands on the epoch that
// tags the line.
func (r *memReq) commit() {
	m, c, line := r.m, r.c, r.line
	d := m.dirEntryFor(line)
	if ent, hit := c.l1.Peek(line); hit && (d.owner == c.id || d.owner == -1) {
		// With posted stores, an earlier same-core store (or an epoch
		// split) may have tagged the line with an older epoch since the
		// conflict check ran: that is an intra-thread conflict and must
		// flush first (§3.2).
		if ent.Dirty && ent.Tag.Valid() && ent.Tag.Core == c.id && ent.Tag != c.table.Current().ID {
			if rec := c.table.Lookup(ent.Tag.Num); rec != nil {
				m.intraConflicts++
				rec.ConflictDemanded = true
				if m.cfg.Probe.Active() {
					m.cfg.Probe.Conflict(m.eng.Now(), obs.ConflictIntra, c.id, rec.ID.Core, rec.ID.Num, line, obs.ResolveOnline)
				}
				c.arb.DemandThrough(ent.Tag.Num, epoch.CauseIntra)
				r.stall.until(ent.Tag, StallIntra, r.commitFn)
				return
			}
		}
		if dep := r.dep; m.lookupRec(dep) != nil {
			// Attach the deferred inter-thread dependence, then rerun
			// every check: the register-full fallback may have waited,
			// and the world may have moved meanwhile. On the synchronous
			// success path the recheck happens in this same event.
			r.dep = epoch.None
			m.attachDep(r, dep, r.commitFn)
			return
		}
		if r.locked {
			m.finishStore(c, line, r.whole, r.unlockFn)
		} else {
			whole := r.whole // read before releaseReq hands the frame back
			m.finishStore(c, line, whole, m.releaseReq(r))
		}
		return
	}
	if r.locked {
		r.atBankLocked()
		return
	}
	whole := r.whole // read before releaseReq hands the frame back
	m.access(c, mem.Store, line, whole, m.releaseReq(r))
}

// l1Fill installs the granted line into the requester's L1, writing back a
// dirty victim first.
func (r *memReq) l1Fill() {
	m, c := r.m, r.c
	if c.l1.Contains(r.line) {
		r.l1Filled() // upgrade: data already present
		return
	}
	v, full := c.l1.Victim(r.line)
	if full && v.Dirty {
		r.victim = v
		m.eng.After(m.mesh.Latency(c.tile, m.bank(v.Line).tile, mem.LineSize), r.victimAtBankFn)
		return
	}
	c.l1.Insert(r.line, false, epoch.None, r.ver)
	r.l1Filled()
}

func (r *memReq) victimAtBank() {
	v := r.victim
	r.m.llcApplyWriteback(r.m.bank(v.Line), v.Line, v.Tag, v.Version, r.victimWrittenFn)
}

func (r *memReq) victimWritten() {
	c, line := r.c, r.victim.Line
	if ent, has := c.l1.Peek(line); has && ent.Dirty {
		c.l1.Invalidate(line)
		vd := r.m.dirEntryFor(line)
		if vd.owner == c.id {
			vd.owner = -1
		}
		vd.sharers &^= 1 << uint(c.id)
	}
	r.l1Fill()
}

func (r *memReq) l1Filled() {
	if r.kind == mem.Store {
		r.commit()
		return
	}
	// Loads attach their inter-thread dependence at completion.
	r.m.attachDep(r, r.dep, r.unlockFn)
}

// finishStore commits the store (whole: a trace.StoreLine) and applies the
// model's persist rule.
func (m *Machine) finishStore(c *coreCtx, line mem.Line, whole bool, done func()) {
	ver, first := m.commitStore(c, line)
	switch m.cfg.Model {
	case SP:
		m.eng.After(L1Latency, func() { m.spPersist(c, line, ver, done) })
	case WT:
		m.eng.After(L1Latency, func() { m.wtPersist(c, line, ver, done) })
	default:
		if whole && first {
			m.writeBackEarly(c, line, ver)
		}
		m.eng.After(L1Latency, done)
	}
}

// writeBackEarly is the early write-back, beyond the paper: on an LB++
// machine (IDT and PF), a whole-line store's version goes from the L1
// straight to its memory controller when it commits, as background
// traffic, if its epoch could drain the line now (canDrainLine). A store
// to a line its epoch still owes NVRAM does not qualify, so no older
// version of the epoch's, in the LLC or on its way to NVRAM, can land
// after it. As flush step 1a does, the LLC copy is brought up to the
// version, here clean, so a later recall of the cleaned L1 copy cannot
// leave the LLC serving an older one. The epoch's flush then skips the
// line. An epoch that has written back early is split before it takes an
// IDT dependence (attachDep), so the edge lands on the next epoch.
func (m *Machine) writeBackEarly(c *coreCtx, line mem.Line, ver mem.Version) {
	if m.cfg.Model != LB || !m.cfg.PF || !m.cfg.IDT || !m.cfg.EnableSplit || m.cfg.BulkEpochStores > 0 {
		return
	}
	rec := c.table.Current()
	if !m.canDrainLine(c, rec) && m.plant != plantEarlyWriteAnyEpoch {
		return
	}
	b := m.bank(line)
	if llcEnt, ok := b.arr.Peek(line); ok && llcEnt.Version < ver {
		if llcEnt.Dirty && llcEnt.Tag.Valid() && llcEnt.Tag != rec.ID && m.lookupRec(llcEnt.Tag) != nil {
			return // another epoch owes NVRAM the older version first
		}
		b.arr.Write(line, epoch.None, ver)
		b.arr.CleanLine(line)
	}
	m.lines.lookup(line).early = ver
	rec.EarlyWrites++
	rec.AcksInFlight++
	m.earlyWritebacks++
	w := m.acquireNVWrite(rec.ID, line, ver)
	w.background = true
	m.eng.After(m.mesh.Latency(c.tile, m.mcTiles[w.mc.ID()], mem.LineSize), w.atControllerFn)
}

// commitStore writes the line into c's L1 with the current epoch's tag,
// records pending/write-set state, and issues the undo-log write on the
// first modification in the epoch (§5.2.1). It returns the new version,
// and whether the line was not pending in the epoch before it.
func (m *Machine) commitStore(c *coreCtx, line mem.Line) (mem.Version, bool) {
	ver := m.vs.Next()
	ls := m.lines.get(line)
	ls.latest = ver
	if tok, ok := c.pendingTok[line]; ok {
		delete(c.pendingTok, line)
		m.tokenVersions[tok] = ver
	}
	d := &ls.dir
	d.owner = c.id
	d.sharers |= 1 << uint(c.id)
	if !m.usesEpochs() {
		c.l1.Write(line, epoch.None, ver)
		return ver, false
	}
	cur := c.table.Current()
	first := cur.AddPending(line)
	prev := c.l1.Write(line, cur.ID, ver)
	if prev.Dirty && prev.Tag.Valid() && prev.Tag != cur.ID && m.lookupRec(prev.Tag) != nil {
		panic(fmt.Sprintf("machine: store on core %d overwrote unpersisted %v version of %v",
			c.id, prev.Tag, line))
	}
	cur.StoreCount++
	if m.cfg.RecordHistory {
		cur.Writes[line] = ver
	}
	if m.cfg.Logging && first {
		m.logWrites++
		cur.LogPending++
		w := m.acquireNVWrite(cur.ID, line, prev.Version)
		w.log = true
		m.eng.After(m.mesh.Latency(c.tile, m.mcTiles[w.mc.ID()], mem.LineSize), w.atControllerFn)
	}
	return ver, first
}

// spPersist synchronously persists one store (strict persistency rule S2).
func (m *Machine) spPersist(c *coreCtx, line mem.Line, ver mem.Version, done func()) {
	t0 := m.eng.Now()
	mc := m.mcs.ControllerFor(line)
	mcTile := m.mcTiles[mc.ID()]
	m.eng.After(m.mesh.Latency(c.tile, mcTile, mem.LineSize), func() {
		mc.Write(line, ver, func() {
			m.lineDurable(epoch.None, line, ver)
			m.eng.After(m.mesh.Latency(mcTile, c.tile, 0), func() {
				c.stalls[StallPersistQueue] += m.eng.Now() - t0
				done()
			})
		})
	})
}

// wtPersist enqueues a non-coalesced NVRAM write (naive BSP): visibility
// is decoupled (rule S2 relaxed) so the store completes immediately, but
// rule S1 still holds — a core's persists happen strictly in program
// order, so each write issues only after its predecessor's PersistAck.
// The core stalls when the per-core persist queue is full. This is the
// design the paper measures at ~8x NP (§7.2).
func (m *Machine) wtPersist(c *coreCtx, line mem.Line, ver mem.Version, done func()) {
	if c.wtInFlight >= m.cfg.WTQueue {
		t0 := m.eng.Now()
		c.wtWaiters = append(c.wtWaiters, func() {
			c.stalls[StallPersistQueue] += m.eng.Now() - t0
			m.wtPersist(c, line, ver, done)
		})
		return
	}
	c.wtInFlight++
	c.wtQueue = append(c.wtQueue, wtWrite{line: line, ver: ver})
	if len(c.wtQueue) == 1 {
		m.wtIssueHead(c)
	}
	done()
}

// wtIssueHead sends the oldest queued persist to its controller; the ack
// releases a queue slot and issues the next one, serializing the core's
// persists in program order.
func (m *Machine) wtIssueHead(c *coreCtx) {
	w := c.wtQueue[0]
	mc := m.mcs.ControllerFor(w.line)
	mcTile := m.mcTiles[mc.ID()]
	m.eng.After(m.mesh.Latency(c.tile, mcTile, mem.LineSize), func() {
		mc.Write(w.line, w.ver, func() {
			m.lineDurable(epoch.None, w.line, w.ver)
			c.wtQueue = c.wtQueue[1:]
			c.wtInFlight--
			if len(c.wtQueue) > 0 {
				m.wtIssueHead(c)
			}
			if len(c.wtWaiters) > 0 {
				waiter := c.wtWaiters[0]
				c.wtWaiters = c.wtWaiters[1:]
				waiter()
			}
		})
	})
}

// nvramWriteFrom issues a durable line write from a tile, notifying the
// epoch bookkeeping (and optional ack) when the PersistAck returns.
func (m *Machine) nvramWriteFrom(from noc.Tile, rec *epoch.Record, line mem.Line, ver mem.Version, ack func()) {
	id := epoch.None
	if rec != nil {
		rec.AcksInFlight++
		id = rec.ID
	}
	w := m.acquireNVWrite(id, line, ver)
	w.ack = ack
	m.eng.After(m.mesh.Latency(from, m.mcTiles[w.mc.ID()], mem.LineSize), w.atControllerFn)
}

// nvWrite is one durable write on its way from a tile to a memory
// controller and into NVRAM: a line version, or (log set) the undo-log
// entry saying line held version ver before epoch id first wrote it. A
// pooled frame like flush.go's: its two continuations are bound once, and the
// frame is released when the PersistAck has fired.
type nvWrite struct {
	m    *Machine
	mc   *nvram.Controller
	id   epoch.ID // the epoch the write belongs to; None for untagged data
	line mem.Line
	ver  mem.Version
	log  bool
	ack  func()
	// background marks an early write-back: it joins its controller's
	// background queue.
	background bool

	atControllerFn, persistAckFn func() // bound once in acquireNVWrite
}

func (m *Machine) acquireNVWrite(id epoch.ID, line mem.Line, ver mem.Version) *nvWrite {
	w := m.nvWrites.get()
	if w == nil {
		w = &nvWrite{m: m}
		w.atControllerFn, w.persistAckFn = w.atController, w.persistAck
	}
	w.mc, w.id, w.line, w.ver = m.mcs.ControllerFor(line), id, line, ver
	return w
}

func (w *nvWrite) atController() {
	if w.log {
		w.mc.WriteLog(nvram.LogEntry{Line: w.line, Old: w.ver, EpochCore: w.id.Core, EpochNum: w.id.Num}, w.persistAckFn)
		return
	}
	if w.background {
		w.mc.WriteBackground(w.line, w.ver, w.persistAckFn)
		return
	}
	w.mc.Write(w.line, w.ver, w.persistAckFn)
}

func (w *nvWrite) persistAck() {
	m, id, line, ver, log, ack := w.m, w.id, w.line, w.ver, w.log, w.ack
	w.mc, w.log, w.background, w.ack = nil, false, false, nil
	m.nvWrites.put(w)
	if log {
		m.cores[id.Core].table.Lookup(id.Num).LogPending-- // cannot persist before this ack
		m.cores[id.Core].arb.Kick()
		return
	}
	m.lineDurable(id, line, ver)
	if ack != nil {
		ack()
	}
}

// lookupRec resolves a cache tag to its live epoch record, or nil when the
// epoch has persisted (or the model tracks no epochs). Hold the tag, not
// the record, across events.
func (m *Machine) lookupRec(tag epoch.ID) *epoch.Record {
	if !tag.Valid() || !m.usesEpochs() {
		return nil
	}
	return m.cores[tag.Core].table.Lookup(tag.Num)
}
