package epoch

import (
	"fmt"

	"persistbarriers/internal/sim"
)

// FlushDriver is the machine-layer mechanism that durably drains one
// epoch's pending lines: L1 writebacks, the FlushEpoch broadcast to the
// LLC banks, per-line NVRAM writes, and the BankAck/PersistCMP handshake
// (Section 4.1). done must fire when rec.Pending is empty and durable; rec
// stays valid until then, since the epoch cannot persist mid-flush.
type FlushDriver interface {
	FlushEpoch(rec *Record, done func())
}

// ArbiterStats counts flush-coordination activity for one core.
type ArbiterStats struct {
	FlushesDriven   uint64
	NaturalPersists uint64
}

// Arbiter is the per-core epoch arbiter of Section 4.1: it serializes
// epoch flushes for its core (one at a time), enforces program-order and
// IDT persist ordering, and retires epochs as they become durable.
type Arbiter struct {
	eng    *sim.Engine
	table  *Table
	driver FlushDriver

	// peers are every core's arbiter, indexed by core: an IDT source's
	// table answers whether it has persisted, and a demanded flush pulls
	// its sources along through their arbiters (the inform/dependence
	// register handshake of §4.2) — without that a dependent epoch could
	// wait forever on a source nobody else ever flushes.
	peers []*Arbiter

	// flushing is the epoch whose flush handshake is in flight, nil when
	// none: the arbiter drives one flush at a time, so the record its done
	// callback needs is a field and the callback is bound once. It is the
	// one *Record held across events, and safely: the head cannot persist,
	// and its slot cannot be reused, before its PersistCMP lands, because
	// Kick does nothing while a flush is in flight.
	flushing         *Record
	flushCompletedFn func()
	// kickFn is Kick bound once, for the dependence subscriptions.
	kickFn func()

	stats ArbiterStats
}

// SetPeers gives the arbiter every core's arbiter, indexed by core (its
// own included), for the IDT sources its epochs depend on.
func (a *Arbiter) SetPeers(peers []*Arbiter) { a.peers = peers }

// NewArbiter wires an arbiter to its core's table and flush driver.
func NewArbiter(eng *sim.Engine, table *Table, driver FlushDriver) (*Arbiter, error) {
	if eng == nil || table == nil || driver == nil {
		return nil, fmt.Errorf("epoch: arbiter requires engine, table and driver")
	}
	a := &Arbiter{eng: eng, table: table, driver: driver}
	a.flushCompletedFn, a.kickFn = a.flushCompleted, a.Kick
	return a, nil
}

// flushCompleted is the flush driver's done callback (PersistCMP landed).
func (a *Arbiter) flushCompleted() {
	head := a.flushing
	a.flushing = nil
	head.FlushCompleted = true
	a.Kick()
}

// DemandThrough requests that every epoch up to and including num be
// flushed (a conflict, eviction, or pressure demand). The first demand on
// an epoch fixes its recorded cause. The caller should then wait with
// Table.OnPersisted(num, ...).
func (a *Arbiter) DemandThrough(num uint64, cause FlushCause) {
	t := a.table
	for n := t.oldest; n <= num && n < t.next; n++ {
		if r := t.slot(n); !r.flushWanted {
			r.flushWanted = true
			r.Cause = cause
		}
	}
	a.Kick()
}

// RequestProactive marks epoch num for proactive flushing (PF, §3.2): the
// flush engine will drain it as soon as ordering permits, but the request
// does not override a conflict cause already recorded.
func (a *Arbiter) RequestProactive(num uint64) {
	r := a.table.Lookup(num)
	if r == nil {
		return
	}
	if !r.flushWanted {
		r.flushWanted = true
		r.Cause = CauseProactive
	}
	a.Kick()
}

// Kick re-evaluates the oldest unpersisted epoch. The machine layer calls
// it whenever something that could unblock progress happens: a barrier
// retires, a pending line drains naturally, a log write completes, or a
// dependence source persists.
func (a *Arbiter) Kick() {
	for {
		if a.flushing != nil {
			return
		}
		head := a.table.Oldest()
		if head.State == Open {
			// Cannot persist or flush an ongoing epoch; the barrier
			// (or a deadlock-avoidance split) must close it first.
			return
		}
		if !a.subscribeDeps(head) {
			// Waiting on an IDT source to persist. If our flush has been
			// demanded, the demand must pull the sources along, or a
			// source nobody flushes would stall us forever. A demand can
			// persist head before the loop ends (its sources all persisted
			// then) and its slot be reused, so the loop stops there.
			if head.flushWanted {
				num := head.ID.Num
				for i := 0; !a.table.IsPersisted(num) && i < len(head.Deps); i++ {
					d := &head.Deps[i]
					if !a.persisted(d.Source) && !d.demanded {
						d.demanded = true
						a.peers[d.Source.Core].DemandThrough(d.Source.Num, head.Cause)
					}
				}
			}
			return
		}
		if head.LogPending > 0 {
			return // undo-log writes still in flight (§5.2.1)
		}
		if len(head.Pending) == 0 {
			if head.AcksInFlight > 0 {
				// Every line's version is durable, but a second write of
				// one is still in flight (an early write-back overtaken
				// by an eviction's or a flush's write of the same
				// version); its ack re-kicks.
				return
			}
			// Fully drained (naturally or by a completed flush).
			if !head.flushWanted {
				a.stats.NaturalPersists++
			}
			a.table.markPersisted(head, a.eng.Now())
			continue
		}
		if head.FlushCompleted {
			if len(head.Pending) > 0 && head.AcksInFlight == 0 {
				// Not waiting on any ack: a line was re-dirtied by a
				// same-epoch store while its old version's ack was in
				// flight. Re-arm and flush the epoch again.
				head.FlushCompleted = false
				continue
			}
			// Waiting on straggler acks; the ack path re-kicks.
			return
		}
		if !head.flushWanted {
			return // buffered: wait for natural drain or a demand
		}
		a.flushing = head
		head.State = Flushing
		a.stats.FlushesDriven++
		a.table.probe.EpochFlushStart(a.eng.Now(), head.ID.Core, head.ID.Num, head.Cause.String())
		a.driver.FlushEpoch(head, a.flushCompletedFn)
		return
	}
}

// subscribeDeps returns true when all IDT sources have persisted; for each
// unpersisted source it arranges a one-time Kick on that source's persist.
func (a *Arbiter) subscribeDeps(r *Record) bool {
	ready := true
	for i := range r.Deps {
		d := &r.Deps[i]
		if a.persisted(d.Source) {
			continue
		}
		ready = false
		if !d.subscribed {
			d.subscribed = true
			a.peers[d.Source.Core].table.OnPersisted(d.Source.Num, a.kickFn)
		}
	}
	return ready
}

// DepsPersisted reports whether every IDT source of r, an epoch of this
// arbiter's core, has persisted. A line of r may reach NVRAM only when this
// holds (and r is the core's oldest unpersisted epoch).
func (a *Arbiter) DepsPersisted(r *Record) bool {
	for i := range r.Deps {
		if !a.persisted(r.Deps[i].Source) {
			return false
		}
	}
	return true
}

func (a *Arbiter) persisted(src ID) bool { return a.peers[src.Core].table.IsPersisted(src.Num) }

// Stats returns a snapshot of the arbiter's counters.
func (a *Arbiter) Stats() ArbiterStats { return a.stats }
