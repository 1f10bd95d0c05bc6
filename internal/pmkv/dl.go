// Durable-linearizability bridge: the engine's one read rule (which write
// answers a read), the observation hooks into internal/dlcheck, and the
// translation of a machine result into the checker's image — each key's
// writes in record order with per-write durability flags.
package pmkv

import (
	"cmp"
	"slices"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/machine"
	"persistbarriers/internal/mem"
)

// observedRead is the one answer to "what does key hold for session sess":
// the session's own write in the open commit window, else the key's settled
// state — the overlay's record, which is the newest retired write, else the
// checkpoint's entry. A window's writes cannot fold before the pump that
// feeds them settles the window, so the session's own write is always
// still a record. It returns the value, whether the key is present, the
// mutation record that wrote it (-1: never written; the tracker's
// happens-before edge) and its entry lines, which are what a Get loads.
// Caller holds e.mu.
func (e *Engine) observedRead(sess int, key string) (val []byte, found bool, rec int, span lineSpan) {
	r := e.batch[windowKey{key, sess}]
	if r == nil {
		r = e.live[key]
	}
	if r != nil {
		return r.Value, r.Op == Put, r.Idx, lineSpan{first: r.EntryLine, n: r.Entries}
	}
	en := e.cp.lookup(key)
	if e.plant == plantStaleRead && en != nil {
		en = e.superseded[key]
	}
	if en != nil {
		return en.val, en.found, en.rec, en.span
	}
	return nil, false, -1, lineSpan{}
}

// dlImage translates a machine result into the checker's image: every
// write whose entry stores all retired, grouped per key in record order,
// flagged durable when its whole entry reached NVRAM and recovery keeps it
// or a later write of its key — the stubs of the folded writes (judged
// against this image like any other, so a write folded too early shows as
// lost) plus the tail's. A write above the one recovery keeps for its key
// is lost however its lines read: that is how a freed entry's survivor
// shows. Keys are emitted in ascending order for determinism.
func (e *Engine) dlImage(res *machine.Result) *dlcheck.Image {
	e.mu.Lock()
	tail := e.tail
	pubs := slices.Clone(e.cp.stubs)
	e.mu.Unlock()

	won := e.scan(res)
	kept := func(key string, rec int) bool {
		w, ok := won[key]
		return ok && rec <= w.rec
	}
	img := &dlcheck.Image{Order: make([]dlcheck.Publish, 0, len(pubs)+len(tail))}
	for _, p := range pubs {
		img.Order = append(img.Order, dlcheck.Publish{Rec: p.rec, Key: p.key, Durable: persistedFrom(res.Image, p.span, p.lo) && kept(p.key, p.rec)})
	}
	for _, r := range tail {
		if retired, durable, _ := entryState(res, r); retired {
			img.Order = append(img.Order, dlcheck.Publish{Rec: r.Idx, Key: r.Key, Durable: durable && kept(r.Key, r.Idx)})
		}
	}
	slices.SortFunc(img.Order, func(a, b dlcheck.Publish) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Rec, b.Rec))
	})
	return img
}

// persistedFrom reports whether every line of a folded entry whose stores
// committed at lo or above holds a version of at least lo: no line ever
// went back below its own store, so that is "the entry was durable".
func persistedFrom(image map[mem.Line]mem.Version, span lineSpan, lo mem.Version) bool {
	for i := 0; i < span.n; i++ {
		if image[span.first+mem.Line(i)] < lo {
			return false
		}
	}
	return true
}

// CheckDL decides durable linearizability of a machine result against
// everything the tracker observed online. Nil when checking is off.
// Writes the tracker saw but the image omits (never retired before the
// crash) count as lost.
func (e *Engine) CheckDL(res *machine.Result) *dlcheck.Verdict {
	if e.dl == nil {
		return nil
	}
	return e.dl.Check(e.dlImage(res))
}
