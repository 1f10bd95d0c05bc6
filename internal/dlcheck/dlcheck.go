// Package dlcheck decides durable linearizability for the pmkv engine: a
// FastTrack-style happens-before tracker observes every client operation
// online — reads with the identity of the publish whose value they
// returned, publishes, and durability-gated acks — and, given a crash
// image's per-key publishes and durability flags, checks that
//
//	(a) every op acked durable is recovered,
//	(b) no recovered state contradicts a value a client already observed
//	    of another session's write,
//	(c) the recovered publishes are downward-closed under the recorded
//	    happens-before relation between sessions (a session's own unacked
//	    publishes may persist in any order; see Check).
//
// The clock representation is adaptive, in the FastTrack tradition: each
// session carries one vector-clock component, every op ticks its own
// component, and a publish is timestamped with just its scalar clock (an
// "epoch" c@s in FastTrack terms) plus a reference to the session's
// latest full-clock snapshot. A new snapshot is taken only when a
// cross-session join — a read observing a foreign write — has raised a
// foreign component since the last one, so long same-session runs cost
// O(1) per op and full vector clocks materialize only at join points and
// at check time.
//
// A nil *Tracker is valid and inert: every observation method no-ops
// without allocating, so the engine's hot path pays one branch per op
// when checking is disabled (the same discipline as internal/obs and
// internal/telemetry).
package dlcheck

import (
	"math"
	"sync"
)

// writeRef identifies one publish and carries its adaptive timestamp:
// the writer's scalar clock at the write (own, the FastTrack epoch) and
// the snapshot holding the writer's foreign components at that point
// (-1: all foreign components were zero).
type writeRef struct {
	sess int32
	own  int32
	snap int32
	rec  int32 // engine mutation-record index
}

// pubRef is one session-local publish in program order.
type pubRef struct {
	rec  int32
	own  int32
	snap int32
}

// readObs is one client-observed read: the reader's clock position and
// the publish whose value (or tombstone) the response carried.
type readObs struct {
	idx  int32
	w    writeRef
	hasW bool
	key  string
}

// sessState is one session's tracker state.
type sessState struct {
	vc    []int32 // current vector clock; vc[self] counts this session's ops
	dirty bool    // a join raised a foreign component since the last snapshot
	snap  int32   // latest snapshot covering current foreign components (-1: none)
	pubs  []pubRef
	reads []readObs
}

// Tracker observes one engine's operations online. Safe for concurrent
// use; in the sharded store a single worker goroutine owns each engine,
// so the mutex is uncontended on the hot path.
type Tracker struct {
	mu    sync.Mutex
	sess  []*sessState
	snaps [][]int32
	byRec map[int32]writeRef
	acked int // mutation records [0, acked) were acked durable
	ops   int
	reads int
}

// New builds an empty tracker.
func New() *Tracker {
	return &Tracker{byRec: make(map[int32]writeRef)}
}

// ensure grows the session table through id and returns its state.
func (t *Tracker) ensure(id int) *sessState {
	for len(t.sess) <= id {
		t.sess = append(t.sess, &sessState{snap: -1})
	}
	return t.sess[id]
}

// tick advances the session's own component and returns the new value.
func (s *sessState) tick(self int) int32 {
	for len(s.vc) <= self {
		s.vc = append(s.vc, 0)
	}
	s.vc[self]++
	return s.vc[self]
}

// joinRef folds the write's clock (snapshot foreign components plus its
// epoch) into the reader's clock, reporting whether anything rose.
func (t *Tracker) joinRef(s *sessState, w writeRef) bool {
	changed := false
	if w.snap >= 0 {
		base := t.snaps[w.snap]
		for len(s.vc) < len(base) {
			s.vc = append(s.vc, 0)
		}
		for i, v := range base {
			if int32(i) != w.sess && v > s.vc[i] {
				s.vc[i] = v
				changed = true
			}
		}
	}
	for len(s.vc) <= int(w.sess) {
		s.vc = append(s.vc, 0)
	}
	if w.own > s.vc[w.sess] {
		s.vc[w.sess] = w.own
		changed = true
	}
	return changed
}

// ObserveRead records that session sess's response for key carried the
// value (or tombstone) of the publish with mutation-record index rec
// (-1: the key had never been written). The read joins the writer's
// clock into the reader's — the happens-before edge durable
// linearizability must respect. No-op on a nil tracker.
func (t *Tracker) ObserveRead(sess int, key string, rec int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := t.ensure(sess)
	idx := s.tick(sess)
	t.ops++
	t.reads++
	var w writeRef
	hasW := false
	if rec >= 0 {
		w, hasW = t.byRec[int32(rec)]
		if hasW && int(w.sess) != sess {
			if t.joinRef(s, w) {
				s.dirty = true
			}
		}
	}
	s.reads = append(s.reads, readObs{idx: idx, w: w, hasW: hasW, key: key})
	t.mu.Unlock()
}

// ObserveWrite records a publish by session sess with engine mutation-
// record index rec. The publish's timestamp is its scalar clock plus the
// session's current snapshot; a fresh snapshot is taken only when a join
// has raised a foreign component since the last one (the adaptive
// epoch↔vector-clock switch). No-op on a nil tracker.
func (t *Tracker) ObserveWrite(sess, rec int, key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := t.ensure(sess)
	own := s.tick(sess)
	t.ops++
	if s.dirty {
		t.snaps = append(t.snaps, append([]int32(nil), s.vc...))
		s.snap = int32(len(t.snaps) - 1)
		s.dirty = false
	}
	ref := writeRef{sess: int32(sess), own: own, snap: s.snap, rec: int32(rec)}
	s.pubs = append(s.pubs, pubRef{rec: ref.rec, own: own, snap: s.snap})
	t.byRec[ref.rec] = ref
	t.mu.Unlock()
}

// AckDurable records that the engine's first n mutation records were
// acked to clients as durable (the watermark-gated ack sites). Monotone;
// no-op on a nil tracker.
func (t *Tracker) AckDurable(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if n > t.acked {
		t.acked = n
	}
	t.mu.Unlock()
}

const never = int32(math.MaxInt32)

// vcAt reconstructs the full clock of a publish timestamp into dst
// (grown as needed): snapshot foreign components joined in, with the own
// component raised to the epoch value.
func (t *Tracker) vcAt(own, snap int32, sess int32, dst []int32) []int32 {
	if snap >= 0 {
		base := t.snaps[snap]
		for len(dst) < len(base) {
			dst = append(dst, 0)
		}
		for i, v := range base {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
	for len(dst) <= int(sess) {
		dst = append(dst, 0)
	}
	if own > dst[sess] {
		dst[sess] = own
	}
	return dst
}
