// Durable-linearizability bridge: the engine's group-commit read
// snapshot (which publish answered each read), the observation hooks
// into internal/dlcheck, and the translation of a machine result into
// the checker's image — the per-bucket publish commit order with
// per-publish durability flags.
package pmkv

import (
	"cmp"
	"slices"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/machine"
)

// batchWrite is one session's last write to a key within the current
// group commit (the value its own later reads in the batch observe).
type batchWrite struct {
	val   []byte
	found bool
	rec   int
}

// batchKey is the per-key overlay for the current group commit: the
// pre-batch snapshot every other session's reads observe, plus the
// per-session writes for read-your-own-batch-writes.
type batchKey struct {
	oldVal   []byte
	oldFound bool
	oldRec   int
	bySess   map[int]batchWrite
}

// lastRecOf reports the last mutation record index for a key (-1: the
// key has never been mutated).
func (e *Engine) lastRecOf(key string) int {
	if r, ok := e.lastRec[key]; ok {
		return r
	}
	return -1
}

// observedRead answers a read under the group-commit snapshot semantics:
// the session's own write in the current batch if it made one, else the
// pre-batch state. rec identifies the publish whose value (or tombstone)
// the response carries (-1: never written), feeding the tracker's
// happens-before edge. Caller holds e.mu.
func (e *Engine) observedRead(sess int, key string) (val []byte, found bool, rec int) {
	if bk, ok := e.batch[key]; ok {
		if w, ok := bk.bySess[sess]; ok {
			return w.val, w.found, w.rec
		}
		return bk.oldVal, bk.oldFound, bk.oldRec
	}
	val, found = e.kv[key]
	return val, found, e.lastRecOf(key)
}

// batchFor returns the key's overlay for the current commit window,
// capturing the pre-window snapshot on first touch. Entries come from
// the freelist clearBatchLocked refills, so the steady-state window
// allocates nothing. Caller holds e.mu.
func (e *Engine) batchFor(key string) *batchKey {
	bk, ok := e.batch[key]
	if !ok {
		if n := len(e.bkFree); n > 0 {
			bk = e.bkFree[n-1]
			e.bkFree = e.bkFree[:n-1]
		} else {
			bk = &batchKey{bySess: make(map[int]batchWrite)}
		}
		bk.oldVal, bk.oldFound = e.kv[key]
		bk.oldRec = e.lastRecOf(key)
		e.batch[key] = bk
	}
	return bk
}

// DL exposes the engine's durable-linearizability tracker (nil unless
// Config.Check); callers hand it ack watermarks, and its nil-receiver
// methods make every hook free when checking is off.
func (e *Engine) DL() *dlcheck.Tracker { return e.dl }

// ObserveFastRead records a fast-path read observation with the tracker:
// the session's response carried the value (or tombstone) of mutation
// record rec (-1: no durable publish for the key). The tracker locks
// internally, so this takes no engine lock and is safe from any caller
// goroutine — which is the point: fast-path GETs never enter the
// engine's single-writer pipeline, but the checker still sees them.
func (e *Engine) ObserveFastRead(sess int, key string, rec int) {
	e.dl.ObserveRead(sess, key, rec)
}

// DLImage translates a machine result into the checker's image: every
// retired publish, grouped per bucket in head-store commit (version)
// order, flagged durable when its head version reached NVRAM — the stubs
// of the folded publishes (judged against this image like any other, so a
// publish folded too early shows as lost) plus the tail's. The
// cross-bucket interleaving is immaterial to the checker — only each
// bucket's chain order carries edges — so buckets are emitted in
// ascending bucket order for determinism.
func (e *Engine) DLImage(res *machine.Result) *dlcheck.Image {
	e.mu.Lock()
	tail, first := e.tail, e.durableCursor
	pubs := slices.Clone(e.cp.stubs)
	e.mu.Unlock()

	for i, r := range tail {
		if v, ok := res.TokenVersions[r.PubToken]; ok {
			pubs = append(pubs, dlStub{ver: v, rec: first + i, bucket: r.Bucket})
		}
	}
	slices.SortFunc(pubs, func(a, b dlStub) int {
		return cmp.Or(cmp.Compare(a.bucket, b.bucket), cmp.Compare(a.ver, b.ver))
	})
	img := &dlcheck.Image{Order: make([]dlcheck.Publish, len(pubs))}
	for i, p := range pubs {
		img.Order[i] = dlcheck.Publish{
			Rec:     p.rec,
			Bucket:  p.bucket,
			Durable: durable(res.Image, e.headLine(p.bucket), p.ver),
		}
	}
	return img
}

// CheckDL decides durable linearizability of a machine result against
// everything the tracker observed online. Nil when checking is off.
// Publishes the tracker saw but the image omits (never retired before
// the crash) count as lost, which is exactly right: their sessions'
// durable prefixes must end before them.
func (e *Engine) CheckDL(res *machine.Result) *dlcheck.Verdict {
	if e.dl == nil {
		return nil
	}
	return e.dl.Check(e.DLImage(res))
}
