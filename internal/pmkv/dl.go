// Durable-linearizability bridge: the engine's one read rule (which
// publish answers a read), the observation hooks
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

// observedRead is the one answer to "what does key hold for session sess":
// the session's own write in the open commit window (unless the watermark
// has already folded it), else the key's settled state — the overlay's
// record, which is the retired publish that committed last, else the
// checkpoint's entry. It returns the value, whether the key is present, the
// mutation record that published it (-1: never written; the tracker's
// happens-before edge) and its entry lines, which are what a Get loads.
// Caller holds e.mu.
func (e *Engine) observedRead(sess int, key string) (val []byte, found bool, rec int, span lineSpan) {
	r := e.batch[key][sess]
	if r == nil || r.Idx < e.durableCursor {
		r = e.live[key]
	}
	if r != nil {
		return r.Value, r.Op == Put, r.Idx, lineSpan{first: r.EntryLine, n: r.Entries}
	}
	if en := e.cp.lookup(key); en != nil {
		return en.val, en.found, en.rec, en.span
	}
	return nil, false, -1, lineSpan{}
}

// batchFor returns the open commit window's writers of key, by session, on
// a map from the freelist clearBatchLocked refills. Caller holds e.mu.
func (e *Engine) batchFor(key string) map[int]*OpRecord {
	writers := e.batch[key]
	if writers == nil {
		if n := len(e.bkFree); n > 0 {
			writers, e.bkFree = e.bkFree[n-1], e.bkFree[:n-1]
		} else {
			writers = make(map[int]*OpRecord)
		}
		e.batch[key] = writers
	}
	return writers
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
	tail := e.tail
	pubs := slices.Clone(e.cp.stubs)
	e.mu.Unlock()

	for _, r := range tail {
		if v, ok := res.TokenVersions[r.PubToken]; ok {
			pubs = append(pubs, dlStub{ver: v, rec: r.Idx, bucket: r.Bucket})
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
