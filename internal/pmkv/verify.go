// Crash-consistency verification for the KV engine: the recovery graph is
// rebuilt from the machine's retained epoch histories, strengthened with
// the per-bucket publish order the engine knows from its store tokens, and
// checked against the crash image — first the model-level §5 invariants,
// then the KV-level guarantees the Figure 10 discipline buys.
package pmkv

import (
	"errors"
	"fmt"
	"sort"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/recovery"
	"persistbarriers/internal/stats"
)

// Report summarizes a verified crash (or clean shutdown) image.
type Report struct {
	// Epochs is the number of epochs in the recovery graph; PublishEdges
	// the number of per-bucket publish-order edges added to it.
	Epochs       int
	PublishEdges int
	// DurablePublishes counts mutations whose publish reached NVRAM;
	// TotalPublishes counts all retired publishes.
	DurablePublishes int
	TotalPublishes   int
	// RecoveredKeys is the key count of the reconstructed durable state.
	RecoveredKeys int
	// Fingerprint canonically hashes the recovered state (determinism
	// checks compare it across runs).
	Fingerprint string
}

// durable reports whether version v of line l (or a legitimately later
// one) is in the image — the line-rewrite conflict rules make ">=" exactly
// "v persisted".
func durable(image map[mem.Line]mem.Version, l mem.Line, v mem.Version) bool {
	return v != mem.NoVersion && image[l] >= v
}

// overwritten reports the first of an entry's lines that holds, in the
// image, a version above hi — the newest the entry itself stored: someone
// rewrote the line while a durable head still named the entry.
func overwritten(image map[mem.Line]mem.Version, key string, span lineSpan, hi mem.Version) error {
	for i := 0; i < span.n; i++ {
		if l := span.first + mem.Line(i); image[l] > hi {
			return fmt.Errorf("pmkv: entry line %v of %q was overwritten under a durable head", l, key)
		}
	}
	return nil
}

// tornWrite reports a publish durable while one of its entry lines is not.
func tornWrite(r *OpRecord, l mem.Line) error {
	return fmt.Errorf(
		"pmkv: torn write: sess %d seq %d (%v %q) published durably but entry line %v is not durable",
		r.Sess, r.Seq, r.Op, r.Key, l)
}

// Verify audits a machine result against the engine's mutation record:
// the checkpoint, whose records were each held to checks 3 and 4 at the
// instant they became durable and whose epochs were held to checks 1 and
// 2 before they were trimmed (a failure then was latched and is returned
// here first), plus the tail still unfolded at Close. It checks, in order:
//
//  1. Epoch-order invariant (recovery.CheckOrdering) over the history
//     graph strengthened with publish-order edges: for each bucket head,
//     consecutive publishes are ordered writes of one line, so the earlier
//     publisher's epoch must persist before the later one's.
//  2. Prefix closure of the hardware's declared-persisted set.
//  3. KV atomicity: a durable (or superseded) bucket head never names a
//     torn entry — every entry line of that publish is durable.
//  4. Session order: each session's durable publishes are a prefix of its
//     program order (a later publish durable while an earlier one is lost
//     would invert the barrier ordering).
//  5. Live entries are intact: no line of a checkpoint entry or of a
//     durable tail Put holds a version above what that entry stored. The
//     model has versions, not bytes, so this is how a line recycled before
//     the publish that stopped naming it was durable shows: check 3's ">="
//     cannot tell an entry's own store from a later occupant's.
//  6. The engine serves what recovery rebuilds: the record a key is served
//     from wins the key when it folds (latched there), and on a clean drain
//     Volatile — settled online, from TokenVersion — is the image's replay.
//
// Every Report count is what a replay of the whole history would print:
// the checkpoint's running totals plus the tail's.
func (e *Engine) Verify(res *machine.Result) (*Report, error) {
	e.mu.Lock()
	tail, first, cp, foldErr := e.tail, e.durableCursor, e.cp, e.foldErr
	e.mu.Unlock()

	g := recovery.NewGraph(res.Histories)
	rep := &Report{
		Epochs:           cp.trimmed + len(g.Epochs()),
		PublishEdges:     cp.edges,
		DurablePublishes: first,
		TotalPublishes:   first,
	}
	if foldErr != nil {
		return rep, foldErr
	}

	byBucket, total := publishesByBucket(tail, res.TokenVersions, cp.lastVer)
	rep.TotalPublishes += total
	for b, recs := range byBucket {
		// Every folded publish was in NVRAM when it was folded, and NVRAM
		// only moves forward.
		if hv, lv := res.Image[e.headLine(b)], cp.lastVer[b]; hv < lv {
			return rep, fmt.Errorf("pmkv: bucket %d: folded publish version %d is not in the image (head holds %d)", b, lv, hv)
		}
		for i := 1; i < len(recs); i++ {
			prev, ok1 := g.WriterOf(recs[i-1].v)
			next, ok2 := g.WriterOf(recs[i].v)
			// A tail publish with no writer sat in an epoch still open at
			// the crash; its writes cannot be durable and no edge is
			// needed. The folded publish's epoch may have been trimmed: the
			// edge still counts, and TrimHistory already held that epoch to
			// what the edge would demand of it.
			if (!ok1 && recs[i-1].r != nil) || (!ok2 && recs[i].r != nil) {
				continue
			}
			rep.PublishEdges++
			if ok1 && ok2 {
				g.AddEdge(next, prev)
			}
		}
	}

	if err := recovery.CheckOrdering(g, res.Image); err != nil {
		return rep, fmt.Errorf("pmkv: epoch-order violation: %w", err)
	}
	if err := recovery.CheckPersistedClosed(g, res.Image); err != nil {
		return rep, fmt.Errorf("pmkv: persisted-set violation: %w", err)
	}

	// KV atomicity: durable publish => whole entry durable.
	for _, r := range tail {
		pubVer, retired := res.TokenVersions[r.PubToken]
		if !retired || !durable(res.Image, r.Head, pubVer) {
			continue
		}
		rep.DurablePublishes++
		for i := 0; i < r.Entries; i++ {
			l := r.EntryLine + mem.Line(i)
			ev, ok := res.TokenVersions[r.PubToken-uint64(r.Entries-i)]
			if !ok || !durable(res.Image, l, ev) {
				return rep, tornWrite(r, l)
			}
		}
	}

	// Session order: durable publishes form a program-order prefix. Every
	// violation in the image is collected, not just the first. The tail is
	// enough: every folded record is durable, and every earlier record of
	// its session was folded before it.
	if errs := sessionOrderErrors(tail, res.TokenVersions, res.Image); len(errs) > 0 {
		return rep, errors.Join(errs...)
	}

	// Live entries are intact: every durable tail Put, line by line against
	// the version its own store committed, and every key's newest folded
	// entry against the newest version it stored.
	for _, r := range tail {
		if pubVer, retired := res.TokenVersions[r.PubToken]; !retired || !durable(res.Image, r.Head, pubVer) {
			continue
		}
		for i := 0; i < r.Entries; i++ {
			line := lineSpan{first: r.EntryLine + mem.Line(i), n: 1}
			if err := overwritten(res.Image, r.Key, line, res.TokenVersions[r.PubToken-uint64(r.Entries-i)]); err != nil {
				return rep, err
			}
		}
	}
	var intact error
	cp.each(func(en *cpEntry) {
		if intact == nil && en.found {
			intact = overwritten(res.Image, en.key, en.span, en.hi)
		}
	})
	if intact != nil {
		return rep, intact
	}

	state, err := e.replayState(byBucket, total, res.Image)
	if err != nil {
		return rep, err
	}
	rep.RecoveredKeys = len(state)
	recovered := recoverySnapshot(state)
	if res.Finished {
		// An empty pair ends both lists, so one that stops short differs there.
		served := append(recoverySnapshot(e.Volatile()), [2]string{})
		for i, r := range append(recovered, [2]string{}) {
			if s := served[i]; s != r {
				return rep, fmt.Errorf("pmkv: clean drain: in key order, the store first serves %.40q where recovery rebuilds %.40q", s, r)
			}
		}
	}
	fp, err := stats.Fingerprint(recovered)
	if err != nil {
		return rep, err
	}
	rep.Fingerprint = fp
	return rep, nil
}

// sessionOrderErrors collects every per-session lost-prefix violation:
// once a session loses one publish, each of its later durable publishes
// inverts the barrier ordering and is reported individually — a fuzzer
// minimizing a counterexample needs the complete diagnosis, not the
// first hit. Sessions and sequences are walked in sorted order so the
// error list is deterministic.
func sessionOrderErrors(records []*OpRecord, tokens map[uint64]mem.Version, image map[mem.Line]mem.Version) []error {
	bySess := make(map[int][]*OpRecord)
	for _, r := range records {
		bySess[r.Sess] = append(bySess[r.Sess], r)
	}
	sessIDs := make([]int, 0, len(bySess))
	for id := range bySess {
		sessIDs = append(sessIDs, id)
	}
	sort.Ints(sessIDs)
	var errs []error
	for _, id := range sessIDs {
		recs := bySess[id]
		sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
		lost := -1 // seq of the first non-durable publish
		for _, r := range recs {
			pubVer, retired := tokens[r.PubToken]
			isDurable := retired && durable(image, r.Head, pubVer)
			if !isDurable {
				if lost < 0 {
					lost = r.Seq
				}
				continue
			}
			if lost >= 0 {
				errs = append(errs, fmt.Errorf(
					"pmkv: session %d publish seq %d durable while earlier seq %d was lost",
					id, r.Seq, lost))
			}
		}
	}
	return errs
}

// recoverySnapshot renders the recovered state deterministically for
// fingerprinting (sorted keys, values as strings).
func recoverySnapshot(state map[string][]byte) [][2]string {
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][2]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, [2]string{k, string(state[k])})
	}
	return out
}

// RecoveredState reconstructs the durable key-value contents from the
// crash image: the checkpoint — every publish folded at the durable
// watermark — overlaid with the tail. For each bucket, the durable head
// version names the last publish that persisted (the line-rewrite
// conflict rules make every earlier version of the head durable too), so
// the bucket's contents are the deltas of its publishes up to that
// version, replayed in the order their head stores committed. Commit
// order — not translate order — is what NVRAM saw: two same-batch
// sessions publishing to one bucket can commit in either order, and the
// recovered state must include both. Entry durability is the atomicity
// invariant Verify enforces.
func (e *Engine) RecoveredState(res *machine.Result) (map[string][]byte, error) {
	e.mu.Lock()
	tail, lastVer := e.tail, e.cp.lastVer
	e.mu.Unlock()

	byBucket, total := publishesByBucket(tail, res.TokenVersions, lastVer)
	return e.replayState(byBucket, total, res.Image)
}

// tombstone marks a key whose newest durable publish is a Delete while
// the state is being assembled; identity (not value) distinguishes it from
// any user value. replayState removes every tombstone before returning,
// so it never escapes into recovered state.
var tombstone = []byte{0}

// replayBucket decides, for every key the bucket's tail publishes touch,
// which durable publish NVRAM holds last. The bucket's contents are the
// deltas of its publishes up to the durable head version, in commit
// order. The walk runs backward — newest durable publish first — so each
// key costs one map assignment (its final value); older publishes of an
// already-decided key only pay a lookup. A key's folded publish wins over
// a tail publish that committed before it. Tombstones stay in state (and
// are appended to dead) so the checkpoint merge cannot resurrect the key.
func (e *Engine) replayBucket(recs []pub, image map[mem.Line]mem.Version, b int, state map[string][]byte, dead *[]string) error {
	hv := image[e.headLine(b)]
	if hv == mem.NoVersion {
		return nil
	}
	// Durable prefix boundary: versions of one head line are distinct and
	// recs is version-sorted, so a matching publish is exactly at the
	// boundary's left edge.
	idx := sort.Search(len(recs), func(i int) bool { return recs[i].v > hv })
	if idx == 0 || recs[idx-1].v != hv {
		return fmt.Errorf("pmkv: bucket %d head holds version %d with no matching publish", b, hv)
	}
	for i := idx - 1; i >= 0; i-- {
		r := recs[i].r
		if r == nil {
			continue // the folded publish: its key is in the checkpoint
		}
		if _, decided := state[r.Key]; decided {
			continue // a newer durable publish already fixed this key
		}
		val, live := r.Value, r.Op == Put
		if en := e.cp.lookup(r.Key); en != nil && en.ver > recs[i].v {
			val, live = en.val, en.found
		}
		if live {
			state[r.Key] = val
		} else {
			state[r.Key] = tombstone
			*dead = append(*dead, r.Key)
		}
	}
	return nil
}

// replayState assembles the recovered state: each bucket's durable tail
// publishes first, then every checkpoint key the tail left undecided.
// Buckets partition the keyspace, so the order they are replayed in does
// not matter; on error the lowest failing bucket's error is returned.
func (e *Engine) replayState(byBucket [][]pub, total int, image map[mem.Line]mem.Version) (map[string][]byte, error) {
	// Pre-sized: distinct keys can only be fewer, and incremental map
	// growth is a large fraction of replay cost.
	state := make(map[string][]byte, e.cp.keys+total)
	var dead []string
	for b, recs := range byBucket {
		if err := e.replayBucket(recs, image, b, state, &dead); err != nil {
			return nil, err
		}
	}
	e.cp.each(func(en *cpEntry) {
		if _, decided := state[en.key]; !decided && en.found {
			state[en.key] = en.val
		}
	})
	for _, k := range dead {
		delete(state, k)
	}
	return state, nil
}
