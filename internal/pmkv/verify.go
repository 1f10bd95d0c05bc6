// Crash-consistency verification for the KV engine: the recovery graph is
// rebuilt from the machine's retained epoch histories, strengthened with
// the per-bucket publish order the engine knows from its store tokens, and
// checked against the crash image — first the model-level §5 invariants,
// then the KV-level guarantees the Figure 10 discipline buys.
package pmkv

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

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

// Verify audits a machine result against the engine's mutation record. It
// checks, in order:
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
func (e *Engine) Verify(res *machine.Result) (*Report, error) {
	e.mu.Lock()
	records := e.records
	buckets := e.cfg.Buckets
	workers := e.cfg.RecoveryWorkers
	e.mu.Unlock()

	g := recovery.NewGraph(res.Histories)
	rep := &Report{Epochs: len(g.Epochs())}

	byBucket, total := publishesByBucket(records, res.TokenVersions, buckets)
	for _, recs := range byBucket {
		rep.TotalPublishes += len(recs)
		for i := 1; i < len(recs); i++ {
			prev, ok1 := g.WriterOf(recs[i-1].v)
			next, ok2 := g.WriterOf(recs[i].v)
			if !ok1 || !ok2 {
				// The writing epoch was still open at the crash; its
				// writes cannot be durable and no edge is needed.
				continue
			}
			g.AddEdge(next, prev)
			rep.PublishEdges++
		}
	}

	if err := recovery.CheckOrdering(g, res.Image, workers); err != nil {
		return rep, fmt.Errorf("pmkv: epoch-order violation: %w", err)
	}
	if err := recovery.CheckPersistedClosed(g, res.Image); err != nil {
		return rep, fmt.Errorf("pmkv: persisted-set violation: %w", err)
	}

	// KV atomicity: durable publish => whole entry durable.
	for _, r := range records {
		if r.Op == Get {
			continue
		}
		pubVer, retired := res.TokenVersions[r.PubToken]
		if !retired || !durable(res.Image, r.Head, pubVer) {
			continue
		}
		rep.DurablePublishes++
		for i, l := range r.EntryLines {
			ev, ok := res.TokenVersions[r.EntryTokens[i]]
			if !ok || !durable(res.Image, l, ev) {
				return rep, fmt.Errorf(
					"pmkv: torn write: sess %d seq %d (%v %q) published durably but entry line %v is not durable",
					r.Sess, r.Seq, r.Op, r.Key, l)
			}
		}
	}

	// Session order: durable publishes form a program-order prefix. Every
	// violation in the image is collected, not just the first.
	if errs := sessionOrderErrors(records, res.TokenVersions, res.Image); len(errs) > 0 {
		return rep, errors.Join(errs...)
	}

	state, err := e.replayState(byBucket, total, res, buckets, workers)
	if err != nil {
		return rep, err
	}
	rep.RecoveredKeys = len(state)
	fp, err := stats.Fingerprint(recoverySnapshot(state))
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
		if r.Op != Get {
			bySess[r.Sess] = append(bySess[r.Sess], r)
		}
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
// crash image: for each bucket, the durable head version names the last
// publish that persisted (the line-rewrite conflict rules make every
// earlier version of the head durable too), so the bucket's contents are
// the deltas of its publishes up to that version, replayed in the order
// their head stores committed. Commit order — not translate order — is
// what NVRAM saw: two same-batch sessions publishing to one bucket can
// commit in either order, and the recovered state must include both.
// Entry durability is the atomicity invariant Verify enforces.
func (e *Engine) RecoveredState(res *machine.Result) (map[string][]byte, error) {
	e.mu.Lock()
	records := e.records
	buckets := e.cfg.Buckets
	workers := e.cfg.RecoveryWorkers
	e.mu.Unlock()

	byBucket, total := publishesByBucket(records, res.TokenVersions, buckets)
	return e.replayState(byBucket, total, res, buckets, workers)
}

// tombstone marks a key whose newest durable publish in its bucket is a
// Delete during the backward replay; identity (not value) distinguishes
// it from any user value. replayBucket removes every tombstone before
// returning, so it never escapes into recovered state.
var tombstone = []byte{0}

// replayBucket folds one bucket's durable publish prefix into state. The
// bucket's contents are the deltas of its publishes up to the durable
// head version, in commit order. The walk runs backward — newest durable
// publish first — so each key costs one map assignment (its final value)
// instead of one per overwrite; older publishes of an already-decided
// key only pay a lookup. dead is a reused scratch buffer for keys whose
// final publish is a Delete.
func (e *Engine) replayBucket(byBucket [][]pub, res *machine.Result, b int, state map[string][]byte, dead *[]string) error {
	h := e.headLine(b)
	hv := res.Image[h]
	if hv == mem.NoVersion {
		return nil
	}
	recs := byBucket[b]
	// Durable prefix boundary: versions of one head line are distinct and
	// recs is version-sorted, so a matching publish is exactly at the
	// boundary's left edge.
	idx := sort.Search(len(recs), func(i int) bool { return recs[i].v > hv })
	if idx == 0 || recs[idx-1].v != hv {
		return fmt.Errorf("pmkv: bucket %d head holds version %d with no matching publish", b, hv)
	}
	tombs := (*dead)[:0]
	for i := idx - 1; i >= 0; i-- {
		r := recs[i].r
		if _, decided := state[r.Key]; decided {
			continue // a newer durable publish already fixed this key
		}
		if r.Op == Delete {
			state[r.Key] = tombstone
			tombs = append(tombs, r.Key)
		} else {
			state[r.Key] = r.Value
		}
	}
	for _, k := range tombs {
		delete(state, k)
	}
	*dead = tombs[:0]
	return nil
}

// replayState replays every bucket's durable publish prefix. Buckets
// partition the keyspace (each key hashes to exactly one bucket and one
// head line), so their replays touch disjoint keys and run concurrently:
// worker w owns buckets congruent to w, builds a private map, and the
// partials merge after the join. Any worker count yields byte-identical
// state; on error the lowest failing bucket's error is returned, exactly
// as a serial scan would report it.
func (e *Engine) replayState(byBucket [][]pub, total int, res *machine.Result, buckets, workers int) (map[string][]byte, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > buckets {
		workers = buckets
	}
	if workers <= 1 {
		// Pre-sized at the publish count: distinct keys can only be fewer,
		// and incremental map growth is a large fraction of replay cost.
		state := make(map[string][]byte, total)
		var dead []string
		for b := 0; b < buckets; b++ {
			if err := e.replayBucket(byBucket, res, b, state, &dead); err != nil {
				return nil, err
			}
		}
		return state, nil
	}

	type part struct {
		state     map[string][]byte
		err       error
		errBucket int
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			p.state = make(map[string][]byte, total/workers+1)
			p.errBucket = buckets
			var dead []string
			for b := w; b < buckets; b += workers {
				if err := e.replayBucket(byBucket, res, b, p.state, &dead); err != nil {
					// First error is this worker's lowest failing bucket
					// (ascending stride); the merge discards all state.
					p.err, p.errBucket = err, b
					return
				}
			}
		}(w)
	}
	wg.Wait()

	n := 0
	for w := range parts {
		if parts[w].err != nil {
			// Deterministic across worker counts: lowest bucket wins.
			lowest := &parts[w]
			for v := w + 1; v < workers; v++ {
				if parts[v].err != nil && parts[v].errBucket < lowest.errBucket {
					lowest = &parts[v]
				}
			}
			return nil, lowest.err
		}
		n += len(parts[w].state)
	}
	state := make(map[string][]byte, n)
	for w := range parts {
		for k, v := range parts[w].state {
			state[k] = v
		}
	}
	return state, nil
}

// FingerprintState canonically hashes a recovered state.
func FingerprintState(state map[string][]byte) string {
	return stats.MustFingerprint(recoverySnapshot(state))
}
