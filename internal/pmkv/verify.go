// Crash-consistency verification for the KV engine: the recovery graph is
// rebuilt from the machine's retained epoch histories and checked against
// the crash image — first the model-level §5 invariants, then that no live
// entry was overwritten and that the store serves what recovery rebuilds.
// Recovery itself is a scan of the entry heap: per key, the complete entry
// with the highest record index wins.
package pmkv

import (
	"fmt"
	"sort"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/recovery"
	"persistbarriers/internal/stats"
)

// Report summarizes a verified crash (or clean shutdown) image.
type Report struct {
	// Epochs is the number of epochs in the recovery graph.
	Epochs int
	// DurablePublishes counts writes whose whole entry reached NVRAM;
	// TotalPublishes counts all writes whose entry stores retired.
	DurablePublishes int
	TotalPublishes   int
	// RecoveredKeys is the key count of the reconstructed durable state.
	RecoveredKeys int
	// Fingerprint canonically hashes the recovered state (determinism
	// checks compare it across runs).
	Fingerprint string
}

// entryState reads a tail record's entry in a result: whether every store
// retired, whether every line holds at least its store's version (the
// line-rewrite conflict rules make ">=" exactly "persisted"), and the
// first line holding a later version — someone rewrote it (-1: none).
func entryState(res *machine.Result, r *OpRecord) (retired, durable bool, over int) {
	durable, over = true, -1
	for i := 0; i < r.Entries; i++ {
		v, ok := res.TokenVersions[r.Token+uint64(i)]
		if !ok || v == mem.NoVersion {
			return false, false, -1
		}
		got := res.Image[r.EntryLine+mem.Line(i)]
		durable = durable && got >= v
		if got > v && over < 0 {
			over = i
		}
	}
	return true, durable, over
}

// intact reports whether NVRAM still holds the folded entry en whole: each
// line at a version of en's own stores, none below (never persisted) and
// none above (rewritten since).
func intact(image map[mem.Line]mem.Version, en *cpEntry) bool {
	for i := 0; i < en.span.n; i++ {
		if v := image[en.span.first+mem.Line(i)]; en.lo == mem.NoVersion || v < en.lo || v > en.hi {
			return false
		}
	}
	return true
}

// overwritten names a live entry's line that holds a later version.
func overwritten(key string, l mem.Line) error {
	return fmt.Errorf("pmkv: entry line %v of %q was overwritten while the entry was live", l, key)
}

// Verify audits a machine result against the engine's mutation record:
// the checkpoint, whose epochs were held to checks 1 and 2 before they
// were trimmed and whose records to check 6 as they folded (a failure then
// was latched and is returned here first), plus the tail still unfolded at
// Close. It checks:
//
//  1. Epoch-order invariant (recovery.CheckOrdering) over the history
//     graph.
//  2. Prefix closure of the hardware's declared-persisted set.
//  5. Live entries are intact: no line of a key's newest checkpoint entry
//     (tombstones included) or of a tail entry holds a version above what
//     that entry stored — the model has versions, not bytes, so this is
//     how a line recycled too early shows — and none of a checkpoint
//     entry's lines holds one below, which would mean it folded early.
//  6. The engine serves what recovery rebuilds: a settled key is served
//     from its newest retired record (latched at the fold), and on a clean
//     drain Volatile is recovery's scan of the image.
//
// Checks 3 and 4 held Figure 10's publish to its entry and each session's
// durable publishes to a prefix; with entries only, a torn entry is one
// recovery skips, and a session's unacked writes may persist in any order.
// Every Report count is what the whole history would count: the
// checkpoint's running totals plus the tail's.
func (e *Engine) Verify(res *machine.Result) (*Report, error) {
	e.mu.Lock()
	tail, first, cp, foldErr := e.tail, e.durableCursor, e.cp, e.foldErr
	e.mu.Unlock()

	g := recovery.NewGraph(res.Histories)
	rep := &Report{
		Epochs:           cp.trimmed + len(g.Epochs()),
		DurablePublishes: first,
		TotalPublishes:   first,
	}
	if foldErr != nil {
		return rep, foldErr
	}
	if err := recovery.CheckOrdering(g, res.Image); err != nil {
		return rep, fmt.Errorf("pmkv: epoch-order violation: %w", err)
	}
	if err := recovery.CheckPersistedClosed(g, res.Image); err != nil {
		return rep, fmt.Errorf("pmkv: persisted-set violation: %w", err)
	}

	for _, r := range tail {
		retired, durable, over := entryState(res, r)
		if !retired {
			continue
		}
		rep.TotalPublishes++
		if durable {
			rep.DurablePublishes++
		}
		if over >= 0 {
			return rep, overwritten(r.Key, r.EntryLine+mem.Line(over))
		}
	}
	var lost error
	cp.each(func(en *cpEntry) {
		for i := 0; i < en.span.n && lost == nil; i++ {
			switch l := en.span.first + mem.Line(i); {
			case res.Image[l] > en.hi:
				lost = overwritten(en.key, l)
			case res.Image[l] < en.lo:
				lost = fmt.Errorf("pmkv: %q was folded while its entry line %v was not durable", en.key, l)
			}
		}
	})
	if lost != nil {
		return rep, lost
	}

	state, _ := e.RecoveredState(res)
	rep.RecoveredKeys = len(state)
	recovered := recoverySnapshot(state)
	if res.Finished {
		// An empty pair ends both lists, so one that stops short differs there.
		served := append(recoverySnapshot(e.volatile()), [2]string{})
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
// crash image (see scan). The error is always nil: recovery is a scan,
// which cannot fail.
func (e *Engine) RecoveredState(res *machine.Result) (map[string][]byte, error) {
	state := make(map[string][]byte, e.cp.keys)
	for key, w := range e.scan(res) {
		if w.found {
			state[key] = w.val
		}
	}
	return state, nil
}

// winner is the entry recovery keeps for a key: its value (found=false: a
// tombstone) and its record index.
type winner struct {
	val   []byte
	found bool
	rec   int
}

// scan is recovery's scan of the entry heap: per key, the complete entry
// with the highest record index. That is the newest tail entry whose every
// line holds exactly its store, else the key's checkpoint entry while
// NVRAM still holds it whole, else — only when that entry was lost, which
// the reuse rule forbids — the newest entry on the free list NVRAM still
// holds whole, since freed lines keep their entry until they are reused.
func (e *Engine) scan(res *machine.Result) map[string]winner {
	e.mu.Lock()
	tail, free := e.tail, e.free
	e.mu.Unlock()

	won := make(map[string]winner, e.cp.keys+len(tail))
	for i := len(tail) - 1; i >= 0; i-- {
		r := tail[i]
		if _, decided := won[r.Key]; decided {
			continue
		}
		if retired, durable, over := entryState(res, r); retired && durable && over < 0 {
			won[r.Key] = winner{r.Value, r.Op == Put, r.Idx}
		}
	}
	var lost map[string]*cpEntry
	e.cp.each(func(en *cpEntry) {
		switch _, decided := won[en.key]; {
		case decided:
		case intact(res.Image, en):
			won[en.key] = winner{en.val, en.found, en.rec}
		default:
			if lost == nil {
				lost = make(map[string]*cpEntry)
			}
			lost[en.key] = nil
		}
	})
	for _, stack := range free {
		for i := range stack {
			g := &stack[i]
			if best, ok := lost[g.key]; ok && intact(res.Image, g) && (best == nil || g.rec > best.rec) {
				lost[g.key] = g
			}
		}
	}
	for _, g := range lost {
		if g != nil {
			won[g.key] = winner{g.val, g.found, g.rec}
		}
	}
	return won
}
