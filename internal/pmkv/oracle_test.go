package pmkv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// The oracle decides durable linearizability from what the clients of a
// scripted run were told, and from nothing the engine knows: per op the
// session, kind, key, value sent and returned, the step it was submitted
// at and the step its completion arrived after, and whether it was acked
// durable — against the recovered key→value map. It is a Wing–Gong–Lowe
// search, run one key at a time (linearizability is local, and so is
// durable linearizability):
//
//   - an op acked durable must take effect, between its submission and its
//     completion, and a Get or Delete so acked must have answered what the
//     key held at that point;
//   - an op flagged crashed, or never completed, is pending: a write may
//     take effect after its submission or not at all, a read is dropped;
//   - the key's last state must be what recovery rebuilt.
//
// A Delete's answer is a read of its own, concurrent with the Delete: the
// engine answers it from the state the session observes, not as an
// atomic test-and-delete, so two racing Deletes may both find the key.
//
// Real-time order is the step order: a completed before b was submitted
// when a's completion arrived at an earlier step than b's submission.

// oracleOp is one op of one key's history.
type oracleOp struct {
	kind     Op
	val      []byte // Put: the value sent; Get: the value returned
	found    bool   // Get: the answer
	anyVal   bool   // a Get that answered presence only (a Delete's)
	inv, ret int    // ret is math.MaxInt while pending
	must     bool   // acked durable: takes effect, and its answer binds
}

// oracleBudget bounds the search states one key may visit before the
// verdict is declared inconclusive (an error, never a pass).
const oracleBudget = 1 << 20

// oracleCheck returns nil when the scripted run's client history is
// durably linearizable against its recovered state, else the first key
// (in key order) that is not, with why.
func oracleCheck(results []ShardResult) error {
	recovered := make(map[string][]byte)
	byKey := make(map[string][]oracleOp)
	for _, r := range results {
		if r.history == nil {
			return fmt.Errorf("oracle: shard %d kept no client history", r.Shard)
		}
		for k, v := range r.Recovered {
			recovered[k] = v
		}
		for _, h := range r.history {
			o := oracleOp{kind: h.op.Op, inv: h.inv, ret: math.MaxInt}
			switch {
			case h.ack.Err != nil:
				continue // refused: never translated
			case h.ack.Crashed:
				if h.op.Op == Get {
					continue
				}
			default:
				o.ret, o.must = h.ret, true
				o.found = h.ack.Resp.Found
				if h.op.Op == Get {
					o.val = h.ack.Resp.Value
				}
			}
			if h.op.Op == Put {
				o.val = h.op.Value
			}
			if h.op.Op == Delete && o.must {
				byKey[h.op.Key] = append(byKey[h.op.Key], oracleOp{kind: Get, found: o.found, anyVal: true, inv: o.inv, ret: o.ret, must: true})
			}
			byKey[h.op.Key] = append(byKey[h.op.Key], o)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	for k := range recovered {
		if _, ok := byKey[k]; !ok {
			return fmt.Errorf("oracle: %q recovered but never written", k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, present := recovered[k]
		if err := linearizeKey(byKey[k], v, present); err != nil {
			return fmt.Errorf("oracle: key %q: %w", k, err)
		}
	}
	return nil
}

// linearizeKey searches for a linearization of one key's ops, acked ones
// all included, that explains every binding answer and ends in the
// recovered state (present, with value final). Three cuts keep a failing
// search short: a read whose answer the current state gives is taken at
// once (taking it later never helps, reads change nothing); a branch is
// dropped when a binding read still to come asks for a state no remaining
// write can make and the key does not hold; and likewise when the
// recovered state is neither held nor writable any more.
func linearizeKey(ops []oracleOp, final []byte, present bool) error {
	slices.SortStableFunc(ops, func(a, b oracleOp) int { return cmp.Compare(a.inv, b.inv) })
	words := (len(ops) + 63) / 64
	done := make([]uint64, words)
	isDone := func(i int) bool { return done[i/64]&(1<<(i%64)) != 0 }
	seen := make(map[string]struct{})
	must := 0
	for _, o := range ops {
		if o.must {
			must++
		}
	}
	// state is the index of the write the key holds (-1: never written).
	holds := func(state int) ([]byte, bool) {
		if state < 0 || ops[state].kind == Delete {
			return nil, false
		}
		return ops[state].val, true
	}
	// makes reports whether write w leaves the key as a read of (val,
	// found) — presence only when anyVal — would see it.
	makes := func(w int, val []byte, found, anyVal bool) bool {
		wv, has := holds(w)
		return has == found && (!has || anyVal || bytes.Equal(wv, val))
	}
	// reachable reports whether the key holds (val, found) now or a write
	// not yet taken can make it.
	reachable := func(state int, val []byte, found, anyVal bool) bool {
		if makes(state, val, found, anyVal) {
			return true
		}
		for w, o := range ops {
			if o.kind != Get && !isDone(w) && makes(w, val, found, anyVal) {
				return true
			}
		}
		return false
	}
	key := make([]byte, 8*words+8)
	visits := 0
	var search func(state, left int) (bool, error)
	search = func(state, left int) (bool, error) {
		val, has := holds(state)
		if left == 0 && makes(state, final, present, false) {
			return true, nil
		}
		for i, w := range done {
			binary.LittleEndian.PutUint64(key[8*i:], w)
		}
		binary.LittleEndian.PutUint64(key[8*words:], uint64(state+1))
		if _, ok := seen[string(key)]; ok {
			return false, nil
		}
		if visits++; visits > oracleBudget {
			return false, fmt.Errorf("search budget of %d states exhausted over %d ops", oracleBudget, len(ops))
		}
		seen[string(key)] = struct{}{}
		if !reachable(state, final, present, false) {
			return false, nil
		}
		minRet := math.MaxInt
		for i, o := range ops {
			if !isDone(i) {
				minRet = min(minRet, o.ret)
				if o.kind == Get && !reachable(state, o.val, o.found, o.anyVal) {
					return false, nil
				}
			}
		}
		try := func(i, next int) (bool, error) {
			n := left
			if ops[i].must {
				n--
			}
			bit := uint64(1) << (i % 64)
			done[i/64] |= bit
			ok, err := search(next, n)
			done[i/64] &^= bit
			return ok, err
		}
		for i, o := range ops {
			if !isDone(i) && o.inv <= minRet && o.kind == Get && o.found == has && (!has || o.anyVal || bytes.Equal(o.val, val)) {
				return try(i, state)
			}
		}
		for i, o := range ops {
			if isDone(i) || o.inv > minRet || o.kind == Get {
				continue
			}
			if ok, err := try(i, i); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	}
	ok, err := search(-1, must)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no linearization of its %d ops (%d acked) ends in the recovered state (present=%v)", len(ops), must, present)
	}
	return nil
}
