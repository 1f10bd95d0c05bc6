package pmkv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/sim"
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

// fpdumpSpecs are fpdump's three sections, with their sweep sizes.
var fpdumpSpecs = []struct {
	name     string
	spec     ScriptSpec
	instants int
}{
	{"fpdump", ScriptSpec{Sessions: 4, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}, 200},
	{"fpdump-merged", ScriptSpec{Sessions: 16, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}, 200},
	{"fpdump-long", longSpec(), 50},
}

// image is one crash instant of one script on an engine with bug planted
// (plantNone: an honest one), judged three ways.
type image struct {
	name   string
	script Script
	bug    plantedBug
	at     sim.Cycle
	fp     string
	err    error // Verify's, or dlcheck's when Verify passed
	dlBad  bool  // dlcheck rejected it
	oerr   error // the oracle's
}

// judgeImages runs every image with the checker armed, on a few workers.
func judgeImages(images []image) {
	work := make(chan *image)
	var wg sync.WaitGroup
	for range min(4, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for im := range work {
				_, out, err := runPlantedScript(Config{CrashAt: im.at, Check: true}, im.script, im.bug)
				im.err, im.dlBad, im.oerr = err, out.DL != nil && !out.DL.OK(), oracleCheck([]ShardResult{out})
				if out.Report != nil {
					im.fp = out.Report.Fingerprint
				}
			}
		}()
	}
	for i := range images {
		work <- &images[i]
	}
	close(work)
	wg.Wait()
}

// TestOracleAgreesWithDLCheck: over every image of fpdump's three sweeps,
// the oracle and the engine's own checkers (Verify and dlcheck) reach the
// same verdict — all clean, on an honest engine.
func TestOracleAgreesWithDLCheck(t *testing.T) {
	var images []image
	for _, s := range fpdumpSpecs {
		clean, err := runSingle(Config{}, s.spec)
		if err != nil {
			t.Fatalf("%s clean: %v", s.name, err)
		}
		script := GenScript(s.spec)
		images = append(images, image{name: s.name, script: script})
		for _, at := range SweepInstants(clean.Cycles, s.instants) {
			images = append(images, image{name: s.name, script: script, at: at})
		}
	}
	judgeImages(images)
	for _, im := range images {
		if im.err != nil || im.oerr != nil {
			t.Errorf("%s, crash at %d: checkers %v, oracle %v", im.name, im.at, im.err, im.oerr)
		}
	}
	t.Logf("%d images of fpdump's three sweeps: checkers and oracle all clean", len(images))
}

// persistCycles is the sink that collects the distinct cycles at which
// some line became durable: the only instants the crash image changes at.
type persistCycles map[sim.Cycle]struct{}

func (p persistCycles) Emit(ev obs.Event) {
	if ev.Kind == obs.KPersistAck {
		p[ev.Cycle] = struct{}{}
	}
}

// TestCrashAtEveryImage crashes fpdump's first two scripts at every
// distinct persist cycle of their clean runs and one cycle before each —
// every crash image the scripts can leave, not a 200-instant sample — and
// holds each to Verify, dlcheck and the oracle.
func TestCrashAtEveryImage(t *testing.T) {
	for _, s := range fpdumpSpecs[:2] {
		script := GenScript(s.spec)
		instants, persists := everyImage(t, script)
		images := make([]image, len(instants))
		for i, at := range instants {
			images[i] = image{name: s.name, script: script, at: at}
		}
		judgeImages(images)
		fps := make(map[string]struct{})
		for _, im := range images {
			if im.err != nil || im.oerr != nil {
				t.Errorf("%s crash at %d: checkers %v, oracle %v", s.name, im.at, im.err, im.oerr)
			}
			fps[im.fp] = struct{}{}
		}
		t.Logf("%s: %d persist cycles, %d images, %d distinct fingerprints, Verify, dlcheck and oracle clean", s.name, persists, len(images), len(fps))
	}
}

// everyImage is every crash image of script's clean run — the clean
// drain, and a crash at each distinct persist cycle and one cycle before
// each (the image only changes when a line persists) — and the number of
// those persist cycles.
func everyImage(t *testing.T, script Script) ([]sim.Cycle, int) {
	t.Helper()
	cycles := persistCycles{}
	cfg := Config{Machine: SmallMachine()}
	cfg.Machine.Probe = obs.NewProbe(cycles)
	if _, err := RunShardedScript(ShardedConfig{Shards: 1, Engine: cfg}, script); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	at := map[sim.Cycle]struct{}{0: {}}
	for c := range cycles {
		at[c] = struct{}{}
		if c > 1 {
			at[c-1] = struct{}{}
		}
	}
	out := make([]sim.Cycle, 0, len(at))
	for c := range at {
		out = append(out, c)
	}
	slices.Sort(out)
	return out, len(cycles)
}

// TestOracleCatchesPlants: each planted bug that corrupts what a client
// can see — the recovered state, or a read's answer — is rejected by the
// oracle at some image of the test script (six sessions, so one core's
// window holds two writes), while the honest engine passes every one. The
// resurrection plant is held to the oracle on a script shaped for it
// instead, in TestOracleCatchesResurrection: since whole-line stores no
// image of this script shows a client the resurrected key.
func TestOracleCatchesPlants(t *testing.T) {
	script := GenScript(testSpec())
	instants, _ := everyImage(t, script)
	bugs := []plantedBug{plantNone, plantCursorOffByOne, plantDropTombstone, plantRecycleEarly, plantStaleRead}
	var images []image
	for _, bug := range bugs {
		for _, at := range instants {
			images = append(images, image{script: script, bug: bug, at: at})
		}
	}
	judgeImages(images)
	for i, bug := range bugs {
		caught := 0
		for _, im := range images[i*len(instants) : (i+1)*len(instants)] {
			if im.oerr != nil {
				caught++
			}
		}
		t.Logf("plant %d: oracle rejects %d of %d images", bug, caught, len(instants))
		if (bug == plantNone) != (caught == 0) {
			t.Errorf("plant %d: oracle rejects %d of %d images", bug, caught, len(instants))
		}
	}
}

// resurrectionScript is shaped for the resurrection plant. Four sessions
// put eight keys and then delete them, each key's Delete from the session
// after its Put's, and the Deletes are acked; when they fold, the Puts'
// lines are freed, and under the plant so are the tombstones'. Fresh keys
// are then put one per window, each durable before the next, so each
// reuses one freed line; a window that reads the deleted keys back
// follows each, so that once the reuse persists the crash images last a
// window in which that line's old entry is gone and the other freed lines
// still hold theirs. The fresh keys are put from the deleting sessions,
// whose cores take back their own tombstones' lines before another
// core's Put lines (and a single stack hands out the tombstone, freed
// last, first). A tombstone's line reused while its key's Put still lies
// whole brings the key back, against an acked Delete.
func resurrectionScript() Script {
	const sessions, deleted, fresh = 4, 8, 16
	val := make([]byte, mem.LineSize)
	var put, del, get []ScriptedOp
	for i := range deleted {
		key := fmt.Sprintf("d%d", i)
		put = append(put, ScriptedOp{Sess: i % sessions, Op: Put, Key: key, Value: val})
		del = append(del, ScriptedOp{Sess: (i + 1) % sessions, Op: Delete, Key: key})
		get = append(get, ScriptedOp{Sess: i % sessions, Op: Get, Key: key})
	}
	script := Script{put, del}
	for i := range fresh {
		script = append(script, []ScriptedOp{{Sess: (i + 1) % sessions, Op: Put, Key: fmt.Sprintf("f%02d", i), Value: val}}, get)
	}
	return script
}

// TestOracleCatchesResurrection: over every image of resurrectionScript
// the oracle rejects some image of the resurrection plant and none of the
// honest engine, so its catch of that plant rests on a tier-1 script, not
// on fpdump-long's sampled instants alone.
func TestOracleCatchesResurrection(t *testing.T) {
	script := resurrectionScript()
	instants, _ := everyImage(t, script)
	bugs := []plantedBug{plantNone, plantResurrect}
	var images []image
	for _, bug := range bugs {
		for _, at := range instants {
			images = append(images, image{script: script, bug: bug, at: at})
		}
	}
	judgeImages(images)
	for i, bug := range bugs {
		caught := 0
		for _, im := range images[i*len(instants) : (i+1)*len(instants)] {
			if bug == plantNone && im.err != nil {
				t.Errorf("crash at %d, nothing planted: %v", im.at, im.err)
			}
			if im.oerr != nil {
				caught++
			}
		}
		t.Logf("plant %d: oracle rejects %d of %d images", bug, caught, len(instants))
		if (bug == plantNone) != (caught == 0) {
			t.Errorf("plant %d: oracle rejects %d of %d images", bug, caught, len(instants))
		}
	}
}

// TestPlantedResurrection: an engine whose fold frees a durable
// tombstone's own line, before any later entry of its key is durable, lets
// the line be reused while the key's older entry still sits whole on the
// free list; once the reuse persists, recovery's scan finds the older entry
// and the deleted key comes back. Over every image of fpdump's first two
// scripts (item 13(a)'s sweep) Verify's check 5 and dlcheck must each
// reject it somewhere; the honest engine passed the same images in
// TestCrashAtEveryImage. On those two scripts a client rarely if ever
// sees the resurrection (a key must come back whose last write was an
// acked Delete), so the oracle may pass them all. fpdump-long's sweep, where
// keys are deleted and freed over hundreds of rounds, is where it shows,
// and where the oracle must reject it too.
func TestPlantedResurrection(t *testing.T) {
	var images []image
	for _, s := range fpdumpSpecs[:2] {
		script := GenScript(s.spec)
		instants, _ := everyImage(t, script)
		for _, at := range instants {
			images = append(images, image{script: script, bug: plantResurrect, at: at})
		}
	}
	short := len(images)
	long := fpdumpSpecs[2]
	clean, err := runSingle(Config{}, long.spec)
	if err != nil {
		t.Fatalf("%s clean: %v", long.name, err)
	}
	script := GenScript(long.spec)
	images = append(images, image{script: script, bug: plantResurrect})
	for _, at := range SweepInstants(clean.Cycles, long.instants) {
		images = append(images, image{script: script, bug: plantResurrect, at: at})
	}
	judgeImages(images)
	var verify, dl, oracle [2]int
	for i, im := range images {
		g := 0
		if i >= short {
			g = 1
		}
		if im.err != nil && !strings.Contains(im.err.Error(), "durable linearizability") {
			if !strings.Contains(im.err.Error(), "was overwritten while the entry was live") {
				t.Fatalf("crash at %d: caught by an unexpected check: %v", im.at, im.err)
			}
			verify[g]++
		}
		if im.dlBad {
			dl[g]++
		}
		if im.oerr != nil {
			oracle[g]++
		}
	}
	t.Logf("resurrection plant over %d images of fpdump and fpdump-merged: Verify rejects %d, dlcheck %d, the oracle %d", short, verify[0], dl[0], oracle[0])
	t.Logf("resurrection plant over %d images of fpdump-long: Verify rejects %d, dlcheck %d, the oracle %d", len(images)-short, verify[1], dl[1], oracle[1])
	if verify[0] == 0 || dl[0] == 0 || oracle[1] == 0 {
		t.Fatalf("resurrection plant: Verify rejects %d and dlcheck %d of %d short-script images, the oracle %d of %d fpdump-long images; want each above 0", verify[0], dl[0], short, oracle[1], len(images)-short)
	}
}
