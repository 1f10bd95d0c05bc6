// The crash sweep: one table of scripted runs, each crashed at every image
// its clean run can leave or at instants spread over that run, on an
// honest engine and on engines with a bug planted. Every image runs once,
// with the checker armed, and is judged by Verify, dlcheck and the
// client-history oracle. What each check rejects, per row and plant, is
// pinned in testdata/plants.golden; what the honest engine recovers at
// fpdump's instants is pinned in testdata/fpdump*.golden.
package pmkv

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
)

// scriptSpec generates a deterministic workload: Rounds batches, each with
// one request per session, mixed Put/Get/Delete over a bounded key space.
// Sessions sharing buckets (KeySpace small relative to Sessions*Rounds)
// produce inter-thread publish conflicts — the interesting case.
type scriptSpec struct {
	Sessions   int
	Rounds     int
	KeySpace   int
	ValueBytes int // maximum value size; actual sizes vary per op
	Seed       uint64
	// PutPct/GetPct set the op mix in percent (defaults 70/15, remainder
	// Delete); zero means default, so existing specs keep their exact
	// request streams and fingerprints.
	PutPct, GetPct int
}

// fill applies the defaults: values of up to 192 bytes, and 70 % Puts
// and 15 % Gets.
func (s *scriptSpec) fill() {
	if s.ValueBytes <= 0 {
		s.ValueBytes = 192
	}
	if s.PutPct <= 0 {
		s.PutPct = 70
	}
	if s.GetPct <= 0 {
		s.GetPct = 15
	}
}

// genScript expands the spec into Rounds batches of one op per session, in
// session order. Generation is a pure function of the spec, independent of
// crash timing, so every crash instant replays the identical load.
func genScript(spec scriptSpec) Script {
	spec.fill()
	rng := trace.NewRand(spec.Seed)
	script := make(Script, spec.Rounds)
	for r := range script {
		script[r] = make([]ScriptedOp, spec.Sessions)
		for s := range script[r] {
			op := ScriptedOp{Sess: s, Key: fmt.Sprintf("k%03d", rng.Intn(spec.KeySpace))}
			roll := rng.Intn(100)
			switch {
			case roll < spec.PutPct:
				op.Op = Put
				op.Value = make([]byte, 1+rng.Intn(spec.ValueBytes))
				for i := range op.Value {
					op.Value[i] = byte(rng.Uint64())
				}
			case roll < spec.PutPct+spec.GetPct:
				op.Op = Get
			default:
				op.Op = Delete
			}
			script[r][s] = op
		}
	}
	return script
}

// sweepInstants spreads n crash instants evenly over (0, total], skipping
// cycle 0 (which means "no crash" to the engine).
func sweepInstants(total sim.Cycle, n int) []sim.Cycle {
	if n <= 0 || total == 0 {
		return nil
	}
	out := make([]sim.Cycle, 0, n)
	for i := 1; i <= n; i++ {
		c := total * sim.Cycle(i) / sim.Cycle(n)
		if c == 0 {
			c = 1
		}
		out = append(out, c)
	}
	return out
}

// selfcheckSpec is testSpec with values up to 192 bytes: the script the
// sweep's one-shard, four-shard and four-bucket rows crash.
func selfcheckSpec() scriptSpec { return scriptSpec{Sessions: 6, Rounds: 24, KeySpace: 16, Seed: 42} }

// sweepSpec is a named script, how many crash instants to spread over its
// clean run, and whether each golden line also carries the Report counts.
type sweepSpec struct {
	name     string
	spec     scriptSpec
	instants int
	counts   bool
}

// fpdumpSpecs are the three crash sweeps whose every image's recovered
// state is pinned in testdata/<name>.golden. All three run on the
// 4-core SmallMachine: with 4 sessions every commit window holds one op
// per core, with 16 it holds four, so only the second has several entries
// in one core's window epoch. The long sweep (4 096 ops over 256 keys, so
// most entries are superseded long after they became durable) was
// captured while the engine still kept every record for the life of the
// run; it holds checkpoint-plus-tail recovery to the counts a full replay
// printed.
var fpdumpSpecs = []sweepSpec{
	{"fpdump", scriptSpec{Sessions: 4, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}, 200, false},
	{"fpdump-merged", scriptSpec{Sessions: 16, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}, 200, false},
	{"fpdump-long", scriptSpec{Sessions: 8, Rounds: 512, KeySpace: 256, ValueBytes: 192, Seed: 7}, 50, true},
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

// sweepRow is one crash sweep: a script run on shards engines of buckets
// buckets each, crashed at every image its clean run can leave (instants
// 0) or at instants crash instants spread over the clean run's clock
// before its closing drain, on the honest engine and on one with each of
// plants planted. A probe row also counts each run's machine events.
type sweepRow struct {
	name     string
	script   Script
	shards   int // 0: one
	buckets  int // 0: DefaultBuckets
	instants int
	plants   []plantedBug
	probe    bool
}

// sweepRows is the table. fpdump's three rows are the fpdump goldens'
// sweeps; fpdump-merged is also TestGroupCommitAmortizesBarriers' 16-session
// cut, beside its 4- and 64-session cuts. The every-image rows crash
// fpdump's first two scripts and the scripts shaped for a plant at every
// image. The selfcheck rows crash one script on one shard, fanned out to
// four shards, and with every key's index probe squeezed onto four
// bucket lines.
func sweepRows() []sweepRow {
	fpdump, merged, long := genScript(fpdumpSpecs[0].spec), genScript(fpdumpSpecs[1].spec), genScript(fpdumpSpecs[2].spec)
	selfcheck := genScript(selfcheckSpec())
	return []sweepRow{
		{name: "testSpec", script: genScript(testSpec()),
			plants: []plantedBug{plantCursorOffByOne, plantDropTombstone, plantRecycleEarly, plantStaleRead, plantLowestIdxWinner}},
		{name: "fpdump", script: fpdump, instants: 200},
		{name: "fpdump-merged", script: merged, instants: 200, plants: []plantedBug{plantLowestIdxWinner}},
		{name: "fpdump-long", script: long, instants: 50, probe: true,
			plants: []plantedBug{plantDropTombstone, plantRecycleEarly, plantLowestIdxWinner, plantResurrect}},
		{name: "fpdump/every", script: fpdump, plants: []plantedBug{plantResurrect}},
		{name: "fpdump-merged/every", script: merged, plants: []plantedBug{plantResurrect}},
		{name: "resurrection", script: resurrectionScript(), plants: []plantedBug{plantResurrect}},
		{name: "recycle-early", script: recycleEarlyScript(), plants: []plantedBug{plantRecycleEarly}},
		{name: "amortize-4", script: genScript(amortizeSpec(4)), instants: 200, plants: []plantedBug{plantReadsAfterBarrier}},
		{name: "amortize-64", script: genScript(amortizeSpec(64)), instants: 200},
		{name: "selfcheck", script: selfcheck, instants: 200},
		{name: "selfcheck/shards=4", script: selfcheck, shards: 4, instants: 200},
		{name: "selfcheck/buckets=4", script: selfcheck, buckets: 4, instants: 200},
	}
}

// plantNames names each plant in plants.golden.
var plantNames = [...]string{
	plantNone:              "none",
	plantCursorOffByOne:    "cursor-off-by-one",
	plantDropTombstone:     "drop-tombstone",
	plantRecycleEarly:      "recycle-early",
	plantLowestIdxWinner:   "lowest-idx-winner",
	plantStaleRead:         "stale-read",
	plantResurrect:         "resurrect",
	plantReadsAfterBarrier: "reads-after-barrier",
}

// replayEvery is how often the sweep runs an image twice: the first of
// each row's and plant's images, and every replayEvery-th after it, must
// recover the same state again.
const replayEvery = 20

// image is one run of a row: its script crashed at at (0: the clean
// drain) on engines with bug planted (plantNone: honest ones).
type image struct {
	row      *sweepRow
	bug      plantedBug
	at       sim.Cycle
	crashed  bool      // some shard lost power
	offClock bool      // and did not stop its clock at at
	cycles   sim.Cycle // the slowest shard's clock before its closing drain
	end      sim.Cycle // shard 0's clock after it
	now      sim.Cycle // shard 0's engine clock once the run is over
	rep      *Report   // shard 0's; nil when the run failed before recovery
	fp       string    // the recovered state's fingerprint, over every shard
	again    string    // fp of a replay ("": not replayed)
	replay   bool
	// verdict: every shard's checker gave one; acked counts the writes it
	// was told were acked durable, publishes every shard's retired writes.
	verdict          bool
	acked, publishes int
	err              error // the run's: Verify's, or dlcheck's when Verify passed
	dlBad            bool  // dlcheck rejected it
	oerr             error // the oracle's
	// A probe row's machine events, counted beside the counters Stats
	// reports for shard 0; the clean drain of an every-image row, the
	// cycles at which a line persisted.
	events   *eventOracle
	stats    *EngineStats
	persists persistCycles
}

// persistCycles is the sink that collects the distinct cycles at which
// some line became durable: the only instants the crash image changes at.
type persistCycles map[sim.Cycle]struct{}

func (p persistCycles) Emit(ev obs.Event) {
	if ev.Kind == obs.KPersistAck {
		p[ev.Cycle] = struct{}{}
	}
}

// instants is every crash image a clean run whose lines persisted at p
// can leave, in cycle order: a crash at each persist cycle and one cycle
// before each (the clean drain itself is the image at 0).
func (p persistCycles) instants() []sim.Cycle {
	at := make(map[sim.Cycle]struct{}, 2*len(p))
	for c := range p {
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
	return out
}

// run runs the row's script once at crash instant at with bug planted in
// every shard's engine, each machine probed by sink when it is not nil
// (rows that probe run one shard), and returns shard 0's engine clock
// with the results.
func (r *sweepRow) run(at sim.Cycle, bug plantedBug, sink obs.Sink) (sim.Cycle, []ShardResult, error) {
	cfg := Config{CrashAt: at, Check: true, Buckets: r.buckets}
	if sink != nil {
		cfg.Machine = SmallMachine()
		cfg.Machine.Probe = obs.NewProbe(sink)
	}
	engines, err := plantedEngines(cfg, max(1, r.shards), bug)
	if err != nil {
		return 0, nil, err
	}
	out, err := runScript(engines, r.script)
	return engines[0].Now(), out, err
}

// judge runs the image and records what each check made of it, then, if
// it is one to replay, runs it again for the replay's fingerprint.
func (im *image) judge() {
	var sink obs.Sink
	switch {
	case im.row.probe:
		im.events = &eventOracle{completedAt: make(map[[2]int64]sim.Cycle)}
		sink = im.events
	case im.row.instants == 0 && im.at == 0 && im.bug == plantNone:
		im.persists = persistCycles{}
		sink = im.persists
	}
	now, out, err := im.row.run(im.at, im.bug, sink)
	im.now, im.err = now, err
	if out == nil {
		return
	}
	im.oerr = oracleCheck(out)
	im.verdict = true
	verdicts := make([]*dlcheck.Verdict, len(out))
	for i, r := range out {
		im.crashed = im.crashed || r.Crashed
		im.offClock = im.offClock || r.Crashed && (r.Cycles != im.at || r.Stats.Cycle != im.at)
		im.cycles = max(im.cycles, r.Cycles)
		im.verdict = im.verdict && r.DL != nil
		im.dlBad = im.dlBad || r.DL != nil && !r.DL.OK()
		if r.Report != nil {
			im.publishes += r.Report.TotalPublishes
		}
		verdicts[i] = r.DL
	}
	if v := dlcheck.Merge(verdicts); v != nil {
		im.acked = v.Acked
	}
	im.end, im.rep, im.fp = out[0].Stats.Cycle, out[0].Report, recoveredFingerprint(out)
	if im.events != nil {
		im.stats = &out[0].Stats
	}
	if im.replay {
		if _, again, _ := im.row.run(im.at, im.bug, nil); again != nil {
			im.again = recoveredFingerprint(again)
		}
	}
}

// recoveredFingerprint hashes the state recovery rebuilt on every shard,
// in shard order; it is rebuilt even when Verify rejected the image.
func recoveredFingerprint(out []ShardResult) string {
	fps := make([]string, len(out))
	for i, r := range out {
		fps[i] = stats.MustFingerprint(recoverySnapshot(r.Recovered))
	}
	return stats.MustFingerprint(fps)
}

// judgeAll judges images on a few workers.
func judgeAll(images []*image) {
	work := make(chan *image)
	var wg sync.WaitGroup
	for range min(4, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for im := range work {
				im.judge()
			}
		}()
	}
	for _, im := range images {
		work <- im
	}
	close(work)
	wg.Wait()
}

// sweep judges every image of the table once per test binary: each row's
// honest clean drain first, which sizes its sweep, then every other image.
// It returns each row's images by plant (plantNone first, as the row
// lists them after it), each plant's in crash-instant order, the clean
// drain first.
var sweep = sync.OnceValue(func() map[string][][]*image {
	rows := sweepRows()
	clean := make([]*image, len(rows))
	for i := range rows {
		clean[i] = &image{row: &rows[i], replay: true}
	}
	judgeAll(clean)
	out := make(map[string][][]*image, len(rows))
	var rest []*image
	for i, row := range rows {
		instants := clean[i].persists.instants()
		if row.instants > 0 {
			instants = sweepInstants(clean[i].cycles, row.instants)
		}
		for _, bug := range append([]plantedBug{plantNone}, row.plants...) {
			ims := []*image{clean[i]}
			if bug != plantNone {
				ims[0] = &image{row: &rows[i], bug: bug, replay: true}
				rest = append(rest, ims[0])
			}
			for j, at := range instants {
				im := &image{row: &rows[i], bug: bug, at: at, replay: (j+1)%replayEvery == 0}
				ims = append(ims, im)
				rest = append(rest, im)
			}
			out[row.name] = append(out[row.name], ims)
		}
	}
	judgeAll(rest)
	return out
})

// swept is the images of one row and plant.
func swept(t *testing.T, row string, bug plantedBug) []*image {
	t.Helper()
	for _, ims := range sweep()[row] {
		if ims[0].bug == bug {
			return ims
		}
	}
	t.Fatalf("the sweep has no row %s with plant %s", row, plantNames[bug])
	return nil
}

// verifyCheck names the check of Verify that err is a rejection by, a
// column of plants.golden: checks 1 and 2 (order), check 5 finding a live
// entry overwritten (overwritten) or an entry folded before it was
// durable (unfolded), check 6 (served), or anything else (other).
func verifyCheck(err error) string {
	switch msg := err.Error(); {
	case strings.Contains(msg, "epoch-order violation"), strings.Contains(msg, "persisted-set violation"):
		return "order"
	case strings.Contains(msg, "was overwritten while the entry was live"):
		return "overwritten"
	case strings.Contains(msg, "was not durable"):
		return "unfolded"
	case caughtStaleServe(err):
		return "served"
	}
	return "other"
}

// ledgerColumns are the counts of a plants.golden line, in order.
var ledgerColumns = []string{"images", "crashed", "verify", "order", "overwritten", "unfolded", "served", "other", "dlcheck", "oracle", "moved"}

// tally counts a row's images of one plant for its plants.golden line:
// how many were judged and crashed; how many Verify rejected, split by
// check; how many dlcheck and the oracle rejected; and how many recovered
// a state other than the honest engine's at the same instant (moved; the
// check the fpdump goldens hold the honest engine to).
func tally(ims, honest []*image) map[string]int {
	n := map[string]int{"images": len(ims)}
	for i, im := range ims {
		if im.crashed {
			n["crashed"]++
		}
		if im.err != nil && !strings.Contains(im.err.Error(), "durable linearizability") {
			n["verify"]++
			n[verifyCheck(im.err)]++
		}
		if im.dlBad {
			n["dlcheck"]++
		}
		if im.oerr != nil {
			n["oracle"]++
		}
		if im.fp != honest[i].fp {
			n["moved"]++
		}
	}
	return n
}

// requireCaught fails t unless each named column of row's plant line is
// above 0: each of those checks rejects some image of the plant there.
func requireCaught(t *testing.T, row string, bug plantedBug, checks ...string) {
	t.Helper()
	n := tally(swept(t, row, bug), swept(t, row, plantNone))
	for _, c := range checks {
		if n[c] == 0 {
			t.Errorf("%s, plant %s: %s rejects none of %d images", row, plantNames[bug], c, n["images"])
		}
	}
}

// TestCrashSweep is the crash sweep: every row of the table, judged once,
// is held to what holds at every image whatever is planted, and its
// honest engine to every check; then each row's plant lines must equal
// testdata/plants.golden. At every image, a shard that lost power stopped
// its clock at the crash instant, and a replayed image recovers the same
// state. The honest engine's every image is accepted by Verify, dlcheck
// and the oracle, with a verdict from every shard's checker; its clean
// drain tells the checker that every write was acked (acked == publishes
// > 0: a scripted run acks through the live worker's code, and with no
// acks the acked => recovered rule would judge nothing); and at least
// half of a sampled row's instants crash it. Every plant has a line with
// a rejection, and -update rewrites the golden.
func TestCrashSweep(t *testing.T) {
	var got strings.Builder
	caught := map[plantedBug]int{}
	rows := sweepRows()
	for _, row := range rows {
		lines := sweep()[row.name]
		honest := lines[0]
		for _, ims := range lines {
			bug := ims[0].bug
			for _, im := range ims {
				if im.offClock {
					t.Errorf("%s, plant %s, crash at %d: a shard that lost power did not stop its clock there", row.name, plantNames[bug], im.at)
				}
				if im.again != im.fp && im.again != "" {
					t.Errorf("%s, plant %s, crash at %d: a replay recovered a different state", row.name, plantNames[bug], im.at)
				}
				if bug != plantNone {
					continue
				}
				if im.err != nil || im.oerr != nil || !im.verdict {
					t.Errorf("%s, crash at %d, nothing planted: checkers %v, oracle %v, verdict from every shard %v", row.name, im.at, im.err, im.oerr, im.verdict)
				}
				if im.at == 0 && (im.acked != im.publishes || im.publishes == 0) {
					t.Errorf("%s, clean drain: %d of %d publishes acked; want every one, and more than 0", row.name, im.acked, im.publishes)
				}
			}
			n := tally(ims, honest)
			if bug == plantNone && row.instants > 0 && 2*n["crashed"] < row.instants {
				t.Errorf("%s: only %d of %d instants crashed; the sweep is not exercising mid-run states", row.name, n["crashed"], row.instants)
			}
			caught[bug] += n["verify"] + n["dlcheck"] + n["oracle"] + n["moved"]
			fmt.Fprintf(&got, "%s %s", row.name, plantNames[bug])
			for _, c := range ledgerColumns {
				fmt.Fprintf(&got, " %s=%d", c, n[c])
			}
			got.WriteByte('\n')
		}
	}
	for _, row := range rows {
		for _, bug := range row.plants {
			if caught[bug] == 0 {
				t.Errorf("plant %s: no check rejects any of its images in any row", plantNames[bug])
				caught[bug] = -1
			}
		}
	}
	t.Logf("plants.golden:\n%s", got.String())
	checkGolden(t, filepath.Join("testdata", "plants.golden"), got.String())
}

// TestOracleAgreesWithDLCheck: over every image of fpdump's three sweeps
// the oracle and the engine's own checkers (Verify and dlcheck) reach the
// same verdict — all clean, on an honest engine.
func TestOracleAgreesWithDLCheck(t *testing.T) {
	n := 0
	for _, s := range fpdumpSpecs {
		for _, im := range swept(t, s.name, plantNone) {
			n++
			if im.err != nil || im.oerr != nil {
				t.Errorf("%s, crash at %d: checkers %v, oracle %v", s.name, im.at, im.err, im.oerr)
			}
		}
	}
	if !t.Failed() {
		t.Logf("%d images of fpdump's three sweeps: checkers and oracle all clean", n)
	}
}

// update rewrites the sweep's goldens instead of comparing.
var update = flag.Bool("update", false, "rewrite testdata/fpdump*.golden and testdata/plants.golden")

// line renders the image as its fpdump golden line: the clean drain's clock
// and fingerprint, or the crash instant, whether power was lost, the clock
// and the fingerprint; with counts, every Report count after them.
func (im *image) line(counts bool) string {
	s := fmt.Sprintf("clean cycles=%d fp=%s", im.end, im.rep.Fingerprint)
	if im.at != 0 {
		s = fmt.Sprintf("at=%d crashed=%v cycles=%d fp=%s", im.at, im.crashed, im.end, im.rep.Fingerprint)
	}
	if counts {
		r := im.rep
		s += fmt.Sprintf(" epochs=%d durable=%d total=%d keys=%d", r.Epochs, r.DurablePublishes, r.TotalPublishes, r.RecoveredKeys)
	}
	return s
}

// TestFpdumpGolden: every honest image of fpdump's three sweeps recovers
// its golden line, byte for byte — the proof that a speed-only change
// changed speed, not semantics. fpdump.golden's clean-drain fingerprint
// and 200 crash-instant fingerprints were captured from the single-engine
// driver before it was deleted, and survived the move to one persist
// barrier per write unchanged (one op per core per window never merges
// epochs); fpdump-merged.golden pins the same sweep where epochs do merge;
// and fpdump-long.golden was captured from the engine that kept every
// record, before records were folded behind the durable watermark, so
// checkpoint-plus-tail recovery is held to a full replay's fingerprint and
// Report counts. Run with -update to rewrite the goldens.
func TestFpdumpGolden(t *testing.T) {
	for _, s := range fpdumpSpecs {
		var got strings.Builder
		for _, im := range swept(t, s.name, plantNone) {
			if im.rep == nil {
				t.Fatalf("%s, crash at %d: no recovered state to render: %v", s.name, im.at, im.err)
			}
			got.WriteString(im.line(s.counts) + "\n")
		}
		checkGolden(t, filepath.Join("testdata", s.name+".golden"), got.String())
	}
}

// checkGolden holds got to the golden file line by line, naming the first
// line that differs, or rewrites the file under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("the sweep rendered %d lines, golden %s has %d (run with -update to regenerate)",
			len(gotLines)-1, golden, len(wantLines)-1)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from golden %s (run with -update to regenerate)\n got: %s\nwant: %s",
				i+1, golden, gotLines[i], wantLines[i])
		}
	}
}

// TestOracleCatchesPlants: each planted bug that corrupts what a client
// can see — the recovered state, or a read's answer — is rejected by the
// oracle at some image of the test script (six sessions, so one core's
// window holds two writes); the honest engine passes every one
// (TestCrashSweep). The resurrection plant is held to the oracle on a
// script shaped for it instead, in TestOracleCatchesResurrection: since
// whole-line stores no image of this script shows a client the
// resurrected key.
func TestOracleCatchesPlants(t *testing.T) {
	for _, bug := range []plantedBug{plantCursorOffByOne, plantDropTombstone, plantRecycleEarly, plantStaleRead} {
		requireCaught(t, "testSpec", bug, "oracle")
	}
}

// TestOracleCatchesResurrection: over every image of resurrectionScript
// the oracle rejects some image of the resurrection plant, so its catch
// of that plant rests on a tier-1 script, not on fpdump-long's sampled
// instants alone.
func TestOracleCatchesResurrection(t *testing.T) {
	requireCaught(t, "resurrection", plantResurrect, "oracle")
}

// TestPlantedResurrection: an engine whose fold frees a durable
// tombstone's own line, before any later entry of its key is durable, lets
// the line be reused while the key's older entry still sits whole on the
// free list; once the reuse persists, recovery's scan finds the older entry
// and the deleted key comes back. Over every image of fpdump's first two
// scripts Verify's check 5 and dlcheck must each reject it somewhere. On
// those two scripts a client rarely if ever sees the resurrection (a key
// must come back whose last write was an acked Delete), so the oracle may
// pass them all. fpdump-long's sweep, where keys are deleted and freed
// over hundreds of rounds, is where it shows, and where the oracle must
// reject it too.
func TestPlantedResurrection(t *testing.T) {
	requireCaught(t, "fpdump/every", plantResurrect, "overwritten", "dlcheck")
	requireCaught(t, "fpdump-merged/every", plantResurrect, "overwritten", "dlcheck")
	requireCaught(t, "fpdump-long", plantResurrect, "oracle")
}
