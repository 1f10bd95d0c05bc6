// The crash sweep: one table of machine kernels, each crashed at every
// image its clean run can leave or at instants spread over that run, on
// the honest machine and on machines with a bug planted. Every image runs
// once and is judged by DESIGN §5's invariants 1 and 2: epoch order
// (recovery.CheckOrdering), a declared-persisted set that is closed and
// durable (recovery.CheckPersistedClosed) and, on a machine with an undo
// log, whole epochs after rollback (recovery.Rollback, CheckAtomicity).
// What each check rejects, per row and plant, is pinned in
// testdata/plants.golden.
package machine

import (
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"persistbarriers/internal/cache"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/recovery"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

// randomProgram builds a multi-threaded program with shared and private
// data, barriers, and enough conflicts to stress every protocol path.
func randomProgram(seed uint64, cores, opsPerCore int, withBarriers bool) *trace.Program {
	r := trace.NewRand(seed)
	var traces [][]trace.Op
	for c := 0; c < cores; c++ {
		var b trace.Builder
		privBase := mem.Addr(0x10000 + c*0x4000)
		for i := 0; i < opsPerCore; i++ {
			switch r.Intn(10) {
			case 0, 1: // shared-region store (inter-thread conflicts)
				b.Store(mem.Addr(r.Intn(32) * 64))
			case 2: // shared-region load
				b.Load(mem.Addr(r.Intn(32) * 64))
			case 3, 4, 5: // private stores (intra-thread conflicts on reuse)
				b.Store(privBase + mem.Addr(r.Intn(16)*64))
			case 6:
				b.Load(privBase + mem.Addr(r.Intn(16)*64))
			case 7:
				b.Compute(sim.Cycle(r.Intn(50)))
			default:
				if withBarriers {
					b.Barrier()
				} else {
					b.Store(privBase + mem.Addr(r.Intn(16)*64))
				}
			}
		}
		traces = append(traces, b.Ops())
	}
	return &trace.Program{Traces: traces}
}

// wholePrivateStores rewrites p's stores to randomProgram's private
// regions (0x10000 and up) as whole-line stores, so on LB++ early
// write-backs meet conflicts, splits and flushes.
func wholePrivateStores(p *trace.Program) *trace.Program {
	out := &trace.Program{}
	for _, ops := range p.Traces {
		ops = slices.Clone(ops)
		for i, op := range ops {
			if op.Kind() == trace.Store && op.Addr() >= 0x10000 {
				ops[i] = new(trace.Builder).StoreLine(op.Addr(), 0).Ops()[0]
			}
		}
		out.Traces = append(out.Traces, ops)
	}
	return out
}

// hotLineProgram drives every core at the same four lines, to stress
// recall/writeback collisions.
func hotLineProgram() *trace.Program {
	r := trace.NewRand(3)
	var traces [][]trace.Op
	for c := 0; c < 4; c++ {
		var b trace.Builder
		for i := 0; i < 150; i++ {
			a := mem.Addr(r.Intn(4) * 64)
			if r.Intn(3) == 0 {
				b.Load(a)
			} else {
				b.Store(a)
			}
			if r.Intn(5) == 0 {
				b.Barrier()
			}
		}
		traces = append(traces, b.Ops())
	}
	return &trace.Program{Traces: traces}
}

// barrier is testConfig's machine running the barrier named.
func barrier(name string) Config {
	cfg := testConfig(LB)
	if err := cfg.SetBarrier(name); err != nil {
		panic(err)
	}
	return cfg
}

// sweepRow is one crash sweep: prog run under cfg, crashed at every image
// its clean run can leave (instants 0) or at instants crash instants
// spread over the clean run, on the honest machine and with each of
// plants planted. A row without a program runs the Fig. 11 quick grid,
// judged at its clean drains only. blind says why no check rejects an
// image of the row's plants, where none does.
type sweepRow struct {
	name     string
	cfg      Config
	prog     *trace.Program
	instants int
	plants   []plant
	blind    string
}

// sweepRows is the table: every engine on random interleavings; the LB
// variants on random programs, plain and with private stores written as
// whole lines, with and without undo logging; the kernels shaped for a
// protocol corner; and the kernels each plant is shaped for.
func sweepRows() []sweepRow {
	var rows []sweepRow
	add := func(name string, cfg Config, p *trace.Program, instants int, plants ...plant) {
		rows = append(rows, sweepRow{name: name, cfg: cfg, prog: p, instants: instants, plants: plants})
	}
	// All eight engines, five 100-op programs each, five instants.
	for _, b := range barriers {
		for seed := uint64(1); seed <= 5; seed++ {
			s := seed*31 + uint64(b.model)
			add(fmt.Sprintf("random/%s/seed=%d", b.name, s), barrier(b.name), randomProgram(s, 4, 100, true), 5)
		}
	}
	// The LB variants on 120-op programs, plain and whole-line: LB and
	// LB+PF on twelve programs at 24 instants, LB+IDT and LB++ on three
	// at six. The program that once left an online edge on the epoch a
	// split closed (LB+PF, whole-line, seed 3) is crashed at every image.
	for seed := uint64(1); seed <= 12; seed++ {
		plain := randomProgram(seed, 4, 120, true)
		for _, b := range barriers[LB:] {
			n := 24
			if b.idt {
				if seed > 3 {
					continue
				}
				n = 6
			}
			add(fmt.Sprintf("plain/%s/seed=%d", b.name, seed), barrier(b.name), plain, n)
			if b.name == "LB+PF" && seed == 3 {
				n = 0
			}
			add(fmt.Sprintf("whole/%s/seed=%d", b.name, seed), barrier(b.name), wholePrivateStores(plain), n)
		}
	}
	// Bulk-mode BSP with undo logging, no programmer barriers.
	bulk := func(stores int) Config {
		cfg := barrier("LB++")
		cfg.Logging, cfg.BulkEpochStores, cfg.CheckpointLines = true, stores, 2
		return cfg
	}
	for seed := uint64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("bulk20/seed=%d", seed), bulk(20), randomProgram(seed, 4, 150, false), 5)
	}
	for seed := uint64(137); seed <= 4*137; seed += 137 {
		add(fmt.Sprintf("bulk16/seed=%d", seed), bulk(16), randomProgram(seed, 4, 120, false), 3)
	}
	// The LB variants with and without logging (bulk epochs of 15 + v
	// stores, v % 3 checkpoint lines) on programs of 40 to 159 ops.
	for v := range 8 {
		cfg, log := barrier(barriers[int(LB)+v%4].name), "nolog"
		if v >= 4 {
			cfg.Logging, cfg.BulkEpochStores, cfg.CheckpointLines, log = true, 15+v, v%3, "log"
		}
		seed := uint64(v)*7919 + 1
		add(fmt.Sprintf("quick/%s/%s", cfg.BarrierName(), log), cfg, randomProgram(seed, 4, 40+int(seed%120), v < 4), 5)
	}
	add("ep60/seed=11", barrier("EP"), randomProgram(11, 4, 60, true), 0)
	add("plain50/LB/seed=1", barrier("LB"), randomProgram(1, 4, 50, true), 0)
	add("plain100/LB++/seed=99", barrier("LB++"), randomProgram(99, 4, 100, true), 0)
	for _, b := range []string{"LB", "LB++"} {
		add("plain150/"+b+"/seed=5", barrier(b), randomProgram(5, 4, 150, true), 5)
	}
	// Protocol corners: contention, cache pressure, clflush, one flush
	// machine-wide, one LLC bank, a split during posted stores, EP.
	add("hot-line", barrier("LB++"), hotLineProgram(), 0)
	tiny := barrier("LB+IDT")
	tiny.L1Sets, tiny.L1Ways, tiny.LLCSets, tiny.LLCWays = 4, 2, 8, 2
	add("tiny-cache", tiny, randomProgram(21, 4, 200, true), 24)
	clflush := barrier("LB+PF")
	clflush.FlushMode = cache.Invalidating
	add("clflush", clflush, randomProgram(8, 4, 200, true), 24)
	global := barrier("LB+PF")
	global.GlobalArbiter = true
	add("global-arbiter", global, randomProgram(17, 4, 150, true), 24)
	mono := barrier("LB++")
	mono.LLCBanks, mono.LLCSets = 1, 256
	add("monolithic-llc", mono, randomProgram(23, 4, 150, true), 24)
	add("split-posted", barrier("LB++"), splitPostedProgram(), 0)
	add("ep-epochs", barrier("EP"), epEpochsProgram(), 0)
	// Early write-back on LB++: the Fig. 4 kernels of its two plants, a
	// rewrite queued behind its own write-back, and a write-back
	// overtaken by the same version.
	add("fig4/load-then-store", barrier("LB++"), fig4(loadThenStore), 0, plantEarlyWriteAnyEpoch)
	add("fig4/store-then-load", barrier("LB++"), fig4(storeThenLoad), 0, plantEarlyEdgeNoSplit)
	add("rewrite", barrier("LB++"), rewriteProgram(), 0)
	oneLine := barrier("LB++")
	oneLine.L1Sets, oneLine.L1Ways, oneLine.LLCSets, oneLine.LLCWays, oneLine.RecordOpTimes = 1, 1, 1, 1, true
	add("overtaken", oneLine, overtakenProgram(), 0)
	return append(rows,
		sweepRow{name: "barrier-edge", cfg: barrier("LB+IDT"), prog: barrierEdgeTrace(), plants: []plant{plantBarrierSkipsLoads},
			blind: "the edge lands on core 1's next epoch, whose one store persists after line 0 either way; TestPostedLoadEdgeOnBarrierEpoch sees where it lands"},
		sweepRow{name: "quick-grid", plants: []plant{plantEarlyFlushRelease, plantShortRing}})
}

// table is sweepRows, built once per test binary.
var table = sync.OnceValue(sweepRows)

// plantNames names each plant in plants.golden.
var plantNames = [...]string{plantNone: "none", plantEarlyFlushRelease: "early-flush-release",
	plantBarrierSkipsLoads: "barrier-skips-loads", plantEarlyWriteAnyEpoch: "early-write-any-epoch",
	plantEarlyEdgeNoSplit: "early-edge-no-split", plantShortRing: "short-ring"}

// drained is the instant of a row's clean drain: Run, not RunUntil.
const drained = sim.MaxCycle

// image is one run of a row: its program crashed at at on a machine with
// bug planted (plantNone: the honest one), and what the checks made of
// it. Each check's rejection is its error; future is an image version
// newer than the newest the run wrote, or any durable line at cycle 0.
type image struct {
	row                           *sweepRow
	bug                           plant
	at                            sim.Cycle
	order, closed, atomic, future error
	panicked                      any
	fp                            string // of the results, on a row with plants
	took                          time.Duration
	res                           []*Result     // a clean drain's
	persists                      persistCycles // the honest clean drain's, on an every-image row
}

// persistCycles is the sink that collects the distinct cycles at which a
// line became durable or an epoch was declared persisted: the only
// instants the image or the declared-persisted set changes at.
type persistCycles map[sim.Cycle]struct{}

func (p persistCycles) Emit(ev obs.Event) {
	if ev.Kind == obs.KPersistAck || ev.Kind == obs.KEpochPersist {
		p[ev.Cycle] = struct{}{}
	}
}

// instants is every crash image a clean run that persisted at p can
// leave, in cycle order: cycle 0, where nothing has run, a crash at each
// persist cycle and one cycle before each.
func (p persistCycles) instants() []sim.Cycle {
	at := map[sim.Cycle]struct{}{0: {}}
	for c := range p {
		at[c], at[c-1] = struct{}{}, struct{}{}
	}
	return slices.Sorted(maps.Keys(at))
}

// sweepInstants spreads n crash instants evenly over (0, total].
func sweepInstants(total sim.Cycle, n int) []sim.Cycle {
	out := make([]sim.Cycle, n)
	for i := range out {
		out[i] = max(1, total*sim.Cycle(i+1)/sim.Cycle(n))
	}
	return out
}

// runPlanted runs p under cfg with bug planted, to its clean drain or
// crashed at at.
func runPlanted(cfg Config, p *trace.Program, at sim.Cycle, bug plant) *Result {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	m.plant = bug
	if bug == plantShortRing {
		for _, c := range m.cores {
			c.table.PlantShortRing()
		}
	}
	if err := m.Load(p); err != nil {
		panic(err)
	}
	run := m.Run
	if at != drained {
		run = func() (*Result, error) { return m.RunUntil(at) }
	}
	r, err := run()
	if err != nil {
		panic(err)
	}
	return r
}

// quickGrid runs the Fig. 11 quick grid (the five micro-benchmarks under
// the four LB variants, at harness.Quick's sizes) with bug planted, in
// grid order.
func quickGrid(bug plant) []*Result {
	var out []*Result
	for _, bench := range workload.MicrobenchmarkNames() {
		for _, b := range barriers[LB:] {
			p, err := workload.Microbenchmarks()[bench](workload.Spec{Threads: 8, OpsPerThread: 15, Seed: 42})
			if err != nil {
				panic(err)
			}
			cfg := DefaultConfig()
			cfg.Cores = 8
			if err := cfg.SetBarrier(b.name); err != nil {
				panic(err)
			}
			out = append(out, runPlanted(cfg, p, drained, bug))
		}
	}
	return out
}

// judge runs the image and records what each check made of it. The
// honest clean drain of an every-image row is probed for its persist
// cycles.
func (im *image) judge() {
	defer func() { im.panicked = recover() }()
	start := time.Now()
	var rs []*Result
	if im.row.prog == nil {
		rs = quickGrid(im.bug)
	} else {
		cfg := im.row.cfg
		if im.row.instants == 0 && im.at == drained && im.bug == plantNone {
			im.persists = persistCycles{}
			cfg.Probe = obs.NewProbe(im.persists)
		}
		rs = []*Result{runPlanted(cfg, im.row.prog, im.at, im.bug)}
	}
	im.took = time.Since(start)
	if im.at == 0 && len(rs[0].Image) != 0 {
		im.future = fmt.Errorf("%d lines durable at cycle 0", len(rs[0].Image))
	}
	for _, r := range rs {
		g := recovery.NewGraph(r.Histories)
		im.order = errors.Join(im.order, recovery.CheckOrdering(g, r.Image))
		im.closed = errors.Join(im.closed, recovery.CheckPersistedClosed(g, r.Image))
		if im.row.cfg.Logging {
			im.atomic = errors.Join(im.atomic, recovery.CheckAtomicity(g, recovery.Rollback(g, r.Image, r.UndoLog)))
		}
		for line, v := range r.Image {
			if latest, ok := r.Latest[line]; !ok || v > latest {
				im.future = errors.Join(im.future, fmt.Errorf("line %v durable at version %d, the newest written is %d", line, v, latest))
			}
		}
	}
	if len(im.row.plants) > 0 {
		im.fp = stats.MustFingerprint(rs)
	}
	if im.at == drained {
		im.res = rs
	}
}

// judgeAll judges images, a few at a time.
func judgeAll(images []*image) {
	var wg sync.WaitGroup
	slots := make(chan struct{}, min(4, runtime.GOMAXPROCS(0)))
	for _, im := range images {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			im.judge()
		}()
	}
	wg.Wait()
}

// sweep judges every image of the table once per test binary: each row's
// honest clean drain first, which sizes its sweep, then every other image,
// and last, alone, the planted quick grids that requireCaught times. It
// returns each row's images by plant (plantNone first, as the row lists
// them after it), each plant's clean drain first, then its crash instants
// in order.
var sweep = sync.OnceValue(func() map[string][][]*image {
	rows := table()
	clean := make([]*image, len(rows))
	for i := range rows {
		clean[i] = &image{row: &rows[i], at: drained}
	}
	judgeAll(clean)
	out := make(map[string][][]*image, len(rows))
	var rest, alone []*image
	for i, row := range rows {
		var instants []sim.Cycle
		switch {
		case row.prog == nil || clean[i].res == nil:
		case row.instants == 0:
			instants = clean[i].persists.instants()
		default:
			instants = sweepInstants(clean[i].res[0].DrainCycles, row.instants)
		}
		for _, bug := range append([]plant{plantNone}, row.plants...) {
			ims := []*image{clean[i]}
			if bug != plantNone {
				ims[0] = &image{row: &rows[i], bug: bug, at: drained}
				if row.prog == nil {
					alone = append(alone, ims[0])
				} else {
					rest = append(rest, ims[0])
				}
			}
			for _, at := range instants {
				im := &image{row: &rows[i], bug: bug, at: at}
				ims = append(ims, im)
				rest = append(rest, im)
			}
			out[row.name] = append(out[row.name], ims)
		}
	}
	judgeAll(rest)
	for _, im := range alone {
		im.judge()
	}
	return out
})

// swept is the images of one row and plant.
func swept(t *testing.T, row string, bug plant) []*image {
	t.Helper()
	for _, ims := range sweep()[row] {
		if ims[0].bug == bug {
			return ims
		}
	}
	t.Fatalf("the sweep has no row %s with plant %s", row, plantNames[bug])
	return nil
}

// cleanRun is the honest clean drain of a row with a program.
func cleanRun(t *testing.T, row string) *Result {
	t.Helper()
	res := swept(t, row, plantNone)[0].res
	if res == nil {
		t.Fatalf("%s: the clean run panicked", row)
	}
	return res[0]
}

// ledgerColumns are the counts of a plants.golden line, in order.
var ledgerColumns = []string{"images", "order", "closed", "atomic", "future", "moved", "panicked"}

// tally counts a row's images of one plant for its plants.golden line:
// how many were judged, how many each check rejected, how many ran to
// other results than the honest machine's at the same instant (moved),
// and how many panicked.
func tally(ims, honest []*image) map[string]int {
	n := map[string]int{"images": len(ims)}
	for i, im := range ims {
		for c, err := range map[string]error{"order": im.order, "closed": im.closed, "atomic": im.atomic, "future": im.future} {
			if err != nil {
				n[c]++
			}
		}
		switch {
		case im.panicked != nil:
			n["panicked"]++
		case im.fp != honest[i].fp:
			n["moved"]++
		}
	}
	return n
}

// requireClean fails t unless the sweep has want rows whose names match
// pattern (path.Match) and the honest machine passes every image of each:
// no check rejects it or panics, and its clean drain finishes with every
// written line at its newest version and every epoch with writes persisted.
func requireClean(t *testing.T, pattern string, want int) {
	t.Helper()
	got := 0
	for _, row := range table() {
		if ok, _ := path.Match(pattern, row.name); !ok {
			continue
		}
		got++
		for _, im := range swept(t, row.name, plantNone) {
			if im.panicked != nil || im.order != nil || im.closed != nil || im.atomic != nil || im.future != nil {
				t.Errorf("%s, crash at %d: panic %v; order %v; closed %v; atomic %v; future %v", row.name, im.at, im.panicked, im.order, im.closed, im.atomic, im.future)
			}
			for _, r := range im.res {
				if !r.Finished {
					t.Errorf("%s: the clean run did not finish", row.name)
				}
				// NP never persists; WT's per-core queues can persist an
				// older version of a shared line after a newer one.
				for line, v := range r.Latest {
					if r.Image[line] != v && r.Model != NP && r.Model != WT {
						t.Errorf("%s: line %v durable at version %d after the drain, the newest written is %d", row.name, line, r.Image[line], v)
					}
				}
				for _, hist := range r.Histories {
					for i, s := range hist {
						// epochDrain leaves overtaken's open epoch, written back early, unpersisted.
						if !s.PersistedFlag && len(s.Writes) > 0 && (row.name != "overtaken" || i < len(hist)-1) {
							t.Errorf("%s: epoch %v with writes unpersisted after the drain", row.name, s.ID)
						}
					}
				}
			}
		}
	}
	if got != want {
		t.Errorf("the sweep has %d rows %s, want %d", got, pattern, want)
	}
}

// requireCaught fails t unless each named column of row's plant line is
// above 0, and every planted image gave its verdict within 5 s.
func requireCaught(t *testing.T, row string, bug plant, checks ...string) {
	t.Helper()
	ims := swept(t, row, bug)
	n := tally(ims, swept(t, row, plantNone))
	for _, c := range checks {
		if n[c] == 0 {
			t.Errorf("%s, plant %s: %s rejects none of %d images", row, plantNames[bug], c, n["images"])
		}
	}
	for _, im := range ims {
		if im.took > 5*time.Second {
			t.Errorf("%s, plant %s, crash at %d: took %v to give its verdict, want under 5s", row, plantNames[bug], im.at, im.took)
		}
	}
}

// update rewrites testdata/plants.golden instead of comparing.
var update = flag.Bool("update", false, "rewrite testdata/plants.golden")

// TestCrashSweep is the crash sweep: the honest machine passes every
// image of every row (requireClean), every plant has a line on which
// some check rejects it, and the rows' lines must equal
// testdata/plants.golden; -update rewrites it.
func TestCrashSweep(t *testing.T) {
	var got strings.Builder
	caught := map[plant]int{}
	rows := table()
	for _, row := range rows {
		requireClean(t, row.name, 1)
		lines := sweep()[row.name]
		for _, ims := range lines {
			bug := ims[0].bug
			n := tally(ims, lines[0])
			caught[bug] += n["order"] + n["closed"] + n["atomic"] + n["future"] + n["moved"] + n["panicked"]
			fmt.Fprintf(&got, "%s %s", row.name, plantNames[bug])
			for _, c := range ledgerColumns {
				fmt.Fprintf(&got, " %s=%d", c, n[c])
			}
			if bug != plantNone && row.blind != "" {
				fmt.Fprintf(&got, " # %s", row.blind)
			}
			got.WriteByte('\n')
		}
	}
	for bug := plant(1); int(bug) < len(plantNames); bug++ {
		if caught[bug] == 0 {
			t.Errorf("plant %s: no check rejects any of its images in any row", plantNames[bug])
		}
	}
	t.Logf("plants.golden:\n%s", got.String())
	golden := filepath.Join("testdata", "plants.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(golden); err != nil || string(want) != got.String() {
		t.Fatalf("the ledger logged above is not %s (%v; run with -update to regenerate)", golden, err)
	}
}
