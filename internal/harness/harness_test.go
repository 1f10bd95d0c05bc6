package harness

import (
	"strings"
	"testing"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/stats"
)

// tinyOpt keeps harness tests fast while still exercising every code path.
func tinyOpt() Options {
	return Options{
		Threads:    4,
		MicroOps:   8,
		AppOps:     600,
		EpochSizes: []int{20, 60},
		BulkEpoch:  50,
		Seed:       42,
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Threads: 0, MicroOps: 1, AppOps: 1, BulkEpoch: 1},
		{Threads: 64, MicroOps: 1, AppOps: 1, BulkEpoch: 1},
		{Threads: 4, MicroOps: 0, AppOps: 1, BulkEpoch: 1},
		{Threads: 4, MicroOps: 1, AppOps: 1, BulkEpoch: 0},
		{Threads: 4, MicroOps: 1, AppOps: 1, BulkEpoch: 1, EpochSizes: []int{300, 0}},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := Defaults().validate(); err != nil {
		t.Errorf("Defaults rejected: %v", err)
	}
	if err := Quick().validate(); err != nil {
		t.Errorf("Quick rejected: %v", err)
	}
}

// gmeanVs is the suite gmean of col's metric normalized to base's in the
// same row: a figure's closing gmean bar.
func gmeanVs(g *Grid, col, base string, metric func(*machine.Result) float64) float64 {
	var vs []float64
	for _, row := range g.Rows {
		vs = append(vs, metric(g.Results[row][col])/metric(g.Results[row][base]))
	}
	return stats.Gmean(vs)
}

func execCyclesOf(r *machine.Result) float64 { return float64(r.ExecCycles) }

func TestRunBEPProducesFigures(t *testing.T) {
	r, err := RunBEP(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("benches = %v", r.Rows)
	}
	for _, bench := range r.Rows {
		for _, v := range BEPVariants {
			res := r.Results[bench][v]
			if res == nil || !res.Finished {
				t.Fatalf("%s/%s missing or unfinished", bench, v)
			}
		}
	}
	// LB normalizes to exactly 1: Figure 11's LB column.
	fig11 := Fig11Table(r).Data()
	for _, row := range fig11.Rows {
		if row[1] != "1.000" {
			t.Errorf("%s LB normalized = %s", row[0], row[1])
		}
	}
	for _, tbl := range []string{Fig11Table(r).Render(), Fig12Table(r).Render(), ConflictKindsTable(r).Render()} {
		if !strings.Contains(tbl, "queue") && !strings.Contains(tbl, "LB++") {
			t.Errorf("table missing expected rows:\n%s", tbl)
		}
	}
	// The headline claim, in shape: LB++ must not lose to LB on gmean.
	if g := gmeanVs(r, "LB++", "LB", (*machine.Result).Throughput); g < 1.0 {
		t.Errorf("LB++ gmean %v < 1 (slower than LB)", g)
	}
	// Conflicting-epoch percentages are percentages.
	for _, v := range BEPVariants {
		var vs []float64
		for _, bench := range r.Rows {
			vs = append(vs, r.Results[bench][v].Epochs.ConflictingFraction()*100)
		}
		if p := stats.Amean(vs); p < 0 || p > 100 {
			t.Errorf("%s amean conflicting = %v", v, p)
		}
	}
}

func TestRunFig13Shape(t *testing.T) {
	r, err := RunFig13(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range r.Rows {
		for _, col := range r.Cols[1:] {
			n := execCyclesOf(r.Results[app][col]) / execCyclesOf(r.Results[app]["NP"])
			if n < 1.0 {
				t.Errorf("%s/%s normalized %v < 1 (faster than NP?)", app, col, n)
			}
		}
	}
	tbl := Fig13Table(r).Render()
	if !strings.Contains(tbl, "ssca2") || !strings.Contains(tbl, "gmean") {
		t.Errorf("fig13 table malformed:\n%s", tbl)
	}
}

func TestRunFig14Shape(t *testing.T) {
	r, err := RunFig14(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range r.Rows {
		for _, v := range BSPVariants {
			if r.Runs[app][v] == nil || !r.Runs[app][v].Finished {
				t.Fatalf("%s/%s unfinished", app, v)
			}
		}
	}
	// Without logging the overhead must not exceed the logged LB++.
	nolog, logged := gmeanVs(r.Grid, "LB++NOLOG", "NP", execCyclesOf), gmeanVs(r.Grid, "LB++", "NP", execCyclesOf)
	if nolog > logged+1e-9 {
		t.Errorf("NOLOG %v slower than logged %v", nolog, logged)
	}
	share := r.InterConflictShare("LB")
	if share < 0 || share > 1 {
		t.Errorf("inter share = %v", share)
	}
}

func TestRunFig1Timelines(t *testing.T) {
	r, err := RunFig1(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	// SP couples persistence to visibility: slowest visibility. BEP
	// decouples: fastest.
	if !(r.Exec["BEP(LB)"] < r.Exec["EP"] && r.Exec["EP"] < r.Exec["SP"]) {
		t.Errorf("Figure 1 ordering violated: %v", r.Exec)
	}
	// SP cannot coalesce the double store to a: one persist per store.
	if r.Persists["SP"] != 7 {
		t.Errorf("SP persists = %d, want 7 (no coalescing)", r.Persists["SP"])
	}
	if r.Persists["BEP(LB)"] != 6 {
		t.Errorf("BEP persists = %d, want 6 (a coalesced)", r.Persists["BEP(LB)"])
	}
	if !strings.Contains(r.Table().Render(), "SP") {
		t.Error("fig1 table malformed")
	}
}

func TestRunFig4IDTBenefit(t *testing.T) {
	r, err := RunFig4(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r.StallIDT != 0 {
		t.Errorf("IDT kernel stalled %d cycles on the conflict", r.StallIDT)
	}
	if r.StallLB == 0 {
		t.Error("LB kernel did not stall on the conflict")
	}
	if r.DepsIDT != 1 {
		t.Errorf("deps recorded = %d, want 1", r.DepsIDT)
	}
	if !strings.Contains(r.Table().Render(), "LB+IDT") {
		t.Error("fig4 table malformed")
	}
}

func TestTables1And2(t *testing.T) {
	t1 := Table1().Render()
	for _, want := range []string{"Cores", "NVRAM", "2D mesh", "In-flight epochs"} {
		if !strings.Contains(t1, want) {
			t.Errorf("table1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2().Render()
	for _, want := range []string{"hash", "queue", "rbtree", "sdg", "sps"} {
		if !strings.Contains(t2, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestRunFlushMode(t *testing.T) {
	r, err := RunFlushMode(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	// clwb must beat (or at worst match) clflush on every benchmark.
	for _, bench := range r.Rows {
		ratio := r.Results[bench]["clwb"].Throughput() / r.Results[bench]["clflush"].Throughput()
		if ratio < 0.95 {
			t.Errorf("%s: clwb/clflush = %v, non-invalidating flush lost badly", bench, ratio)
		}
	}
	if !strings.Contains(FlushModeTable(r).Render(), "gmean") {
		t.Error("flushmode table malformed")
	}
}

func TestRunWriteThrough(t *testing.T) {
	// The naive write-through overhead is an NVRAM-saturation effect: it
	// needs enough threads to exceed the controllers' write bandwidth
	// (the paper's 8x is at 32 threads). Use a mid-size config and only
	// require the write-intensive stress case to show clear overhead;
	// no app may be faster than NP.
	opt := tinyOpt()
	opt.Threads = 16
	opt.AppOps = 1500
	r, err := RunWriteThrough(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range r.Rows {
		ratio := float64(r.Results[app]["WT"].ExecCycles) / float64(r.Results[app]["NP"].ExecCycles)
		if ratio < 0.999 {
			t.Errorf("%s: WT/NP = %v < 1", app, ratio)
		}
		if app == "ssca2" && ratio < 1.2 {
			t.Errorf("ssca2: WT/NP = %v, expected saturation overhead", ratio)
		}
	}
	if !strings.Contains(WriteThroughTable(r).Render(), "gmean") {
		t.Error("writethrough table malformed")
	}
}

func TestRunAblations(t *testing.T) {
	r, err := RunAblations(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(AblationTables(r)); n != 4 {
		t.Fatalf("ablation tables = %d, want 4", n)
	}
	fallbacks := func(col string) (n uint64) {
		for _, bench := range r.Rows {
			n += r.Results[bench][col].Conflicts.IDTFallbacks
		}
		return n
	}
	// More IDT registers can only reduce fallbacks.
	if fallbacks("depregs=16") > fallbacks("depregs=1") {
		t.Errorf("fallbacks grew with more registers: %d with 16, %d with 1", fallbacks("depregs=16"), fallbacks("depregs=1"))
	}
	// Serializing all flushes through one arbiter must not beat the
	// paper's per-core arbiters.
	global := gmeanVs(r, "arbiter=global", "base", (*machine.Result).Throughput)
	perCore := gmeanVs(r, "arbiter=percore", "base", (*machine.Result).Throughput)
	if global > perCore*1.05 {
		t.Errorf("global arbiter %.3f outperformed per-core %.3f", global, perCore)
	}
}

func TestRunFig7BankOrdering(t *testing.T) {
	r, err := RunFig7(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ordered {
		t.Fatalf("Figure 7 violation: C persisted at %d before E1 (A %d, B %d)",
			r.PersistC, r.PersistA, r.PersistB)
	}
	if !strings.Contains(r.Table().Render(), "ordered") {
		t.Error("fig7 table malformed")
	}
}
