package harness

import (
	"math"
	"strings"
	"testing"
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

func TestVariantFlags(t *testing.T) {
	cases := map[string][2]bool{
		"LB": {false, false}, "LB+IDT": {true, false},
		"LB+PF": {false, true}, "LB++": {true, true}, "LB++NOLOG": {true, true},
	}
	for name, want := range cases {
		idt, pf, err := variantFlags(name)
		if err != nil || idt != want[0] || pf != want[1] {
			t.Errorf("%s -> (%v,%v,%v)", name, idt, pf, err)
		}
	}
	if _, _, err := variantFlags("bogus"); err == nil {
		t.Error("bogus variant accepted")
	}
}

func TestRunBEPProducesFigures(t *testing.T) {
	r, err := RunBEP(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benches) != 5 {
		t.Fatalf("benches = %v", r.Benches)
	}
	for _, bench := range r.Benches {
		for _, v := range BEPVariants {
			res := r.Results[bench][v]
			if res == nil || !res.Finished {
				t.Fatalf("%s/%s missing or unfinished", bench, v)
			}
		}
		// LB normalizes to exactly 1.
		if got := r.NormalizedThroughput(bench, "LB"); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s LB normalized = %v", bench, got)
		}
	}
	for _, tbl := range []string{r.Fig11Table().Render(), r.Fig12Table().Render(), r.ConflictKindsTable().Render()} {
		if !strings.Contains(tbl, "queue") && !strings.Contains(tbl, "LB++") {
			t.Errorf("table missing expected rows:\n%s", tbl)
		}
	}
	// The headline claim, in shape: LB++ must not lose to LB on gmean.
	if g := r.GmeanThroughput("LB++"); g < 1.0 {
		t.Errorf("LB++ gmean %v < 1 (slower than LB)", g)
	}
	// Conflicting-epoch percentages are percentages.
	for _, v := range BEPVariants {
		p := r.AmeanConflicting(v)
		if p < 0 || p > 100 {
			t.Errorf("%s amean conflicting = %v", v, p)
		}
	}
}

func TestRunFig13Shape(t *testing.T) {
	r, err := RunFig13(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range r.Apps {
		for _, size := range r.Sizes {
			n := r.Normalized(app, size)
			if n < 1.0 {
				t.Errorf("%s/LB%d normalized %v < 1 (faster than NP?)", app, size, n)
			}
		}
	}
	tbl := r.Fig13Table().Render()
	if !strings.Contains(tbl, "ssca2") || !strings.Contains(tbl, "gmean") {
		t.Errorf("fig13 table malformed:\n%s", tbl)
	}
}

func TestRunFig14Shape(t *testing.T) {
	r, err := RunFig14(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range r.Apps {
		for _, v := range BSPVariants {
			if r.Runs[app][v] == nil || !r.Runs[app][v].Finished {
				t.Fatalf("%s/%s unfinished", app, v)
			}
		}
	}
	// Without logging the overhead must not exceed the logged LB++.
	if r.GmeanNormalized("LB++NOLOG") > r.GmeanNormalized("LB++")+1e-9 {
		t.Errorf("NOLOG %v slower than logged %v", r.GmeanNormalized("LB++NOLOG"), r.GmeanNormalized("LB++"))
	}
	share := r.InterConflictShare("LB")
	if share < 0 || share > 1 {
		t.Errorf("inter share = %v", share)
	}
}

func TestRunFig1Timelines(t *testing.T) {
	r, err := RunFig1()
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
	r, err := RunFig4()
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
	for _, bench := range r.Benches {
		ratio := r.Clwb[bench].Throughput() / r.Clflush[bench].Throughput()
		if ratio < 0.95 {
			t.Errorf("%s: clwb/clflush = %v, non-invalidating flush lost badly", bench, ratio)
		}
	}
	if !strings.Contains(r.Table().Render(), "gmean") {
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
	for _, app := range r.Apps {
		ratio := float64(r.WT[app].ExecCycles) / float64(r.NP[app].ExecCycles)
		if ratio < 0.999 {
			t.Errorf("%s: WT/NP = %v < 1", app, ratio)
		}
		if app == "ssca2" && ratio < 1.2 {
			t.Errorf("ssca2: WT/NP = %v, expected saturation overhead", ratio)
		}
	}
	if !strings.Contains(r.Table().Render(), "gmean") {
		t.Error("writethrough table malformed")
	}
}

func TestRunAblations(t *testing.T) {
	r, err := RunAblations(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables()) != 4 {
		t.Fatalf("ablation tables = %d, want 4", len(r.Tables()))
	}
	// More IDT registers can only reduce fallbacks.
	if r.DepRegFallbacks[16] > r.DepRegFallbacks[1] {
		t.Errorf("fallbacks grew with more registers: %v", r.DepRegFallbacks)
	}
	// Serializing all flushes through one arbiter must not beat the
	// paper's per-core arbiters.
	if r.GlobalArbiter > r.PerCoreArbiter*1.05 {
		t.Errorf("global arbiter %.3f outperformed per-core %.3f", r.GlobalArbiter, r.PerCoreArbiter)
	}
}

func TestRunFig7BankOrdering(t *testing.T) {
	r, err := RunFig7()
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
