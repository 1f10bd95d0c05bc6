package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// `benchmark compare A.json B.json` puts two results files side by side:
// one row per (metric, workload) with both values, the bound, and a
// verdict. A is the parent, B the change.
//
//	same        B is within the bound of A
//	better      B beats A by more than the bound and by more than either
//	            run's own window-to-window spread
//	worse       B trails A by more than the bound and that spread
//	unresolved  the gap exceeds the bound but not the spread, or the spread
//	            alone exceeds the bound: these two runs cannot tell
//
// On the deterministic workloads, at equal seeds, the simulated metrics
// repeat exactly, so their bound is 0 there: any change for the worse is
// "worse". Fingerprints of those workloads are compared too, as "same" or
// "differs"; a difference alone is reported, not failed, because a change
// to the model may change them without regressing a metric — a change to
// the simulator's speed may not, and its issue says which it is.
//
// It exits non-zero on any "worse".

type verdict string

const (
	vSame       verdict = "same"
	vBetter     verdict = "better"
	vWorse      verdict = "worse"
	vUnresolved verdict = "unresolved"
	vDiffers    verdict = "differs"
)

// judge decides one end-to-end row. worse is the signed relative change
// in the harmful direction; noise the larger of the two runs' spreads.
func judge(def metricDef, a, b, noise float64) (verdict, float64) {
	if a == 0 {
		if b == 0 {
			return vSame, 0
		}
		return vUnresolved, math.Inf(1)
	}
	worse := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case math.Abs(worse) <= def.Bound:
		if noise > def.Bound {
			return vUnresolved, worse
		}
		return vSame, worse
	case math.Abs(worse) <= noise:
		return vUnresolved, worse
	case worse > 0:
		return vWorse, worse
	default:
		return vBetter, worse
	}
}

func loadResults(path string) (*resultsFile, error) {
	var rf resultsFile
	if err := readJSON(path, &rf); err != nil {
		return nil, err
	}
	if len(rf.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (is it a results file?)", path)
	}
	return &rf, nil
}

// compareResults writes the table and returns the number of worse rows.
func compareResults(w io.Writer, a, b *resultsFile) int {
	worseRows := 0
	fmt.Fprintf(w, "%-13s %-30s %14s %14s %8s %8s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wl := range workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-13s missing from one side\n", wl.Name)
			worseRows++
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-13s %-30s %14v %14v %8s %8s  %s\n", wl.Name, "correct", ra.Correct, rb.Correct, "", "", vWorse)
			worseRows++
		}
		exact := wl.exact && a.Seed == b.Seed
		row := func(def metricDef, va, vb float64) {
			noise := math.Max(ra.Spreads[def.Name], rb.Spreads[def.Name])
			if exact && simulated[def.Name] {
				def.Bound, noise = 0, 0
			}
			v, change := judge(def, va, vb, noise)
			if v == vWorse {
				worseRows++
			}
			fmt.Fprintf(w, "%-13s %-30s %14.6g %14.6g %+7.1f%% %7.0f%%  %s\n", wl.Name, def.Name, va, vb, change*100, def.Bound*100, v)
		}
		for _, def := range endToEnd {
			row(def, ra.EndToEnd[def.Name].Value, rb.EndToEnd[def.Name].Value)
		}
		for _, def := range hostTime {
			row(def, ra.HostTime[def.Name].Value, rb.HostTime[def.Name].Value)
		}
		if exact {
			names := make([]string, 0, len(ra.Fingerprints))
			for name := range ra.Fingerprints {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				v := vSame
				if ra.Fingerprints[name] != rb.Fingerprints[name] {
					v = vDiffers
				}
				fmt.Fprintf(w, "%-13s %-30s %14.12s %14.12s %8s %8s  %s\n", wl.Name, "fingerprint."+name, ra.Fingerprints[name], rb.Fingerprints[name], "", "exact", v)
			}
		}
	}
	return worseRows
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil {
		var b *resultsFile
		if b, err = loadResults(args[1]); err == nil {
			if a.Seconds != b.Seconds || a.Smoke != b.Smoke {
				fmt.Fprintf(os.Stderr, "benchmark compare: the runs differ in length or size (%gs smoke=%v vs %gs smoke=%v); refusing\n",
					a.Seconds, a.Smoke, b.Seconds, b.Smoke)
				return 2
			}
			if n := compareResults(os.Stdout, a, b); n > 0 {
				fmt.Printf("%d row(s) worse\n", n)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}
