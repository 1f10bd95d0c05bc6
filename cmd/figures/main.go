// Command figures regenerates every table and figure of the paper's
// evaluation (Section 7) on the simulated machine. Each subcommand maps to
// one artifact; "all" runs the complete set. See EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Usage:
//
//	figures [-quick] [-threads N] [-seed S] [-json] [-j N] [-verify-determinism] <artifact>
//
// Artifacts: table1 table2 fig1 fig4 fig11 fig12 fig13 fig14 flushmode
// writethrough conflictkinds ablations all
//
// Every artifact is a sweep of independent simulations; -j sets the
// worker-pool parallelism (default GOMAXPROCS) and -verify-determinism
// re-executes every run serially and fails on any divergence from the
// pooled run. Output is byte-identical at every -j setting. fig11, fig12
// and conflictkinds are three views of one grid of runs, which "all"
// simulates once.
//
// With -json, each artifact is emitted as a machine-readable document
// {"artifact", "tables", "notes"} instead of ASCII tables; "all" emits a
// JSON array of those documents.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"persistbarriers/internal/harness"
	"persistbarriers/internal/profiling"
	"persistbarriers/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "use the scaled-down quick option set")
	threads := flag.Int("threads", 0, "override thread/core count (1..32)")
	seed := flag.Uint64("seed", 0, "override workload seed")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of ASCII tables")
	parallel := flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulations per sweep (worker-pool size)")
	verifyDet := flag.Bool("verify-determinism", false, "run every sweep job twice (parallel + serial) and fail on divergence")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (pprof) to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: figures [flags] <artifact>\nartifacts: %s\n",
			strings.Join(artifactNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		profiling.Exit(2)
	}
	if err := profiling.Start(*cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		profiling.Exit(1)
	}
	defer profiling.Stop()
	// Reject bad inputs before any sweep spins up workers.
	if *threads < 0 || *threads > 32 {
		fmt.Fprintf(os.Stderr, "figures: -threads must be in 1..32 (or 0 for the option set's default), got %d\n", *threads)
		profiling.Exit(2)
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "figures: -j must be >= 1, got %d\n", *parallel)
		profiling.Exit(2)
	}

	opt := harness.Defaults()
	if *quick {
		opt = harness.Quick()
	}
	if *threads > 0 {
		opt.Threads = *threads
	}
	if *seed != 0 {
		opt.Seed = *seed
	}
	opt.Parallelism = *parallel
	opt.VerifyDeterminism = *verifyDet

	name := flag.Arg(0)
	known := false
	for _, a := range artifactNames() {
		if a == name {
			known = true
			break
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "figures: unknown artifact %q (choose from: %s)\n",
			name, strings.Join(artifactNames(), " "))
		profiling.Exit(2)
	}
	names := []string{name}
	if name == "all" {
		names = names[:0]
		for _, a := range artifactNames() {
			if a != "all" {
				names = append(names, a)
			}
		}
	}

	var docs []artifactDoc
	bep := sync.OnceValues(func() (*harness.BEPResults, error) { return harness.RunBEP(opt) })
	for _, a := range names {
		doc, err := runArtifact(a, opt, bep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", a, err)
			profiling.Exit(1)
		}
		if *jsonOut {
			docs = append(docs, doc)
			continue
		}
		for _, t := range doc.Tables {
			fmt.Println(renderData(t))
		}
		for _, n := range doc.Notes {
			fmt.Println(n)
			fmt.Println()
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		var err error
		if name == "all" {
			err = enc.Encode(docs)
		} else {
			err = enc.Encode(docs[0])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			profiling.Exit(1)
		}
	}
}

func artifactNames() []string {
	return []string{
		"table1", "table2", "fig1", "fig4", "fig7",
		"fig11", "fig12", "fig13", "fig14",
		"flushmode", "writethrough", "conflictkinds", "ablations", "all",
	}
}

// artifactDoc is one artifact's output: its tables in machine-readable
// form plus any free-text notes printed after them in text mode.
type artifactDoc struct {
	Artifact string            `json:"artifact"`
	Tables   []stats.TableData `json:"tables"`
	Notes    []string          `json:"notes,omitempty"`
}

// runArtifact computes one artifact and returns its tables and notes.
// bep is the grid of runs fig11, fig12 and conflictkinds all render,
// simulated once, by whichever of them comes first.
func runArtifact(name string, opt harness.Options, bep func() (*harness.BEPResults, error)) (artifactDoc, error) {
	doc := artifactDoc{Artifact: name}
	add := func(ts ...*stats.Table) {
		for _, t := range ts {
			doc.Tables = append(doc.Tables, t.Data())
		}
	}
	switch name {
	case "table1":
		add(harness.Table1())
	case "table2":
		add(harness.Table2())
	case "fig1":
		r, err := harness.RunFig1()
		if err != nil {
			return doc, err
		}
		add(r.Table())
	case "fig4":
		r, err := harness.RunFig4()
		if err != nil {
			return doc, err
		}
		add(r.Table())
	case "fig7":
		r, err := harness.RunFig7()
		if err != nil {
			return doc, err
		}
		add(r.Table())
	case "fig11", "fig12", "conflictkinds":
		r, err := bep()
		if err != nil {
			return doc, err
		}
		switch name {
		case "fig11":
			add(r.Fig11Table())
		case "fig12":
			add(r.Fig12Table())
		default:
			add(r.ConflictKindsTable())
		}
	case "fig13":
		r, err := harness.RunFig13(opt)
		if err != nil {
			return doc, err
		}
		add(r.Fig13Table())
	case "fig14":
		r, err := harness.RunFig14(opt)
		if err != nil {
			return doc, err
		}
		add(r.Fig14Table())
		doc.Notes = append(doc.Notes, fmt.Sprintf(
			"inter-thread share of conflicts under LB: %.0f%% (paper: ~86%%)",
			100*r.InterConflictShare("LB")))
	case "flushmode":
		r, err := harness.RunFlushMode(opt)
		if err != nil {
			return doc, err
		}
		add(r.Table())
	case "writethrough":
		r, err := harness.RunWriteThrough(opt)
		if err != nil {
			return doc, err
		}
		add(r.Table())
	case "ablations":
		r, err := harness.RunAblations(opt)
		if err != nil {
			return doc, err
		}
		add(r.Tables()...)
	default:
		return doc, fmt.Errorf("unknown artifact %q", name)
	}
	return doc, nil
}

// renderData round-trips a TableData through the ASCII renderer so text
// mode keeps its original output format.
func renderData(d stats.TableData) string {
	t := stats.NewTable(d.Title, d.Headers...)
	for _, r := range d.Rows {
		t.AddRow(r...)
	}
	return t.Render()
}
