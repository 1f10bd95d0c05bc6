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
// Every artifact but the two parameter tables is a sweep of independent
// simulations, the Figure 1, 4 and 7 kernels included; -j sets the
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
	"slices"
	"strings"
	"sync"

	"persistbarriers/internal/harness"
	"persistbarriers/internal/profiling"
	"persistbarriers/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "use the scaled-down quick option set")
	threads := flag.Int("threads", 0, "override thread/core count (1..32)")
	seed := flag.Uint64("seed", harness.Defaults().Seed, "workload seed")
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
	opt.Seed = *seed
	opt.Parallelism = *parallel
	opt.VerifyDeterminism = *verifyDet

	name := flag.Arg(0)
	names := []string{name}
	if name == "all" {
		names = names[:0]
		for _, a := range artifacts {
			names = append(names, a.name)
		}
	} else if !slices.ContainsFunc(artifacts, func(a artifact) bool { return a.name == name }) {
		fmt.Fprintf(os.Stderr, "figures: unknown artifact %q (choose from: %s)\n",
			name, strings.Join(artifactNames(), " "))
		profiling.Exit(2)
	}

	var docs []artifactDoc
	bep := sync.OnceValues(func() (*harness.Grid, error) { return harness.RunBEP(opt) })
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

// artifactDoc is one artifact's output: its tables in machine-readable
// form plus any free-text notes printed after them in text mode.
type artifactDoc struct {
	Artifact string            `json:"artifact"`
	Tables   []stats.TableData `json:"tables"`
	Notes    []string          `json:"notes,omitempty"`
}

// artifact is one table or figure and the function that computes its
// tables and notes.
type artifact struct {
	name string
	run  runFunc
}

// runFunc computes an artifact. bep is the grid of runs fig11, fig12 and
// conflictkinds all render, simulated once, by whichever of them comes
// first.
type runFunc func(opt harness.Options, bep func() (*harness.Grid, error)) (tables []*stats.Table, notes []string, err error)

// artifacts lists every artifact in the order "all" runs them.
var artifacts = []artifact{
	{"table1", fixed(harness.Table1)},
	{"table2", fixed(harness.Table2)},
	{"fig1", table(harness.RunFig1, (*harness.Fig1Result).Table)},
	{"fig4", table(harness.RunFig4, (*harness.Fig4Result).Table)},
	{"fig7", table(harness.RunFig7, (*harness.Fig7Result).Table)},
	{"fig11", bepTable(harness.Fig11Table)},
	{"fig12", bepTable(harness.Fig12Table)},
	{"fig13", table(harness.RunFig13, harness.Fig13Table)},
	{"fig14", func(opt harness.Options, _ func() (*harness.Grid, error)) ([]*stats.Table, []string, error) {
		r, err := harness.RunFig14(opt)
		if err != nil {
			return nil, nil, err
		}
		return []*stats.Table{r.Fig14Table()}, []string{fmt.Sprintf(
			"inter-thread share of conflicts under LB: %.0f%% (paper: ~86%%)",
			100*r.InterConflictShare("LB"))}, nil
	}},
	{"flushmode", table(harness.RunFlushMode, harness.FlushModeTable)},
	{"writethrough", table(harness.RunWriteThrough, harness.WriteThroughTable)},
	{"conflictkinds", bepTable(harness.ConflictKindsTable)},
	{"ablations", func(opt harness.Options, _ func() (*harness.Grid, error)) ([]*stats.Table, []string, error) {
		g, err := harness.RunAblations(opt)
		if err != nil {
			return nil, nil, err
		}
		return harness.AblationTables(g), nil, nil
	}},
}

// fixed is an artifact that runs nothing: one table of parameters.
func fixed(render func() *stats.Table) runFunc {
	return func(harness.Options, func() (*harness.Grid, error)) ([]*stats.Table, []string, error) {
		return []*stats.Table{render()}, nil, nil
	}
}

// table is an artifact that renders one table from its own run.
func table[R any](run func(harness.Options) (R, error), render func(R) *stats.Table) runFunc {
	return func(opt harness.Options, _ func() (*harness.Grid, error)) ([]*stats.Table, []string, error) {
		r, err := run(opt)
		if err != nil {
			return nil, nil, err
		}
		return []*stats.Table{render(r)}, nil, nil
	}
}

// bepTable is an artifact that renders one view of the shared BEP grid.
func bepTable(render func(*harness.Grid) *stats.Table) runFunc {
	return func(_ harness.Options, bep func() (*harness.Grid, error)) ([]*stats.Table, []string, error) {
		g, err := bep()
		if err != nil {
			return nil, nil, err
		}
		return []*stats.Table{render(g)}, nil, nil
	}
}

// artifactNames is what figures accepts: every artifact, then "all".
func artifactNames() []string {
	names := make([]string, 0, len(artifacts)+1)
	for _, a := range artifacts {
		names = append(names, a.name)
	}
	return append(names, "all")
}

// runArtifact computes one artifact and returns its tables and notes.
func runArtifact(name string, opt harness.Options, bep func() (*harness.Grid, error)) (artifactDoc, error) {
	doc := artifactDoc{Artifact: name}
	i := slices.IndexFunc(artifacts, func(a artifact) bool { return a.name == name })
	if i < 0 {
		return doc, fmt.Errorf("unknown artifact %q", name)
	}
	ts, notes, err := artifacts[i].run(opt, bep)
	for _, t := range ts {
		doc.Tables = append(doc.Tables, t.Data())
	}
	doc.Notes = notes
	return doc, err
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
