// Command fpdump prints the recovered-state fingerprint of every crash
// instant of three scripted pmkv sweeps — the byte-identity baseline used to
// prove optimizations changed speed, not semantics. The first section (one
// op per core per round) is pinned in ../testdata/fpdump.golden, the
// second (four ops per core per round, so publishes share epochs with the
// next Put's entries) in ../testdata/fpdump-merged.golden, and the third
// (4 096 ops over 256 keys, so most publishes are superseded long after
// they became durable, with every Report count printed beside the
// fingerprint) in ../testdata/fpdump-long.golden; TestFpdumpGolden
// regenerates all three through the same dump function.
package main

import (
	"fmt"
	"io"
	"os"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/sim"
)

// section is one sweep: a script, how many crash instants to spread over
// its clean run, and whether each line also carries the Report counts.
type section struct {
	golden   string
	spec     pmkv.ScriptSpec
	instants int
	counts   bool
}

// All sections run on the 4-core SmallMachine: with 4 sessions every
// commit window holds one op per core, with 16 it holds four, so only the
// second crosses epochs merged by the per-core owed barrier. The long
// section was captured while the engine still kept every record for the
// life of the run; it holds checkpoint-plus-tail recovery to the counts a
// full replay printed.
var sections = []section{
	{"../testdata/fpdump.golden", pmkv.ScriptSpec{Sessions: 4, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}, 200, false},
	{"../testdata/fpdump-merged.golden", pmkv.ScriptSpec{Sessions: 16, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}, 200, false},
	{"../testdata/fpdump-long.golden", pmkv.ScriptSpec{Sessions: 8, Rounds: 512, KeySpace: 256, ValueBytes: 192, Seed: 7}, 50, true},
}

// dump writes the clean-drain line and one line per crash instant, each
// run on a fresh single-shard store.
func dump(w io.Writer, s section) error {
	script := pmkv.GenScript(s.spec)
	run := func(at sim.Cycle) (pmkv.ShardResult, error) {
		out, err := pmkv.RunShardedScript(pmkv.ShardedConfig{Shards: 1, Engine: pmkv.Config{CrashAt: at}}, script)
		if err != nil {
			return pmkv.ShardResult{}, err
		}
		return out[0], nil
	}
	counts := func(r *pmkv.Report) string {
		if !s.counts {
			return ""
		}
		return fmt.Sprintf(" epochs=%d edges=%d durable=%d total=%d keys=%d",
			r.Epochs, r.PublishEdges, r.DurablePublishes, r.TotalPublishes, r.RecoveredKeys)
	}
	clean, err := run(0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "clean cycles=%d fp=%s%s\n", clean.Stats.Cycle, clean.Report.Fingerprint, counts(clean.Report))
	for _, at := range pmkv.SweepInstants(clean.Stats.Cycle, s.instants) {
		out, err := run(at)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "at=%d crashed=%v cycles=%d fp=%s%s\n", at, out.Crashed, out.Stats.Cycle, out.Report.Fingerprint, counts(out.Report))
	}
	return nil
}

func main() {
	for _, s := range sections {
		if err := dump(os.Stdout, s); err != nil {
			fmt.Fprintln(os.Stderr, "fpdump:", err)
			os.Exit(1)
		}
	}
}
