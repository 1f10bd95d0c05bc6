// Command fpdump prints the recovered-state fingerprint of every crash
// instant of two scripted pmkv sweeps — the byte-identity baseline used to
// prove optimizations changed speed, not semantics. The first section (one
// op per core per round) is pinned in ../testdata/fpdump.golden, the
// second (four ops per core per round, so publishes share epochs with the
// next Put's entries) in ../testdata/fpdump-merged.golden; TestFpdumpGolden
// regenerates both through the same dump function.
package main

import (
	"fmt"
	"io"
	"os"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/sim"
)

// Both sections run on the 4-core SmallMachine: with 4 sessions every
// commit window holds one op per core, with 16 it holds four, so only the
// second crosses epochs merged by the per-core owed barrier.
var (
	specSingle = pmkv.ScriptSpec{Sessions: 4, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}
	specMerged = pmkv.ScriptSpec{Sessions: 16, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}
)

// dump writes the clean-drain line and one line per crash instant: 200
// instants spread over the clean run, each on a fresh single-shard store.
func dump(w io.Writer, spec pmkv.ScriptSpec) error {
	run := func(at sim.Cycle) (*pmkv.RunResult, error) {
		out, err := pmkv.RunShardedScript(pmkv.ShardedConfig{Shards: 1, Engine: pmkv.Config{CrashAt: at}}, spec)
		if err != nil {
			return nil, err
		}
		return out.PerShard[0], nil
	}
	clean, err := run(0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "clean cycles=%d fp=%s\n", clean.Cycles, clean.Report.Fingerprint)
	for _, at := range pmkv.SweepInstants(clean.Cycles, 200) {
		out, err := run(at)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "at=%d crashed=%v cycles=%d fp=%s\n", at, out.Crashed, out.Cycles, out.Report.Fingerprint)
	}
	return nil
}

func main() {
	for _, spec := range []pmkv.ScriptSpec{specSingle, specMerged} {
		if err := dump(os.Stdout, spec); err != nil {
			fmt.Fprintln(os.Stderr, "fpdump:", err)
			os.Exit(1)
		}
	}
}
