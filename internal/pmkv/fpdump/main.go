// Command fpdump prints the recovered-state fingerprint of every crash
// instant of a scripted pmkv sweep — the byte-identity baseline used to
// prove optimizations changed speed, not semantics. Its output is pinned
// in ../testdata/fpdump.golden; TestFpdumpGolden regenerates it through
// the same dump function.
package main

import (
	"fmt"
	"io"
	"os"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/sim"
)

// dump writes the clean-drain line and one line per crash instant: 200
// instants spread over the clean run, each on a fresh single-shard store.
func dump(w io.Writer) error {
	spec := pmkv.ScriptSpec{Sessions: 4, Rounds: 16, KeySpace: 24, ValueBytes: 192, Seed: 7}
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
	if err := dump(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fpdump:", err)
		os.Exit(1)
	}
}
