package pmkv_test

import (
	"testing"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/pmkv/fuzz"
	"persistbarriers/internal/sim"
)

// TestOracleAgreesOnFuzzCorpus: on every committed FuzzDurableLinearizability
// case, at the clean drain and at the case's own crash instant, the
// client-history oracle reaches the verdict the engine's checkers (Verify
// and dlcheck) reach.
func TestOracleAgreesOnFuzzCorpus(t *testing.T) {
	for name, data := range fuzzCorpus(t) {
		c := fuzz.CaseFromBytes(data)
		run := func(at sim.Cycle) sim.Cycle {
			out, err := pmkv.RunShardedScript(pmkv.ShardedConfig{Shards: c.Shards, Engine: pmkv.Config{CrashAt: at, Check: true}}, pmkv.GenScript(c.Spec()))
			oerr := pmkv.OracleCheck(out)
			if (err == nil) != (oerr == nil) || err != nil {
				t.Errorf("%s, crash at %d: checkers %v, oracle %v", name, at, err, oerr)
			}
			var cycles sim.Cycle
			for _, r := range out {
				cycles = max(cycles, r.Stats.Cycle)
			}
			return cycles
		}
		if cycles := run(0); c.Frac != 0 {
			run(max(1, cycles*sim.Cycle(c.Frac)/256))
		}
	}
}
