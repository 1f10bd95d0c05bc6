package persistbarriers

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"persistbarriers/internal/harness"
	"persistbarriers/internal/machine"
	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden")

const ledgerGolden = "testdata/ledger.golden"

// ledgerRow is one line of the ledger: a name, the op count the per-op
// ratios divide by, the machine's counters at the end of the run, and the
// row's own exact columns.
type ledgerRow struct {
	name  string
	ops   int
	c     machine.Counters
	extra string
}

// String renders the row: every machine.Families sample as an exact
// count, the row's own columns, then cycles, epochs persisted, persisted
// lines and stall cycles per op.
func (r ledgerRow) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s ops=%d cycle=%d", r.name, r.ops, r.c.Cycle)
	var stalls uint64
	for _, f := range machine.Families {
		for _, s := range f.Samples(&r.c) {
			name := f.Name
			if s.Label != "" {
				name += "_" + s.Label
			}
			fmt.Fprintf(&b, " %s=%d", name, s.Value)
			if f.Name == "stall_cycles" {
				stalls += s.Value
			}
		}
	}
	b.WriteString(r.extra)
	per := func(name string, v uint64) { fmt.Fprintf(&b, " %s/op=%.6f", name, float64(v)/float64(r.ops)) }
	per("cycles", uint64(r.c.Cycle))
	per("epochs", r.c.Epochs.Persisted)
	per("persists", r.c.PersistedLines)
	per("stall_cycles", stalls)
	b.WriteByte('\n')
	return b.String()
}

// simRows runs the two simulator rows at harness.Quick size: the queue
// micro-benchmark under LB++ on BEP, and ssca2 under bulk BSP with undo
// logging. mut, when not nil, edits each machine before it is built.
func simRows(mut func(*machine.Config)) ([]ledgerRow, error) {
	q := harness.Quick()
	var out []ledgerRow
	for _, bulk := range []bool{false, true} {
		cfg := machine.DefaultConfig()
		cfg.Cores = q.Threads
		if err := cfg.SetBarrier("LB++"); err != nil {
			return nil, err
		}
		spec := workload.Spec{Threads: q.Threads, OpsPerThread: q.MicroOps, Seed: q.Seed}
		name, gen := "sim queue LB++ bep", workload.Microbenchmarks()["queue"]
		if bulk {
			cfg.BulkEpochStores = q.BulkEpoch
			cfg.Logging = true
			spec.OpsPerThread = q.AppOps
			name, gen = "sim ssca2 LB++ bsp+log", workload.Apps()["ssca2"].Generate
		}
		if mut != nil {
			mut(&cfg)
		}
		prog, err := gen(spec)
		if err != nil {
			return nil, err
		}
		m, err := machine.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := m.Load(prog); err != nil {
			return nil, err
		}
		r, err := m.Run()
		if err != nil {
			return nil, err
		}
		if !r.Finished {
			return nil, fmt.Errorf("%s did not finish", name)
		}
		out = append(out, ledgerRow{
			name:  name,
			ops:   prog.Ops(),
			c:     m.Counters(),
			extra: fmt.Sprintf(" exec_cycles=%d drain_cycles=%d", r.ExecCycles, r.DrainCycles),
		})
	}
	return out, nil
}

// genScript is the seeded load internal/pmkv's crash tests generate,
// drawn the same way: rounds batches of one op per session, each on one of
// keys keys, a Put of 1 to 192 random bytes, a Get or a Delete by putPct
// and getPct percent. The engine rows' fingerprints pin every op.
func genScript(sessions, rounds, keys, putPct, getPct int, seed uint64) pmkv.Script {
	rng := trace.NewRand(seed)
	script := make(pmkv.Script, rounds)
	for r := range script {
		for s := range sessions {
			op := pmkv.ScriptedOp{Sess: s, Key: fmt.Sprintf("k%03d", rng.Intn(keys))}
			switch roll := rng.Intn(100); {
			case roll < putPct:
				op.Op, op.Value = pmkv.Put, make([]byte, 1+rng.Intn(192))
				for i := range op.Value {
					op.Value[i] = byte(rng.Uint64())
				}
			case roll < putPct+getPct:
				op.Op = pmkv.Get
			default:
				op.Op = pmkv.Delete
			}
			script[r] = append(script[r], op)
		}
	}
	return script
}

// engineCrashScript has engine-crash's shape: 4 sessions, rounds of 64
// ops, a 30/60/10 get/put/del mix and 72 000 ops. genScript issues one op
// per session per round, so every 16 of its rounds make one.
func engineCrashScript() pmkv.Script {
	const sessions, round, ops = 4, 64, 72_000
	gen := genScript(sessions, ops/sessions, 4096, 60, 30, 1)
	script := make(pmkv.Script, 0, ops/round)
	for i := 0; i < len(gen); i += round / sessions {
		var batch []pmkv.ScriptedOp
		for _, r := range gen[i : i+round/sessions] {
			batch = append(batch, r...)
		}
		script = append(script, batch)
	}
	return script
}

// engineRow runs script on one shard through the worker's own driver
// (pmkv.RunShardedScript), losing power at crashAt when it is nonzero. Its
// clock before the closing drain, closed_at, is split into the cycles the
// worker's Pump and Gap steps ran.
func engineRow(name string, script pmkv.Script, crashAt sim.Cycle) (ledgerRow, error) {
	res, err := pmkv.RunShardedScript(pmkv.ShardedConfig{Shards: 1, Engine: pmkv.Config{CrashAt: crashAt}}, script)
	if err != nil {
		return ledgerRow{}, err
	}
	r, rep := res[0], res[0].Report
	ops := 0
	for _, batch := range script {
		ops += len(batch)
	}
	return ledgerRow{
		name: name,
		ops:  ops,
		c:    r.Stats.Counters,
		extra: fmt.Sprintf(" crashed=%v closed_at=%d pump_cycles=%d gap_cycles=%d retained=%d folded=%d graph_epochs=%d durable=%d publishes=%d keys=%d fp=%s",
			r.Crashed, r.Cycles, r.SimCycles.Pump, r.SimCycles.Gap, r.Stats.Retained, r.Stats.Folded, rep.Epochs,
			rep.DurablePublishes, rep.TotalPublishes, rep.RecoveredKeys, rep.Fingerprint),
	}, nil
}

// ledger renders every row: the simulator's, then the engine's on
// fpdump-long's script and on the engine-crash-shaped one, clean and
// crashed at nine tenths of the clean run's final clock.
func ledger() (string, error) {
	rows, err := simRows(nil)
	if err != nil {
		return "", err
	}
	long, err := engineRow("engine fpdump-long clean", genScript(8, 512, 256, 70, 15, 7), 0)
	if err != nil {
		return "", err
	}
	script := engineCrashScript()
	clean, err := engineRow("engine engine-crash clean", script, 0)
	if err != nil {
		return "", err
	}
	crashed, err := engineRow("engine engine-crash crashed", script, clean.c.Cycle*9/10)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, r := range append(rows, long, clean, crashed) {
		b.WriteString(r.String())
	}
	return b.String(), nil
}

// TestLedger is ROADMAP item 20's ledger: the deterministic quantities of
// the simulator and of the pmkv engine, as exact counts and per-op ratios,
// held to testdata/ledger.golden. A change that moves a simulated event
// moves a row; -update rewrites the golden, and its diff is the change's
// ledger entry.
func TestLedger(t *testing.T) {
	got, err := ledger()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ledger:\n%s", got)
	if *updateLedger {
		if err := os.WriteFile(ledgerGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("ledger moved (go test -run TestLedger -update . rewrites it):\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestLedgerCatchesAChange shows the golden can fail: with two in-flight
// epochs per core instead of eight (a value the ablations run), the
// simulator rows no longer match it.
func TestLedgerCatchesAChange(t *testing.T) {
	want, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := simRows(func(c *machine.Config) { c.Epoch.MaxInFlight = 2 })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if bytes.Contains(want, []byte(r.String())) {
			t.Errorf("MaxInFlight 2 left the golden's row unmoved: %s", r)
		}
	}
}
