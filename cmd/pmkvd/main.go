// Command pmkvd serves the pmkv durable key-value engine over TCP. It is
// flag parsing, signal wiring and printing around internal/server, which
// documents the wire protocols, the drain and the report. With -shards N
// the keyspace is partitioned by a stable hash across N independent
// simulated machines, each owned by one worker goroutine running a
// group commit (what is queued, up to -maxbatch, is one commit window); a
// client's ack is released only when the shard's durable-prefix watermark
// covers its write.
//
// On SIGINT/SIGTERM the server drains, verifies every shard and prints
// the per-shard and combined report. With -crash-at N every shard loses
// power at cycle N of its own clock; clients in a crashing batch still
// get their responses (flagged "crashed":true) and the server drains the
// surviving shards and verifies every crash image.
//
// -selfcheck N runs the deterministic crash-injection sweep (N seeded
// crash instants under concurrent scripted load) without any networking
// and exits nonzero on the first invariant violation: each instant fans
// out to every shard (-shards 1 is the one-shard case of the same sweep)
// and the combined fingerprint is checked for deterministic recovery. CI
// uses it as the crash smoke test.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/server"
	"persistbarriers/internal/sim"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		shards   = flag.Int("shards", 1, "independent engine shards (1..256); keys route by stable hash")
		cores    = flag.Int("cores", 4, "simulated cores per shard (1..32); sessions map onto cores round-robin")
		buckets  = flag.Int("buckets", pmkv.DefaultBuckets, "hash-table buckets per shard")
		gap      = flag.Uint64("gap", 200, "simulated cycles between request batches")
		crashAt  = flag.Uint64("crash-at", 0, "simulated power loss at this cycle of each shard's clock (0 = never)")
		mailbox  = flag.Int("mailbox", 256, "per-shard request queue depth")
		maxbatch = flag.Int("maxbatch", 64, "max requests per group commit")
		check    = flag.Bool("check", false, "run the online durable-linearizability checker; verdict printed at drain and after every selfcheck instant")

		window      = flag.Int("window", 128, "binary protocol: max in-flight requests per connection (1..4096)")
		maxconns    = flag.Int("maxconns", 0, "max concurrent client connections (0 = unlimited)")
		connTimeout = flag.Duration("conn-timeout", 0, "per-connection read idle timeout (0 = none)")

		admin      = flag.String("admin", "", "admin HTTP address for /metrics, /statz, /debug/pprof (empty = off)")
		flightDump = flag.String("flight-dump", "", "write the flight-recorder dump here on crash/drain (empty = off)")

		selfcheck = flag.Int("selfcheck", 0, "run N crash-injection instants and exit (no server)")
	)
	flag.Parse()

	// Fail fast on nonsense before any machine is built.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pmkvd: "+format+"\n", args...)
		os.Exit(2)
	}
	within := func(name string, v, lo, hi int) {
		if v < lo || v > hi {
			fail("-%s must be in %d..%d, got %d", name, lo, hi, v)
		}
	}
	atLeast := func(name string, v, lo int) {
		if v < lo {
			fail("-%s must be >= %d, got %d", name, lo, v)
		}
	}
	within("shards", *shards, 1, pmkv.MaxShards)
	within("cores", *cores, 1, 32)
	atLeast("buckets", *buckets, 1)
	atLeast("mailbox", *mailbox, 1)
	atLeast("maxbatch", *maxbatch, 1)
	atLeast("selfcheck", *selfcheck, 0)
	within("window", *window, 1, 4096)
	atLeast("maxconns", *maxconns, 0)

	mcfg := pmkv.SmallMachine()
	mcfg.Cores = *cores
	cfg := pmkv.ShardedConfig{
		Shards: *shards,
		Engine: pmkv.Config{
			Machine:  mcfg,
			Buckets:  *buckets,
			BatchGap: sim.Cycle(*gap),
			CrashAt:  sim.Cycle(*crashAt),
			Check:    *check,
		},
		Mailbox:  *mailbox,
		MaxBatch: *maxbatch,
	}

	if *selfcheck > 0 {
		if err := runSelfcheck(cfg, *selfcheck); err != nil {
			fmt.Fprintln(os.Stderr, "pmkvd: selfcheck FAILED:", err)
			os.Exit(1)
		}
		return
	}
	opts := server.Options{
		Window:      *window,
		MaxConns:    *maxconns,
		ConnTimeout: *connTimeout,
		Tracing:     *admin != "",
		FlightPath:  *flightDump,
	}
	if err := serve(*addr, *admin, cfg, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pmkvd:", err)
		os.Exit(1)
	}
}

// serve runs one server from listen to printed report.
func serve(addr, adminAddr string, cfg pmkv.ShardedConfig, opts server.Options) error {
	s, err := server.New(cfg, opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if adminAddr != "" {
		adminLn, err := net.Listen("tcp", adminAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("admin listener: %w", err)
		}
		defer adminLn.Close()
		go http.Serve(adminLn, s.AdminHandler())
		fmt.Printf("pmkvd: admin endpoint on http://%s (/metrics /statz /debug/pprof)\n", adminLn.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "pmkvd: draining...")
		s.BeginDrain()
	}()

	fmt.Printf("pmkvd: serving on %s (%d shards, %d cores each, %s barrier, %d buckets)\n",
		ln.Addr(), cfg.Shards, cfg.Engine.Machine.Cores, cfg.Engine.Machine.BarrierName(), cfg.Engine.Buckets)
	serveErr := s.Serve(ln)
	rep, err := s.Close()
	if werr := rep.WriteText(os.Stdout); err == nil {
		err = werr
	}
	if err == nil {
		err = serveErr
	}
	return err
}

// runSelfcheck executes the crash-injection sweep: one clean run to size
// the cycle span, then n evenly spaced crash instants, each fanned out to
// every shard, fully verified (epoch order, prefix closure, KV atomicity,
// session order) and checked for a reproducible combined fingerprint.
func runSelfcheck(cfg pmkv.ShardedConfig, n int) error {
	script := pmkv.GenScript(pmkv.ScriptSpec{Sessions: 6, Rounds: 24, KeySpace: 16, Seed: 42})
	cfg.Engine.CrashAt = 0
	clean, err := pmkv.RunShardedScript(cfg, script)
	if err != nil {
		return fmt.Errorf("clean run: %w", err)
	}
	var span sim.Cycle
	publishes := 0
	verdicts := make([]*dlcheck.Verdict, len(clean))
	for i, r := range clean {
		span = max(span, r.Stats.Cycle)
		publishes += r.Report.TotalPublishes
		verdicts[i] = r.DL
	}
	fmt.Printf("clean run: %d shards, span %d cycles, %d publishes, combined fingerprint %.16s\n",
		len(clean), span, publishes, pmkv.CombineFingerprints(clean))
	if v := dlcheck.Merge(verdicts); v != nil {
		fmt.Printf("durable linearizability: %s\n", v)
	}
	crashed := 0
	for i, at := range pmkv.SweepInstants(span, n) {
		ccfg := cfg
		ccfg.Engine.CrashAt = at
		out, err := pmkv.RunShardedScript(ccfg, script)
		if err != nil {
			return fmt.Errorf("crash %d/%d at cycle %d: %w", i+1, n, at, err)
		}
		again, err := pmkv.RunShardedScript(ccfg, script)
		if err != nil {
			return fmt.Errorf("crash %d/%d at cycle %d (replay): %w", i+1, n, at, err)
		}
		if pmkv.CombineFingerprints(out) != pmkv.CombineFingerprints(again) {
			return fmt.Errorf("crash %d/%d at cycle %d: combined recovery not deterministic", i+1, n, at)
		}
		for _, r := range out {
			if r.Crashed {
				crashed++
				break
			}
		}
	}
	if cfg.Engine.Check {
		fmt.Printf("durable linearizability: OK across %d crash instants\n", n)
	}
	fmt.Printf("selfcheck OK: %d shards x %d instants (%d mid-run crashes), all invariants held, recovery deterministic\n",
		cfg.Shards, n, crashed)
	return nil
}
