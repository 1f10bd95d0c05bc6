// Command pmkvd serves the pmkv durable key-value engine over TCP. It is
// flag parsing, signal wiring and printing around internal/server, which
// documents the wire protocol, the drain and the report. With -shards N
// the keyspace is partitioned by a stable hash across N independent
// simulated machines, each owned by one worker goroutine running a
// group commit (what is queued, up to 64 requests, is one commit window);
// a client's ack is released only when the shard's durable-prefix watermark
// covers its write.
//
// On SIGINT/SIGTERM the server drains, verifies every shard and prints
// the per-shard and combined report. With -crash-at N every shard loses
// power at cycle N of its own clock; clients in a crashing batch still
// get their responses (flagged crashed) and the server drains the
// surviving shards and verifies every crash image.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/server"
	"persistbarriers/internal/sim"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7070", "listen address")
		shards  = flag.Int("shards", 1, "independent engine shards (1..256); keys route by stable hash")
		cores   = flag.Int("cores", 4, "simulated cores per shard (1..32); sessions map onto cores round-robin")
		buckets = flag.Int("buckets", pmkv.DefaultBuckets, "volatile-index buckets per shard (one probed line each; nothing persists there)")
		crashAt = flag.Uint64("crash-at", 0, "simulated power loss at this cycle of each shard's clock (0 = never)")
		check   = flag.Bool("check", false, "run the online durable-linearizability checker; verdict printed at drain")

		window      = flag.Int("window", 128, "max in-flight requests per connection (1..4096)")
		maxconns    = flag.Int("maxconns", 0, "max concurrent client connections (0 = unlimited)")
		connTimeout = flag.Duration("conn-timeout", 0, "per-connection read idle timeout (0 = none)")

		admin      = flag.String("admin", "", "admin HTTP address for /metrics, /statz, /debug/pprof (empty = off)")
		flightDump = flag.String("flight-dump", "", "on crash/drain, write the flight recorder here as a Chrome trace (open in Perfetto; 1 us = 1 ns; empty = off)")
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
	within("buckets", *buckets, 1, pmkv.MaxBuckets)
	within("window", *window, 1, 4096)
	atLeast("maxconns", *maxconns, 0)
	if *connTimeout < 0 {
		fail("-conn-timeout must be >= 0, got %v", *connTimeout)
	}

	mcfg := pmkv.SmallMachine()
	mcfg.Cores = *cores
	cfg := pmkv.ShardedConfig{
		Shards: *shards,
		Engine: pmkv.Config{
			Machine: mcfg,
			Buckets: *buckets,
			CrashAt: sim.Cycle(*crashAt),
			Check:   *check,
		},
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
