package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"testing"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
	"persistbarriers/internal/proto/client"
)

// benchServer starts an in-process server on loopback TCP for one
// benchmark run and hands back its address plus a drain func.
func benchServer(b *testing.B, shards int) (string, func()) {
	b.Helper()
	cfg := pmkv.ShardedConfig{
		Shards: shards,
		Engine: pmkv.Config{Machine: pmkv.SmallMachine(), Buckets: 64},
	}
	// Discard the drain report: its lines would interleave with the
	// benchmark result lines that benchstat and friends parse.
	s, err := newServer(cfg, serverOpts{window: 4096, out: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.run(ln) }()
	return ln.Addr().String(), func() {
		s.beginDrain()
		if err := <-done; err != nil {
			b.Fatalf("drain: %v", err)
		}
	}
}

// BenchmarkProtoPipeline measures live ops/sec through a loopback
// server: the JSON line protocol (one op in flight per connection, a
// write+read syscall pair each) against the pipelined binary protocol
// at several window depths. This is the transport bound the binary
// protocol exists to break.
func BenchmarkProtoPipeline(b *testing.B) {
	b.Run("json", func(b *testing.B) {
		addr, drain := benchServer(b, 2)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		br := bufio.NewReader(conn)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fmt.Fprintf(conn, "{\"op\":\"put\",\"key\":\"k%d\",\"value\":\"v\"}\n", i%64)
			if _, err := br.ReadBytes('\n'); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportOpsPerSec(b)
		conn.Close()
		drain()
	})
	for _, w := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("binary-w%d", w), func(b *testing.B) {
			addr, drain := benchServer(b, 2)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatal(err)
			}
			errs := 0
			c, err := client.New(conn, client.Options{
				Window: w,
				OnComplete: func(resp *proto.Response, _, _ int64) {
					if resp.Err != "" {
						errs++
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			keys := make([][]byte, 64)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("k%d", i))
			}
			val := []byte("v")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Put(uint64(i), keys[i%len(keys)], val); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Wait(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			reportOpsPerSec(b)
			if errs > 0 {
				b.Fatalf("%d ops errored", errs)
			}
			c.Close()
			drain()
		})
	}
}

func reportOpsPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}
