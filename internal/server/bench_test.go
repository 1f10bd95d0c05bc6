package server_test

import (
	"fmt"
	"testing"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
	"persistbarriers/internal/proto/client"
	"persistbarriers/internal/server"
)

// benchConfig is the 2-shard store BenchmarkProtoPipeline serves.
var benchConfig = pmkv.ShardedConfig{
	Shards: 2,
	Engine: pmkv.Config{Machine: pmkv.SmallMachine(), Buckets: 64},
}

// BenchmarkProtoPipeline measures live ops/sec through a loopback
// server at several window depths: binary-w1 keeps one op in flight per
// connection (a write+read syscall pair each), the deeper windows
// pipeline. That transport bound is what pipelining exists to break.
func BenchmarkProtoPipeline(b *testing.B) {
	for _, w := range []int{1, 16, 128, 1024} {
		b.Run(fmt.Sprintf("binary-w%d", w), func(b *testing.B) {
			ts := startTestServer(b, benchConfig, server.Options{Window: 4096})
			conn := ts.dial(b)
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
			ts.drain(b)
		})
	}
}

func reportOpsPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}
