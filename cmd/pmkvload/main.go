// Command pmkvload is a load generator for pmkvd: N concurrent
// connections drive a configurable read/write/delete mix over a skewed
// or uniform keyspace, closed-loop (each connection issues its next
// operation the moment a pipeline slot frees) or open-loop at a target
// aggregate rate. Because pmkvd acks mutations only when the owning
// shard's durable-prefix watermark covers them, the measured latency is
// durable-commit latency, not just visibility.
//
// Each connection speaks pmkvd's pipelined binary frames with -window
// requests in flight (-window 1 keeps one op in flight). Open-loop runs
// avoid coordinated omission by scheduling ops on a fixed cadence and
// measuring from the schedule: total latency = completion - scheduled,
// split into queueing delay (send - scheduled: time spent blocked behind
// the pipe or the window) and service time (completion - send: the
// server round trip).
//
// Output is a throughput line plus latency summaries (p50/p90/p99/p99.9
// from internal/hist microsecond histograms merged across connections —
// nearest-rank bucket upper bounds, at most 12.5 % above the sample —
// plus exact mean and max); -json emits the same numbers as one JSON
// object for scripts.
//
// The generator is deterministic per seed: connection i derives its rng
// from -seed and i, so two runs against the same server configuration
// issue the same operation streams.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"persistbarriers/internal/hist"
	"persistbarriers/internal/proto"
	"persistbarriers/internal/proto/client"
	"persistbarriers/internal/telemetry"
)

// dist is one latency distribution in microseconds: the shared
// histogram plus the exact maximum, which no bucket bound can give.
type dist struct {
	hist.Hist
	maxUS uint64
}

func (d *dist) record(us uint64) {
	d.maxUS = max(d.maxUS, us)
	d.Observe(us)
}

func (d *dist) merge(o *dist) {
	d.maxUS = max(d.maxUS, o.maxUS)
	d.Merge(&o.Hist)
}

// opDists bundles the three latency distributions for one op kind:
// total from the scheduled instant, svc from the socket send, queue the
// gap between the two (in closed loop an op is scheduled the moment it
// is submitted).
type opDists struct {
	ops   uint64
	total dist
	svc   dist
	queue dist
}

func (d *opDists) record(scheduledToDone, sendToDone, queued time.Duration) {
	d.ops++
	d.total.record(uint64(scheduledToDone.Microseconds()))
	d.svc.record(uint64(sendToDone.Microseconds()))
	d.queue.record(uint64(queued.Microseconds()))
}

func (d *opDists) merge(o *opDists) {
	d.ops += o.ops
	d.total.merge(&o.total)
	d.svc.merge(&o.svc)
	d.queue.merge(&o.queue)
}

// connStats is one connection's tally, merged after the run. Reads (gets)
// and writes (puts, deletes) keep separate distributions so the read fast
// path's effect is visible without a second run; the combined ones are
// their merge, taken at report time.
type connStats struct {
	gets     uint64
	puts     uint64
	dels     uint64
	found    uint64
	notFound uint64
	errors   uint64
	crashed  uint64
	draining uint64
	read     opDists
	write    opDists
}

func (c *connStats) record(scheduledToDone, sendToDone, queued time.Duration, isRead bool) {
	if isRead {
		c.read.record(scheduledToDone, sendToDone, queued)
	} else {
		c.write.record(scheduledToDone, sendToDone, queued)
	}
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "pmkvd address")
		conns    = flag.Int("conns", 8, "concurrent connections")
		duration = flag.Duration("duration", 5*time.Second, "run length")
		rate     = flag.Float64("rate", 0, "target aggregate ops/sec (0 = closed loop)")
		keys     = flag.Int("keys", 256, "distinct keys")
		zipf     = flag.Float64("zipf", 0, "key skew exponent (> 1 enables Zipf; 0 = uniform)")
		getFrac  = flag.Float64("get", 0.70, "fraction of operations that are gets")
		delFrac  = flag.Float64("del", 0.05, "fraction of operations that are deletes")
		valueLen = flag.Int("value", 64, "value bytes per put")
		seed     = flag.Int64("seed", 1, "workload seed")
		window   = flag.Int("window", 128, "in-flight requests per connection (1 = one op in flight)")
		jsonOut  = flag.Bool("json", false, "emit a JSON summary instead of text")
		admin    = flag.String("admin", "", "pmkvd admin address; scrape /statz after the run for the server-side stage breakdown")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pmkvload: "+format+"\n", args...)
		os.Exit(2)
	}
	if *conns < 1 {
		fail("-conns must be >= 1, got %d", *conns)
	}
	if *keys < 1 {
		fail("-keys must be >= 1, got %d", *keys)
	}
	// Written so that NaN fails every comparison and ±Inf the bounds.
	if *zipf != 0 && !(*zipf > 1 && *zipf <= math.MaxFloat64) {
		fail("-zipf must be a finite value > 1 (or 0 for uniform), got %g", *zipf)
	}
	if !(*getFrac >= 0 && *getFrac <= 1) {
		fail("-get must be in [0, 1], got %g", *getFrac)
	}
	if !(*delFrac >= 0 && *getFrac+*delFrac <= 1) {
		fail("-del must be in [0, 1] and leave -get + -del <= 1, got %g with -get %g", *delFrac, *getFrac)
	}
	if *valueLen < 1 || *valueLen > proto.MaxValue {
		fail("-value must be in 1..%d, got %d", proto.MaxValue, *valueLen)
	}
	if *window < 1 || *window > 4096 {
		fail("-window must be in 1..4096, got %d", *window)
	}
	if *duration <= 0 {
		fail("-duration must be > 0, got %v", *duration)
	}

	// Open-loop pacing: each connection runs at rate/conns ops/sec.
	var interval time.Duration
	if *rate != 0 {
		ns := float64(*conns) / *rate * float64(time.Second)
		if !(ns >= 1 && ns < 1<<63) { // NaN, ±Inf and negative rates fail too
			fail("-rate must be 0 (closed loop) or pace each of the %d connections at 1ns..%v per op, got %g ops/s", *conns, time.Duration(1<<63-1), *rate)
		}
		interval = time.Duration(ns)
	}

	deadline := time.Now().Add(*duration)
	stats := make([]connStats, *conns)
	var wg sync.WaitGroup
	var runErr error
	var runErrOnce sync.Once
	start := time.Now()
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := genConfig{
				keys: *keys, zipf: *zipf, getFrac: *getFrac, delFrac: *delFrac,
				valueLen: *valueLen, seed: *seed, window: *window,
			}
			if err := runConn(*addr, i, deadline, interval, g, &stats[i]); err != nil {
				runErrOnce.Do(func() { runErr = err })
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "pmkvload: %v\n", runErr)
		os.Exit(1)
	}

	var stages []telemetry.StageStats
	var shards []ServerShard
	if *admin != "" {
		var err error
		if stages, shards, err = scrapeStages(*admin); err != nil {
			fmt.Fprintf(os.Stderr, "pmkvload: admin scrape: %v\n", err)
		}
	}
	report(summarize(stats, elapsed, *conns, *window, stages, shards), *jsonOut)
}

// ServerShard is the per-shard commit-pipeline view scraped from /statz
// and carried into the -json summary: how the server actually batched
// this run's requests.
type ServerShard struct {
	Shard      int     `json:"shard"`
	QueueDepth int     `json:"queue_depth"`
	Batches    uint64  `json:"batches"`
	AvgBatch   float64 `json:"avg_batch"`
}

// scrapeStages pulls the pooled server-side stage breakdown and the
// per-shard pipeline counters from pmkvd's admin /statz endpoint,
// attributing the client-observed latency to pipeline segments measured
// inside the server.
func scrapeStages(admin string) ([]telemetry.StageStats, []ServerShard, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + admin + "/statz")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("/statz: %s", resp.Status)
	}
	var statz struct {
		Stages []telemetry.StageStats `json:"stages"`
		Shards []ServerShard          `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		return nil, nil, err
	}
	return statz.Stages, statz.Shards, nil
}

type genConfig struct {
	keys     int
	zipf     float64
	getFrac  float64
	delFrac  float64
	valueLen int
	seed     int64
	window   int
}

// sampler is the deterministic per-connection workload source.
type sampler struct {
	rng     *rand.Rand
	zipfGen *rand.Zipf
	g       genConfig
}

func newSampler(id int, g genConfig) *sampler {
	rng := rand.New(rand.NewSource(g.seed + int64(id)*1_000_003))
	s := &sampler{rng: rng, g: g}
	if g.zipf > 1 {
		s.zipfGen = rand.NewZipf(rng, g.zipf, 1, uint64(g.keys-1))
	}
	return s
}

func (s *sampler) key() int {
	if s.zipfGen != nil {
		return int(s.zipfGen.Uint64())
	}
	return s.rng.Intn(s.g.keys)
}

// op returns the next operation kind: 0 get, 1 put, 2 del.
func (s *sampler) op() int {
	switch p := s.rng.Float64(); {
	case p < s.g.getFrac:
		return 0
	case p < s.g.getFrac+s.g.delFrac:
		return 2
	default:
		return 1
	}
}

// keyName is the wire key of key index i.
func keyName(i int) string { return fmt.Sprintf("k%06d", i) }

// runConn drives one pipelined connection until the deadline, the server
// drains, or a crash-flagged response arrives: up to g.window requests
// in flight, completions handled out of order on the client's reader
// goroutine. Closed loop keeps the window full; open loop schedules
// frames on the cadence and lets the window absorb bursts, with time
// spent blocked on a full window showing up as queueing delay. A request
// the wire cannot carry is an error; a transport that dies mid-run is
// the drain racing the loader, so it ends the run cleanly.
func runConn(addr string, id int, deadline time.Time, interval time.Duration, g genConfig, st *connStats) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("conn %d: %w", id, err)
	}

	// opMeta carries what the completion handler can't recover from the
	// response alone: the scheduled instant (open loop) and whether the
	// op was a read (GET) for the per-kind latency split.
	type opMeta struct {
		schedNS int64
		read    bool
	}
	var (
		mu   sync.Mutex
		meta = make(map[uint64]opMeta, g.window)
		stop atomic.Bool
	)
	openLoop := interval > 0

	var c *client.Client
	c, err = client.New(conn, client.Options{
		Window: g.window,
		OnComplete: func(resp *proto.Response, submitNS, sendNS int64) {
			done := c.NowNS()
			mu.Lock()
			m := meta[resp.ID]
			delete(meta, resp.ID)
			mu.Unlock()
			schedNS := submitNS
			if openLoop {
				schedNS = m.schedNS
			}
			st.record(time.Duration(done-schedNS), time.Duration(done-sendNS), time.Duration(sendNS-schedNS), m.read)
			switch {
			case resp.Err != "":
				if strings.Contains(resp.Err, "draining") {
					st.draining++
					stop.Store(true)
					return
				}
				st.errors++
			case resp.Crashed:
				st.crashed++
				stop.Store(true)
			case resp.Results[0].Found:
				st.found++
			default:
				st.notFound++
			}
		},
	})
	if err != nil {
		conn.Close()
		return fmt.Errorf("conn %d: %w", id, err)
	}
	defer c.Close()

	smp := newSampler(id, g)
	value := bytes.Repeat([]byte{'v'}, g.valueLen)
	endNS := c.NowNS() + int64(time.Until(deadline))
	var nextNS int64
	id64 := uint64(0)

	for c.NowNS() < endNS && !stop.Load() {
		schedNS := c.NowNS()
		kind := smp.op()
		if openLoop {
			if d := nextNS - c.NowNS(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			schedNS = nextNS
			nextNS += int64(interval)
		}
		mu.Lock()
		meta[id64] = opMeta{schedNS: schedNS, read: kind == 0}
		mu.Unlock()
		var submitErr error
		key := []byte(keyName(smp.key()))
		switch kind {
		case 0:
			st.gets++
			submitErr = c.Get(id64, key)
		case 2:
			st.dels++
			submitErr = c.Del(id64, key)
		default:
			st.puts++
			submitErr = c.Put(id64, key, value)
		}
		if errors.Is(submitErr, proto.ErrLimits) {
			return fmt.Errorf("conn %d: %w", id, submitErr)
		}
		if submitErr != nil {
			return nil // transport died mid-run: the drain races us
		}
		id64++
		if openLoop && nextNS-c.NowNS() > 0 {
			// Ahead of schedule with nothing else due: push the frame out
			// now rather than letting it sit in the write buffer.
			if err := c.Flush(); err != nil {
				return nil
			}
		}
	}
	c.Wait()
	return nil
}

// summarySchemaVersion identifies the -json layout. Adding fields is
// backward compatible; bump this when a field is renamed, removed, or
// changes meaning. TestSummarySchemaLocked pins the current set.
//
// v3: mean/p*/max now measure from each op's *scheduled* instant
// (coordinated-omission-corrected in open-loop runs; unchanged closed
// loop), split into svc_* (send -> completion) and queue_* (scheduled ->
// send); adds proto and window.
//
// v4: adds read/write objects splitting every latency distribution by op
// kind (gets vs puts+deletes), so the read fast path's effect shows
// without a second filtered run. The flat combined fields are unchanged.
// (Percentile values have since become finer — bucket bounds at most
// 12.5 % above the sample rather than the next power of two — with no
// field added, renamed or removed.)
//
// v5: server_shards[] loses its batch-limit field with the server's
// adaptive limit; a batch is bounded by its fixed 64-request cap alone.
//
// v6: drops proto with the JSON line protocol; every run speaks the
// binary frames, and window is what each connection kept in flight.
const summarySchemaVersion = 6

// KindSummary is one op kind's slice of the latency numbers (read =
// gets; write = puts and deletes).
type KindSummary struct {
	Ops         uint64 `json:"ops"`
	MeanUS      uint64 `json:"mean_us"`
	P50US       uint64 `json:"p50_us"`
	P90US       uint64 `json:"p90_us"`
	P99US       uint64 `json:"p99_us"`
	P999US      uint64 `json:"p999_us"`
	MaxUS       uint64 `json:"max_us"`
	SvcMeanUS   uint64 `json:"svc_mean_us"`
	SvcP50US    uint64 `json:"svc_p50_us"`
	SvcP99US    uint64 `json:"svc_p99_us"`
	SvcMaxUS    uint64 `json:"svc_max_us"`
	QueueMeanUS uint64 `json:"queue_mean_us"`
	QueueP50US  uint64 `json:"queue_p50_us"`
	QueueP99US  uint64 `json:"queue_p99_us"`
	QueueMaxUS  uint64 `json:"queue_max_us"`
}

// kindSummary folds one op kind's distributions into its summary slice.
func kindSummary(d *opDists) KindSummary {
	mean, p50, p90, p99, p999 := distSummary(&d.total)
	svcMean, svcP50, _, svcP99, _ := distSummary(&d.svc)
	qMean, qP50, _, qP99, _ := distSummary(&d.queue)
	return KindSummary{
		Ops:         d.ops,
		MeanUS:      mean,
		P50US:       p50,
		P90US:       p90,
		P99US:       p99,
		P999US:      p999,
		MaxUS:       d.total.maxUS,
		SvcMeanUS:   svcMean,
		SvcP50US:    svcP50,
		SvcP99US:    svcP99,
		SvcMaxUS:    d.svc.maxUS,
		QueueMeanUS: qMean,
		QueueP50US:  qP50,
		QueueP99US:  qP99,
		QueueMaxUS:  d.queue.maxUS,
	}
}

// Summary is the -json output: the client-side tallies plus, when -admin
// was given, the server-side per-stage breakdown for the same run. The
// embedded KindSummary is every op's (its fields sit flat in the object,
// beside the two that only the combined distribution reports).
type Summary struct {
	SchemaVersion int     `json:"schema_version"`
	Conns         int     `json:"conns"`
	Window        int     `json:"window"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	Gets          uint64  `json:"gets"`
	Puts          uint64  `json:"puts"`
	Dels          uint64  `json:"dels"`
	Found         uint64  `json:"found"`
	NotFound      uint64  `json:"not_found"`
	Errors        uint64  `json:"errors"`
	Crashed       uint64  `json:"crashed"`
	Draining      uint64  `json:"draining"`
	KindSummary
	SvcP90US  uint64 `json:"svc_p90_us"`
	SvcP999US uint64 `json:"svc_p999_us"`

	Read  KindSummary `json:"read"`
	Write KindSummary `json:"write"`

	ServerStages []telemetry.StageStats `json:"server_stages,omitempty"`
	ServerShards []ServerShard          `json:"server_shards,omitempty"`
}

// distSummary folds one latency distribution into (mean, p50, p90, p99,
// p99.9) microseconds.
func distSummary(d *dist) (mean, p50, p90, p99, p999 uint64) {
	return uint64(d.Mean()), d.Percentile(50), d.Percentile(90), d.Percentile(99), d.Percentile(99.9)
}

// summarize merges the connections' tallies into the -json summary. Every
// op's distributions are the read and write ones merged: bucket counts
// and sums add and the larger maximum is the maximum, so they are exactly
// what recording every op into one distribution would give.
func summarize(stats []connStats, elapsed time.Duration, conns, window int, stages []telemetry.StageStats, shards []ServerShard) Summary {
	var total connStats
	for i := range stats {
		s := &stats[i]
		total.gets += s.gets
		total.puts += s.puts
		total.dels += s.dels
		total.found += s.found
		total.notFound += s.notFound
		total.errors += s.errors
		total.crashed += s.crashed
		total.draining += s.draining
		total.read.merge(&s.read)
		total.write.merge(&s.write)
	}
	all := total.read
	all.merge(&total.write)
	_, _, svcP90, _, svcP999 := distSummary(&all.svc)
	return Summary{
		SchemaVersion: summarySchemaVersion,
		Conns:         conns,
		Window:        window,
		ElapsedSec:    elapsed.Seconds(),
		OpsPerSec:     float64(all.ops) / elapsed.Seconds(),
		Gets:          total.gets,
		Puts:          total.puts,
		Dels:          total.dels,
		Found:         total.found,
		NotFound:      total.notFound,
		Errors:        total.errors,
		Crashed:       total.crashed,
		Draining:      total.draining,
		KindSummary:   kindSummary(&all),
		SvcP90US:      svcP90,
		SvcP999US:     svcP999,
		Read:          kindSummary(&total.read),
		Write:         kindSummary(&total.write),
		ServerStages:  stages,
		ServerShards:  shards,
	}
}

// report prints the summary: as one JSON object with -json, else as text.
func report(out Summary, jsonOut bool) {
	if jsonOut {
		json.NewEncoder(os.Stdout).Encode(out)
		return
	}
	fmt.Printf("pmkvload: %d conns (window %d), %.1fs: %d ops (%.1f ops/sec), %d get / %d put / %d del\n",
		out.Conns, out.Window, out.ElapsedSec, out.Ops, out.OpsPerSec, out.Gets, out.Puts, out.Dels)
	fmt.Printf("  found %d, not-found %d, errors %d, crashed %d, draining %d\n",
		out.Found, out.NotFound, out.Errors, out.Crashed, out.Draining)
	fmt.Printf("  latency (us, bucket upper bounds): mean=%d p50=%d p90=%d p99=%d p99.9=%d max=%d\n",
		out.MeanUS, out.P50US, out.P90US, out.P99US, out.P999US, out.MaxUS)
	fmt.Printf("  service (us): mean=%d p50=%d p90=%d p99=%d p99.9=%d max=%d; queueing: mean=%d p50=%d p99=%d max=%d\n",
		out.SvcMeanUS, out.SvcP50US, out.SvcP90US, out.SvcP99US, out.SvcP999US, out.SvcMaxUS,
		out.QueueMeanUS, out.QueueP50US, out.QueueP99US, out.QueueMaxUS)
	for _, kind := range []struct {
		name string
		ks   KindSummary
	}{{"reads", out.Read}, {"writes", out.Write}} {
		if ks := kind.ks; ks.Ops > 0 {
			fmt.Printf("  %s (us): %d ops, mean=%d p50=%d p90=%d p99=%d p99.9=%d max=%d; svc: mean=%d p50=%d p99=%d\n",
				kind.name, ks.Ops, ks.MeanUS, ks.P50US, ks.P90US, ks.P99US, ks.P999US, ks.MaxUS,
				ks.SvcMeanUS, ks.SvcP50US, ks.SvcP99US)
		}
	}
	if len(out.ServerStages) > 0 {
		fmt.Printf("  server stages (us): ")
		for i, st := range out.ServerStages {
			if i > 0 {
				fmt.Printf(" | ")
			}
			fmt.Printf("%s p50=%.1f p99=%.1f", st.Stage, st.P50US, st.P99US)
		}
		fmt.Println()
	}
	if len(out.ServerShards) > 0 {
		fmt.Printf("  server shards: ")
		for i, sh := range out.ServerShards {
			if i > 0 {
				fmt.Printf(" | ")
			}
			fmt.Printf("%d: %d batches avg=%.1f", sh.Shard, sh.Batches, sh.AvgBatch)
		}
		fmt.Println()
	}
}
