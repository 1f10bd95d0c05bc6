package main

import (
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"persistbarriers/internal/proto"
	"persistbarriers/internal/proto/client"
	"persistbarriers/internal/stats"
)

// The three kv-* workloads drive a live pmkvd over the binary protocol:
// two connections of window 64, one submitting goroutine each (plus the
// client's reader), nothing else — on a 2-core host anything more
// measures the scheduler. kv-write and kv-read are closed loops; kv-paced
// is an open loop at two fixed rates, timed from when each op was due.

const (
	kvConns  = 2
	kvWindow = 64
	// sloNS is the latency limit an op must meet (client.slo_miss_frac,
	// client.max_ok_rate).
	sloNS = 10 * int64(time.Millisecond)
	// rssAtOps is the number of measured completions after which a
	// closed-loop run samples the server's resident set: pmkvd retains
	// every record, so memory at a fixed amount of work is comparable
	// between runs and memory at a fixed time is not.
	rssAtOps = 100_000
	// clientSpanOps bounds how many measured requests per connection get
	// client spans in the trace file.
	clientSpanOps = 20_000
)

// kvParams is what distinguishes the three workloads.
type kvParams struct {
	mix   kvMix
	rates []float64 // open-loop phases, aggregate ops/s; nil = closed loop
}

func kvParamsFor(workload string, smoke bool) kvParams {
	var p kvParams
	switch workload {
	case "kv-write":
		p.mix = mixWrite
	case "kv-read":
		p.mix = mixRead
	case "kv-paced":
		p.mix = mixPaced
		p.rates = []float64{10_000, 40_000}
	}
	if smoke && p.rates != nil {
		p.rates = []float64{2_000, 8_000}
	}
	return p
}

// opMeta is what the completion handler needs about an in-flight op; the
// slot index is the low bits of the request id.
type opMeta struct {
	op    kvOp
	dueNS int64 // open loop: when the op was due; closed loop: 0
	phase int8  // 0 = unrecorded, 1.. = measured phase number
}

// sample is one measured completion.
type sample struct {
	doneNS  int64 // client clock
	latNS   int64 // from due (open loop) or submit (closed loop)
	queueNS int64 // submit -> send
	kind    opKind
	phase   int8
}

// connDriver owns one connection: its op stream, its in-flight metadata
// and its samples. The submitting goroutine writes meta[slot] before the
// submit; the client's mutex (taken on submit and on response matching)
// orders that write before the handler's read.
type connDriver struct {
	id     int
	c      *client.Client
	stream *kvStream
	keys   [][]byte
	vbuf   []byte
	free   chan uint8
	meta   [kvWindow]opMeta
	seq    uint64

	samples []sample
	lagNS   []int64 // open loop: how late each op was issued

	issued, failed atomic.Int64
	ackedWrites    atomic.Int64
	firstErr       atomic.Pointer[string]

	shared *kvShared
	tr     *tracer
	spans  int
}

// kvShared is the run-wide state both connections' handlers touch.
type kvShared struct {
	measured atomic.Int64 // completions in measured phases
	rssAt    int64        // sample RSS at this many (0 = never)
	pid      int
	rssMB    atomic.Uint64 // float64 bits
}

func dialDriver(addr string, id int, stream *kvStream, keys [][]byte, shared *kvShared, traced bool) (*connDriver, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("conn %d: %w", id, err)
	}
	d := &connDriver{id: id, stream: stream, keys: keys, free: make(chan uint8, kvWindow), shared: shared}
	for i := 0; i < kvWindow; i++ {
		d.free <- uint8(i)
	}
	// The connection's spans are stamped on the client's clock, which
	// starts at client.New; its tracer's epoch is taken beside it.
	d.tr = newTracer(traced)
	d.c, err = client.New(conn, client.Options{Window: kvWindow, OnComplete: d.complete})
	if err != nil {
		conn.Close()
		return nil, err
	}
	return d, nil
}

func (d *connDriver) fail(format string, args ...any) {
	d.failed.Add(1)
	msg := fmt.Sprintf("conn %d: ", d.id) + fmt.Sprintf(format, args...)
	d.firstErr.CompareAndSwap(nil, &msg)
}

// complete runs on the client's reader goroutine for every response.
func (d *connDriver) complete(resp *proto.Response, submitNS, sendNS int64) {
	done := d.c.NowNS()
	slot := uint8(resp.ID & (kvWindow - 1))
	m := d.meta[slot]
	switch {
	case resp.Err != "":
		d.fail("op %d: %s", resp.ID, resp.Err)
	case resp.Crashed:
		d.fail("op %d: server crashed", resp.ID)
	case len(resp.Results) != 1:
		d.fail("op %d: %d results", resp.ID, len(resp.Results))
	case m.op.Kind == opGet:
		if err := checkGet(m.op, resp.Results[0].Found, resp.Results[0].Value); err != nil {
			d.fail("%v", err)
		}
	default:
		d.ackedWrites.Add(1)
	}
	if m.phase > 0 {
		start := submitNS
		if m.dueNS != 0 {
			start = m.dueNS
		}
		d.samples = append(d.samples, sample{doneNS: done, latNS: done - start, queueNS: sendNS - submitNS, kind: m.op.Kind, phase: m.phase})
		if d.tr != nil && d.spans < clientSpanOps {
			d.spans++
			op := int64(d.id)<<32 | int64(resp.ID>>6)
			root := d.tr.add("client.request", start, done, -1, op)
			d.tr.add("client.queue", start, sendNS, root, op)
			d.tr.add("wire+server", sendNS, done, root, op)
		}
		if n := d.shared.measured.Add(1); n == d.shared.rssAt {
			if mb, err := procRSSMB(d.shared.pid); err == nil {
				d.shared.rssMB.Store(math.Float64bits(mb))
			}
		}
	}
	d.free <- slot
}

// issue submits one op. A full window flushes first: the frames whose
// completions would free a slot may still be sitting in the write buffer.
func (d *connDriver) issue(op kvOp, dueNS int64, phase int8) error {
	var slot uint8
	select {
	case slot = <-d.free:
	default:
		if err := d.c.Flush(); err != nil {
			return err
		}
		slot = <-d.free
	}
	d.meta[slot] = opMeta{op: op, dueNS: dueNS, phase: phase}
	id := d.seq<<6 | uint64(slot)
	d.seq++
	d.issued.Add(1)
	key := d.keys[op.Key]
	switch op.Kind {
	case opGet:
		return d.c.Get(id, key)
	case opPut:
		d.vbuf = appendValue(d.vbuf[:0], op.Key, op.Ver)
		return d.c.Put(id, key, d.vbuf)
	default:
		return d.c.Del(id, key)
	}
}

// preload writes version 1 of every key this connection owns.
func (d *connDriver) preload() error {
	for k := d.id; k < keySpace; k += kvConns {
		if err := d.issue(kvOp{Kind: opPut, Key: uint32(k), Ver: 1}, 0, 0); err != nil {
			return err
		}
	}
	return d.c.Wait()
}

// closedLoop keeps the window full until the client clock passes untilNS.
func (d *connDriver) closedLoop(untilNS int64, phase int8) error {
	for d.c.NowNS() < untilNS {
		if err := d.issue(d.stream.next(), 0, phase); err != nil {
			return err
		}
	}
	return d.c.Wait()
}

// paced issues n ops on a fixed cadence starting now, each timed from
// its due instant. When it is ahead of schedule it flushes what it has
// buffered and sleeps; when behind, it issues back to back and the delay
// lands in the ops' latency, as a real backlog would.
func (d *connDriver) paced(n int, interval time.Duration, phase int8) error {
	start := d.c.NowNS() + int64(interval)
	for i := 0; i < n; i++ {
		due := start + int64(i)*int64(interval)
		if ahead := due - d.c.NowNS(); ahead > 0 {
			if err := d.c.Flush(); err != nil {
				return err
			}
			// Not time.Sleep: with an idle P the Go runtime parks in
			// epoll_wait, whose timeout is whole milliseconds, and a
			// generator that wakes 1.1 ms late is measuring itself.
			ts := syscall.NsecToTimespec(ahead)
			syscall.Nanosleep(&ts, nil)
		}
		if phase > 0 {
			d.lagNS = append(d.lagNS, d.c.NowNS()-due)
		}
		if err := d.issue(d.stream.next(), due, phase); err != nil {
			return err
		}
	}
	return d.c.Wait()
}

// both runs f on every driver concurrently and returns the first error.
func both(ds []*connDriver, f func(*connDriver) error) error {
	errs := make([]error, len(ds))
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d *connDriver) {
			defer wg.Done()
			errs[i] = f(d)
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// kvSession is one server lifetime with its connections.
type kvSession struct {
	srv    *server
	ds     []*connDriver
	shared *kvShared
	setupS float64
}

func (ks *kvSession) closeConns() {
	for _, d := range ks.ds {
		d.c.Close()
	}
}

// abort tears a session down on a failure path.
func (ks *kvSession) abort() {
	ks.closeConns()
	ks.srv.kill()
}

// setupKV starts a server, connects and preloads every key. The returned
// session's setupS covers exactly that.
func setupKV(cfg runConfig, bin string, p kvParams, keys [][]byte) (*kvSession, error) {
	t0 := time.Now()
	srv, err := startServer(bin, cfg.Trace)
	if err != nil {
		return nil, err
	}
	ks := &kvSession{srv: srv, shared: &kvShared{pid: srv.pid()}}
	for i := 0; i < kvConns; i++ {
		d, err := dialDriver(srv.addr, i, newKVStream(cfg.Workload, cfg.Seed, i, kvConns, p.mix, true), keys, ks.shared, cfg.Trace)
		if err != nil {
			ks.abort()
			return nil, err
		}
		ks.ds = append(ks.ds, d)
	}
	if err := both(ks.ds, (*connDriver).preload); err != nil {
		ks.abort()
		return nil, fmt.Errorf("preload: %w", err)
	}
	ks.setupS = time.Since(t0).Seconds()
	return ks, nil
}

// warmUp runs the workload's own traffic, unrecorded, for a fixed time:
// the closed loops keep their windows full, the open loop runs its heavy
// rate. It belongs to neither setup_s nor the timed region.
func (ks *kvSession) warmUp(d time.Duration, p kvParams) error {
	warm := func(c *connDriver) error { return c.closedLoop(c.c.NowNS()+int64(d), 0) }
	if p.rates != nil {
		hi := p.rates[len(p.rates)-1]
		n := int(hi * d.Seconds() / kvConns)
		warm = func(c *connDriver) error { return c.paced(n, pacedInterval(hi), 0) }
	}
	return both(ks.ds, warm)
}

// pacedInterval is the per-connection gap for an aggregate rate.
func pacedInterval(rate float64) time.Duration {
	return time.Duration(float64(kvConns) / rate * float64(time.Second))
}

// finish closes the connections, drains the server and checks the drain
// report against what the clients saw. It returns the report and the
// list of things wrong with it.
func (ks *kvSession) finish(traced bool) (drainReport, []string, error) {
	ks.closeConns()
	rep, err := ks.srv.stop()
	if err != nil {
		return rep, nil, err
	}
	var acked int64
	for _, d := range ks.ds {
		acked += d.ackedWrites.Load()
	}
	return rep, checkDrain(rep, acked, traced), nil
}

func (ks *kvSession) tally(out *runOutput) {
	for _, d := range ks.ds {
		out.Attempted += d.issued.Load()
		out.Failed += d.failed.Load()
		if msg := d.firstErr.Load(); msg != nil {
			out.Errors = append(out.Errors, *msg)
		}
	}
}

// phaseStats is one measured phase's client-side view.
type phaseStats struct {
	rate     float64 // offered (open loop) or 0
	ops      int
	perSec   []float64   // completions in each whole second
	lat      []float64   // sorted, us
	windows  [][]float64 // per-second latency windows, us
	p50, p99 float64
	backlog  bool // latency grew from the first second to the last
}

func analysePhase(samples []sample, startNS int64, seconds float64) phaseStats {
	var ps phaseStats
	nwin := int(seconds)
	if nwin < 1 {
		nwin = 1
	}
	winNS := int64(seconds * 1e9 / float64(nwin))
	ps.perSec = make([]float64, nwin)
	ps.windows = make([][]float64, nwin)
	for _, s := range samples {
		us := float64(s.latNS) / 1e3
		ps.lat = append(ps.lat, us)
		// Ops of this phase that complete after its nominal end (the tail
		// of the window, a backlog) belong to its last second.
		w := int((s.doneNS - startNS) / winNS)
		if w < 0 {
			w = 0
		}
		if w >= nwin {
			w = nwin - 1
		} else {
			ps.perSec[w]++
		}
		ps.windows[w] = append(ps.windows[w], us)
	}
	for i := range ps.perSec {
		ps.perSec[i] /= float64(winNS) / 1e9
	}
	ps.ops = len(ps.lat)
	sort.Float64s(ps.lat)
	ps.p50 = percentile(ps.lat, 50)
	ps.p99, _ = windowTail(ps.windows)
	if nwin >= 2 {
		first, last := median(ps.windows[0]), median(ps.windows[nwin-1])
		ps.backlog = last > 2*first && last > 1000
	}
	return ps
}

func runKV(cfg runConfig) (*runOutput, error) {
	out := newRunOutput()
	p := kvParamsFor(cfg.Workload, cfg.Smoke)
	bin, err := buildServer(cfg.Root, cfg.BinDir)
	if err != nil {
		return nil, err
	}
	keys := keyTable()
	tr := newTracer(cfg.Trace)

	// Set-up, several times: each is a whole server lifetime up to the
	// end of the preload. All but the last are drained straight away (which
	// checks their drain reports too); the last is warmed up and carries
	// the timed region.
	var ks *kvSession
	var setups, starts []float64
	for i := 0; i < cfg.setupReps(); i++ {
		if ks != nil {
			_, bad, err := ks.finish(cfg.Trace)
			if err != nil {
				return nil, err
			}
			for _, b := range bad {
				out.fail("set-up %d: %s", i-1, b)
			}
			ks.tally(out)
		}
		if ks, err = setupKV(cfg, bin, p, keys); err != nil {
			return nil, err
		}
		setups = append(setups, ks.setupS)
		starts = append(starts, ks.srv.startS)
	}
	out.Metrics["setup_s"] = median(setups)
	out.Spreads["setup_s"] = quartileSpread(setups)
	out.Info["setup_reps_s"] = setups
	if err := ks.warmUp(cfg.warmup(), p); err != nil {
		ks.abort()
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Timed region.
	// Room for 400 k ops/s per connection over the longest run, so the
	// slice never grows (a 100 MB copy on the reader goroutine) mid-run;
	// untouched capacity is never resident.
	for _, d := range ks.ds {
		d.samples = make([]sample, 0, int(cfg.Seconds*400_000))
	}
	var z0 *statz
	if cfg.Trace {
		if z0, err = ks.srv.scrapeStatz(); err != nil {
			ks.abort()
			return nil, err
		}
	}
	pid := ks.srv.pid()
	cpu0, _ := procCPU(pid)
	rss0, _ := procRSSMB(pid)
	selfCPU0 := selfCPU()
	var acked0 int64
	for _, d := range ks.ds {
		acked0 += d.ackedWrites.Load()
	}

	type phaseRun struct {
		rate    float64
		seconds float64
		startNS []int64
	}
	var phases []phaseRun
	t0 := time.Now()
	if p.rates == nil {
		ks.shared.rssAt = rssAtOps
		ph := phaseRun{seconds: cfg.Seconds}
		for _, d := range ks.ds {
			ph.startNS = append(ph.startNS, d.c.NowNS())
		}
		err = both(ks.ds, func(d *connDriver) error {
			return d.closedLoop(ph.startNS[d.id]+int64(cfg.Seconds*1e9), 1)
		})
		phases = append(phases, ph)
	} else {
		for i, rate := range p.rates {
			ph := phaseRun{rate: rate, seconds: cfg.Seconds / float64(len(p.rates))}
			n := int(rate * ph.seconds / kvConns)
			for _, d := range ks.ds {
				ph.startNS = append(ph.startNS, d.c.NowNS())
			}
			phase := int8(i + 1)
			if err = both(ks.ds, func(d *connDriver) error { return d.paced(n, pacedInterval(rate), phase) }); err != nil {
				break
			}
			phases = append(phases, ph)
		}
	}
	if err != nil {
		ks.abort()
		return nil, fmt.Errorf("timed region: %w", err)
	}
	elapsed := time.Since(t0).Seconds()
	cpu1, _ := procCPU(pid)
	rss1, _ := procRSSMB(pid)
	clientCPU := selfCPU() - selfCPU0
	var acked1 int64
	for _, d := range ks.ds {
		acked1 += d.ackedWrites.Load()
	}
	var z1 *statz
	var metricsLines int
	if cfg.Trace {
		if z1, err = ks.srv.scrapeStatz(); err != nil {
			ks.abort()
			return nil, err
		}
		prom, err := ks.srv.scrape("/metrics")
		if err != nil {
			ks.abort()
			return nil, err
		}
		for _, c := range prom {
			if c == '\n' {
				metricsLines++
			}
		}
		if metricsLines == 0 {
			out.fail("/metrics is empty")
		}
	}

	rep, bad, err := ks.finish(cfg.Trace)
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		out.fail("%s", b)
	}
	ks.tally(out)
	out.Fingerprints["recovery"] = rep.Fingerprint

	// Client-side analysis.
	var all []sample
	for _, d := range ks.ds {
		all = append(all, d.samples...)
	}
	var perPhase []phaseStats
	totalOps := 0
	for i, ph := range phases {
		// Each connection's samples are on its own clock; rebase to the
		// first connection's phase start.
		var rebased []sample
		for _, d := range ks.ds {
			shift := ph.startNS[0] - ph.startNS[d.id]
			for _, s := range d.samples {
				if s.phase == int8(i+1) {
					s.doneNS += shift
					rebased = append(rebased, s)
				}
			}
		}
		st := analysePhase(rebased, ph.startNS[0], ph.seconds)
		st.rate = ph.rate
		perPhase = append(perPhase, st)
		totalOps += st.ops
	}
	if totalOps == 0 {
		return nil, fmt.Errorf("no measured completions")
	}
	rssMB := math.Float64frombits(ks.shared.rssMB.Load())
	if rssMB == 0 {
		rssMB = rss1 // fewer measured ops than rssAtOps, or a paced run: the end of the fixed work
	}
	lo, hi := perPhase[0], perPhase[len(perPhase)-1]
	out.Info["samples"] = totalOps
	out.Info["per_second_ops"] = lo.perSec
	out.Info["measured_s"] = elapsed

	if p.rates == nil {
		out.Host["ops_per_s"] = median(lo.perSec)
		out.Spreads["ops_per_s"] = quartileSpread(lo.perSec)
	} else {
		out.Host["ops_per_s"] = float64(totalOps) / elapsed
	}
	out.Host["cpu_us_per_op"] = float64(cpu1-cpu0) / 1e3 / float64(totalOps)
	// Open loop: the median at the light rate, where a longer gather wait
	// shows.
	out.Host["p50_us"] = lo.p50
	var secondP50 []float64
	for _, w := range lo.windows {
		secondP50 = append(secondP50, median(w))
	}
	out.Spreads["p50_us"] = quartileSpread(secondP50)
	if !cfg.Trace {
		out.Metrics["rss_mb"] = rssMB
		// Over the server's whole life: every op it was sent, preload
		// and warm-up included, against what its drain report counts.
		var issued int64
		for _, d := range ks.ds {
			issued += d.issued.Load()
		}
		out.Metrics["sim_cycles_per_op"] = ratio(float64(rep.Cycles), float64(issued))
		out.Metrics["epochs_per_op"] = ratio(float64(rep.Epochs), float64(issued))
		return out, nil
	}

	// Per-layer metrics from the live pass.
	ms := metricSet{}
	var lags, queue, gets, puts, lat []float64
	var getW, putW [][]float64
	miss := 0
	for _, d := range ks.ds {
		for _, l := range d.lagNS {
			lags = append(lags, float64(l)/1e3)
		}
	}
	for _, st := range perPhase {
		lat = append(lat, st.lat...)
	}
	sort.Float64s(lat)
	nwin := int(cfg.Seconds)
	if nwin < 1 {
		nwin = 1
	}
	getW, putW = make([][]float64, nwin), make([][]float64, nwin)
	span := all[len(all)-1].doneNS - all[0].doneNS + 1
	for _, s := range all {
		us := float64(s.latNS) / 1e3
		queue = append(queue, float64(s.queueNS)/1e3)
		if s.latNS > sloNS {
			miss++
		}
		w := int(int64(nwin) * (s.doneNS - all[0].doneNS) / span)
		if w < 0 || w >= nwin {
			w = nwin - 1
		}
		if s.kind == opGet {
			gets = append(gets, us)
			getW[w] = append(getW[w], us)
		} else {
			puts = append(puts, us)
			putW[w] = append(putW[w], us)
		}
	}
	sort.Float64s(lags)
	sort.Float64s(queue)
	sort.Float64s(gets)
	sort.Float64s(puts)
	ms["client.samples"] = float64(totalOps)
	ms["client.sched_lag_p99_us"] = percentile(lags, 99)
	ms["client.queue_p50_us"] = percentile(queue, 50)
	ms["client.get_p50_us"] = percentile(gets, 50)
	ms["client.get_p99_us"], _ = windowTail(getW)
	ms["client.put_p50_us"] = percentile(puts, 50)
	ms["client.put_p99_us"], _ = windowTail(putW)
	ms["client.slo_miss_frac"] = float64(int64(miss)+out.Failed) / float64(totalOps)
	ms["client.cpu_us_per_op"] = float64(clientCPU) / 1e3 / float64(totalOps)
	for _, st := range perPhase {
		if st.rate > 0 && st.p99 <= float64(sloNS)/1e3 && !st.backlog && st.rate > ms["client.max_ok_rate"] {
			ms["client.max_ok_rate"] = st.rate
		}
	}
	if p.rates != nil {
		ms["lo_p50_us"], ms["lo_p99_us"] = lo.p50, lo.p99
		ms["hi_p50_us"], ms["hi_p99_us"] = hi.p50, hi.p99
		if lagP99 := ms["client.sched_lag_p99_us"]; lagP99 > 1000 {
			out.Info["invalid"] = fmt.Sprintf("generator ran late: sched_lag_p99_us = %.0f > 1000; lo_*/hi_* are not trustworthy", lagP99)
		}
	}
	ms["fail_frac"] = ratio(float64(out.Failed), float64(out.Attempted))
	// Open loop: the tail at the heavy rate, where queueing shows.
	ms["p99_us"] = hi.p99

	ms["server.start_s"] = median(starts)
	ms["server.rss_mb"] = rep.PeakRSSMB
	ms["server.rss_bytes_per_write"] = ratio((rss1-rss0)*(1<<20), float64(acked1-acked0))
	ms["server.drain_s"] = rep.DrainS
	clientMean := stats.Amean(lat)
	attributed := serverStages(ms, z0, z1, float64(totalOps))
	ms["server.unattributed_us"] = clientMean - attributed
	out.Info["client_mean_us"] = clientMean
	out.Info["unattributed_share"] = ratio(clientMean-attributed, clientMean)
	out.Info["metrics_lines"] = metricsLines

	// In-process replay of the same generated ops: the codec alone, then
	// the sharded store alone.
	n := cfg.replayOps()
	ops := replayOps(cfg.Workload, cfg.Seed, p.mix, n)
	if err := protoReplay(ms, ops, keys, tr); err != nil {
		out.fail("in-process replay: %v", err)
	}
	shardAll, errs, err := shardReplay(ms, ops, keys, tr)
	if err != nil {
		return nil, err
	}
	out.Attempted += int64(len(ops))
	for _, e := range errs {
		out.fail("in-process replay: %s", e)
	}
	protoUS := (ms["proto.enc_req_ns"] + ms["proto.dec_req_ns"] + ms["proto.enc_resp_ns"] + ms["proto.dec_resp_ns"]) / 1e3
	ms["server.overhead_us"] = percentile(lat, 50) - shardAll - protoUS

	// Traced against untraced primary metric. The live server cannot be
	// run both ways at once, so the untraced side is the record of the
	// last untraced run of this workload, seed and length, if one is on
	// disk (the all-workloads run always leaves one).
	if prev, err := readRecord(filepath.Join(cfg.OutDir, cfg.Workload+".untraced.json")); err == nil &&
		prev.Seed == cfg.Seed && prev.Seconds == cfg.Seconds && prev.Smoke == cfg.Smoke {
		if p.rates != nil {
			ms["trace_overhead_frac"] = out.Host["p50_us"]/prev.HostTime["p50_us"].Value - 1
		} else {
			ms["trace_overhead_frac"] = prev.HostTime["ops_per_s"].Value/out.Host["ops_per_s"] - 1
		}
	}
	for _, d := range ks.ds {
		tr.merge(d.tr)
	}
	out.Metrics = ms
	out.tracer = tr
	return out, nil
}

// serverStages turns two /statz scrapes into per-stage means over the
// interval between them, stores the listed ones, and returns the
// attributed time per client op: the pipeline segments (count-weighted,
// since fast-path GETs skip them) plus the read fast path.
func serverStages(ms metricSet, z0, z1 *statz, clientOps float64) float64 {
	a, b := z0.stageSums(), z1.stageSums()
	var attributed float64
	for name, s1 := range b {
		s0 := a[name]
		count, sum := s1[0]-s0[0], s1[1]-s0[1]
		switch name {
		case "queue_wait", "translate", "retire", "durable_wait", "ack_write", "read_fast", "read_fallback":
			ms["server.stage."+name+"_us"] = ratio(sum, count)
		}
		// The two read_* rows are whole GET trips (conn-read to
		// ack-written) over segments already summed — a fast GET still
		// stamps route and ack_write — so adding them would count twice.
		if name != "read_fast" && name != "read_fallback" {
			attributed += sum
		}
	}
	var hits, falls, batches, batchOps float64
	for i, sh := range z1.Shards {
		hits += sh.FastHits - z0.Shards[i].FastHits
		falls += sh.Fallbacks - z0.Shards[i].Fallbacks
		nb := sh.Batches - z0.Shards[i].Batches
		batches += nb
		batchOps += sh.AvgBatch*sh.Batches - z0.Shards[i].AvgBatch*z0.Shards[i].Batches
	}
	ms["server.fast_hit_frac"] = ratio(hits, hits+falls)
	ms["server.avg_batch"] = ratio(batchOps, batches)
	return attributed / clientOps
}
