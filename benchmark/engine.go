package main

import (
	"errors"
	"fmt"
	"time"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
)

// engine-crash drives one pmkv.Engine directly from one goroutine: no
// shard worker, no wire, no scheduler. A round applies a fixed script in
// batches of 64 (translate, retire, wait durable), loses power about nine
// tenths of the way through, then recovers: Close, Verify,
// RecoveredState. Rounds repeat on the same script until the measuring
// time is used, so every count (cycles, persists, flushes, records
// replayed) is identical in every round and between two versions of the
// program, and host-time metrics are medians over rounds.

const (
	engineSessions = 4
	engineBatch    = 64
	// crashShare is where in the run power is lost, as a share of the
	// cycles a clean run would take.
	crashShare = 0.9
)

type engineSizes struct {
	Ops     int // per round, before the crash cuts it short
	SideOps int // the batch-1 and batch-256 side runs
}

var (
	engineFull  = engineSizes{Ops: 72_000, SideOps: 20_000}
	engineSmoke = engineSizes{Ops: 2_048, SideOps: 512}
)

// engineOp is one scripted op with the session that issues it. A key
// belongs to one session (key mod sessions): within a commit window a
// read sees only its own session's writes, so only then does the
// generator know what every GET returns.
type engineOp struct {
	kvOp
	sess int
}

func engineScript(seed uint64, n int) []engineOp {
	streams := make([]*kvStream, engineSessions)
	for i := range streams {
		streams[i] = newKVStream("engine-crash", seed, i, engineSessions, mixEngine, false)
	}
	ops := make([]engineOp, n)
	for i := range ops {
		s := i % engineSessions
		ops[i] = engineOp{kvOp: streams[s].next(), sess: s}
	}
	return ops
}

// engineRun is one engine lifetime: apply until the script ends or the
// machine crashes.
type engineRun struct {
	e        *pmkv.Engine
	applied  int    // ops in batches that completed without the crash
	acked    int    // write records durably acknowledged
	writes   []kvOp // every issued write, record order
	batchUS  []float64
	submitNS time.Duration
	retireNS time.Duration
	waitNS   time.Duration
	crashed  bool
	cycles   sim.Cycle
	mismatch []string
	// mallocs and allocBytes are the heap allocations made while the
	// script was applied.
	mallocs, allocBytes uint64
}

func (r *engineRun) applyS() float64 { return (r.submitNS + r.retireNS + r.waitNS).Seconds() }

// applyScript feeds ops to a fresh engine in batches of batch.
func applyScript(ops []engineOp, keys []string, batch int, crashAt sim.Cycle, check bool, tr *tracer, round int) (*engineRun, error) {
	e, err := pmkv.New(pmkv.Config{Machine: pmkv.SmallMachine(), CrashAt: crashAt, Check: check})
	if err != nil {
		return nil, err
	}
	sess := make([]*pmkv.Session, engineSessions)
	for i := range sess {
		sess[i] = e.NewSession()
	}
	// Every request is built before the loop, so the loop's allocations
	// are the engine's own.
	r := &engineRun{e: e, batchUS: make([]float64, 0, len(ops)/batch+1)}
	all := make([]pmkv.Request, len(ops))
	for i, op := range ops {
		req := pmkv.Request{Sess: sess[op.sess], Key: keys[op.Key]}
		switch op.Kind {
		case opGet:
			req.Op = pmkv.Get
		case opPut:
			req.Op, req.Value = pmkv.Put, appendValue(nil, op.Key, op.Ver)
		default:
			req.Op = pmkv.Delete
		}
		all[i] = req
	}
	var resps []pmkv.Response
	m0, b0 := mallocs()
	defer func() {
		m1, b1 := mallocs()
		r.mallocs, r.allocBytes = m1-m0, b1-b0
	}()
	for at := 0; at < len(ops) && !r.crashed; at += batch {
		chunk := ops[at:min(at+batch, len(ops))]
		reqs := all[at : at+len(chunk)]
		for _, op := range chunk {
			if op.Kind != opGet {
				r.writes = append(r.writes, op.kvOp)
			}
		}
		opID := int64(round)<<32 | int64(at)
		root := tr.begin("engine.batch", -1, opID)
		t0 := time.Now()

		s := tr.begin("engine.submit", root, opID)
		resps, err = e.SubmitAppend(resps[:0], reqs)
		tr.end(s)
		t1 := time.Now()
		r.submitNS += t1.Sub(t0)
		if err != nil {
			return nil, fmt.Errorf("submit at op %d: %w", at, err)
		}
		for i, op := range chunk {
			if op.Kind == opGet {
				if err := checkGet(op.kvOp, resps[i].Found, resps[i].Value); err != nil {
					r.mismatch = append(r.mismatch, err.Error())
				}
			}
		}
		t1 = time.Now()

		s = tr.begin("engine.retire", root, opID)
		err = e.PumpRetire()
		tr.end(s)
		t2 := time.Now()
		r.retireNS += t2.Sub(t1)
		if err != nil && !errors.Is(err, pmkv.ErrCrashed) {
			return nil, fmt.Errorf("retire at op %d: %w", at, err)
		}

		if err == nil {
			var d int
			s = tr.begin("engine.durable_wait", root, opID)
			d, err = e.WaitDurable(e.RecordCount())
			tr.end(s)
			r.waitNS += time.Since(t2)
			if err != nil && !errors.Is(err, pmkv.ErrCrashed) {
				return nil, fmt.Errorf("wait durable at op %d: %w", at, err)
			}
			r.acked = d
		}
		tr.end(root)
		if err != nil {
			r.crashed = true
			break
		}
		r.applied += len(chunk)
		r.batchUS = append(r.batchUS, float64(time.Since(t0))/1e3)
	}
	r.cycles = e.Now()
	return r, nil
}

// recovered is the outcome of recovering one crashed (or clean) engine.
type recovered struct {
	res                      *machine.Result
	rep                      *pmkv.Report
	state                    map[string][]byte
	closeS, verifyS, replayS float64
	dlcheckS                 float64
	dlOK                     bool
	dlLine                   string
	verifyErr                string
}

func (rc *recovered) totalS() float64 { return rc.closeS + rc.verifyS + rc.replayS }

func recoverEngine(r *engineRun, check bool, tr *tracer, round int) (*recovered, error) {
	rc := &recovered{dlOK: true}
	opID := int64(round) << 32
	root := tr.begin("recovery", -1, opID)
	timed := func(name string, dst *float64, f func() error) error {
		s := tr.begin(name, root, opID)
		t0 := time.Now()
		err := f()
		*dst = time.Since(t0).Seconds()
		tr.end(s)
		return err
	}
	var err error
	if err = timed("recovery.close", &rc.closeS, func() error { rc.res, err = r.e.Close(); return err }); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	// A failed verification is the program's failure, not the benchmark's:
	// it is reported as an incorrect run, and recovery still proceeds.
	timed("recovery.verify", &rc.verifyS, func() error {
		var verr error
		if rc.rep, verr = r.e.Verify(rc.res); verr != nil {
			rc.verifyErr = verr.Error()
		}
		if rc.rep == nil {
			rc.rep = &pmkv.Report{}
		}
		return nil
	})
	if err = timed("recovery.replay", &rc.replayS, func() error { rc.state, err = r.e.RecoveredState(rc.res); return err }); err != nil {
		return nil, fmt.Errorf("recovered state: %w", err)
	}
	if check {
		timed("recovery.dlcheck", &rc.dlcheckS, func() error {
			v := r.e.CheckDL(rc.res)
			rc.dlOK, rc.dlLine = v.OK(), v.String()
			return nil
		})
	}
	tr.end(root)
	return rc, nil
}

// auditRecovery checks the recovered state against what the driver was
// promised. For every key: if its newest acknowledged write is a put, the
// key is present (unless a later, unacknowledged delete may have landed)
// and holds that version or a later issued one; if it is a delete, the
// key is absent or holds a version issued after the delete; and whatever
// is recovered is a value the driver wrote, for that key. It returns how
// many keys it found wrong and a description of the first few.
func auditRecovery(writes []kvOp, acked int, state map[string][]byte, keys []string) (int, []string) {
	type keyState struct {
		live       bool   // the newest acknowledged write is a put
		minVer     uint32 // the oldest version recovery may hold
		issuedVer  uint32 // the newest version ever issued
		pendingDel bool   // an unacknowledged delete may or may not have landed
	}
	ks := make(map[uint32]*keyState)
	for i, w := range writes {
		st := ks[w.Key]
		if st == nil {
			st = &keyState{minVer: 1}
			ks[w.Key] = st
		}
		if w.Kind == opPut {
			st.issuedVer = w.Ver
		}
		switch {
		case i < acked && w.Kind == opPut:
			st.live, st.minVer = true, w.Ver
		case i < acked:
			st.live, st.minVer = false, st.issuedVer+1
		case w.Kind == opDel:
			st.pendingDel = true
		}
	}
	bad := 0
	var msgs []string
	note := func(format string, args ...any) {
		bad++
		if len(msgs) < 5 {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}
	written := make(map[string]bool, len(ks))
	for id, st := range ks {
		written[keys[id]] = true
		val, ok := state[keys[id]]
		if !ok {
			if st.live && !st.pendingDel {
				note("key %d: acknowledged version %d is missing after recovery", id, st.minVer)
			}
			continue
		}
		gotID, ver, err := checkValue(val)
		switch {
		case err != nil:
			note("key %d: recovered %v", id, err)
		case gotID != id:
			note("key %d: recovered value belongs to key %d", id, gotID)
		case ver < st.minVer || ver > st.issuedVer:
			note("key %d: recovered version %d, outside the allowed %d .. %d", id, ver, st.minVer, st.issuedVer)
		}
	}
	for name := range state {
		if !written[name] {
			note("recovered key %q was never written", name)
		}
	}
	return bad, msgs
}

// engineCounts is the part of a machine.Result worth fingerprinting and
// reporting: the simulated counters, without the histories and images.
type engineCounts struct {
	Cycles         sim.Cycle
	PersistedLines uint64
	LogWrites      uint64
	Conflicts      machine.ConflictCounts
	Epochs         machine.EpochAggregate
	Stalls         sim.Cycle
	Applied, Acked int
}

func countsOf(r *engineRun, res *machine.Result) engineCounts {
	c := engineCounts{Cycles: r.cycles, PersistedLines: res.PersistedLines, LogWrites: res.LogWrites,
		Conflicts: res.Conflicts, Epochs: res.Epochs, Applied: r.applied, Acked: r.acked}
	for i := range res.Cores {
		for _, s := range res.Cores[i].Stalls {
			c.Stalls += s
		}
	}
	return c
}

// engineRound is one apply-crash-recover cycle with its audit done.
type engineRound struct {
	run    *engineRun
	rec    *recovered
	counts engineCounts
	simFP  string
}

func doRound(ops []engineOp, keys []string, crashAt sim.Cycle, check bool, tr *tracer, round int, out *runOutput) (*engineRound, error) {
	run, err := applyScript(ops, keys, engineBatch, crashAt, check, tr, round)
	if err != nil {
		return nil, err
	}
	rec, err := recoverEngine(run, check, tr, round)
	if err != nil {
		return nil, err
	}
	out.Attempted += int64(run.applied)
	for _, m := range run.mismatch {
		out.fail("round %d: %s", round, m)
	}
	bad, msgs := auditRecovery(run.writes, run.acked, rec.state, keys)
	for _, m := range msgs {
		out.fail("round %d: %s", round, m)
	}
	out.Failed += int64(max(0, bad-len(msgs)))
	if rec.verifyErr != "" {
		out.fail("round %d: verify: %s", round, rec.verifyErr)
	}
	if !rec.dlOK {
		out.fail("round %d: durable linearizability: %s", round, rec.dlLine)
	}
	er := &engineRound{run: run, rec: rec, counts: countsOf(run, rec.res)}
	er.simFP = stats.MustFingerprint(er.counts)
	return er, nil
}

// calibrateCrash runs the first tenth of the script cleanly and
// extrapolates the cycle at which crashShare of the whole would be done.
// Calibrating in set-up, rather than hard-coding a cycle, keeps the
// crash inside the run when a later change makes ops cheaper in
// simulated time.
func calibrateCrash(ops []engineOp, keys []string) (sim.Cycle, error) {
	prefix := ops[:max(engineBatch, len(ops)/10)]
	r, err := applyScript(prefix, keys, engineBatch, 0, false, nil, 0)
	if err != nil {
		return 0, err
	}
	if _, err := r.e.Close(); err != nil {
		return 0, err
	}
	perOp := float64(r.cycles) / float64(len(prefix))
	return sim.Cycle(crashShare * perOp * float64(len(ops))), nil
}

// sideRun applies n ops cleanly at another batch size and returns ops/s.
func sideRun(ops []engineOp, keys []string, batch int) (float64, error) {
	r, err := applyScript(ops, keys, batch, 0, false, nil, 0)
	if err != nil {
		return 0, err
	}
	if _, err := r.e.Close(); err != nil {
		return 0, err
	}
	return float64(r.applied) / r.applyS(), nil
}

func runEngine(cfg runConfig) (*runOutput, error) {
	sz := engineFull
	if cfg.Smoke {
		sz = engineSmoke
	}
	out := newRunOutput()
	tr := newTracer(cfg.Trace)
	skeys := make([]string, keySpace)
	for i, k := range keyTable() {
		skeys[i] = string(k)
	}

	// Set-up, several times: generate the script and find the crash cycle.
	var ops []engineOp
	var crashAt sim.Cycle
	var setups []float64
	for i := 0; i < cfg.setupReps(); i++ {
		t0 := time.Now()
		ops = engineScript(cfg.Seed, sz.Ops)
		var err error
		if crashAt, err = calibrateCrash(ops, skeys); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.Metrics["setup_s"] = median(setups)
	out.Spreads["setup_s"] = quartileSpread(setups)
	out.Info["setup_reps_s"] = setups
	out.Info["crash_at_cycle"] = crashAt
	out.Info["sizes"] = sz

	// Traced runs first do one round untraced: the reference the traced
	// rounds must reproduce exactly, and the base of trace_overhead_frac.
	var ref *engineRound
	if cfg.Trace {
		var err error
		if ref, err = doRound(ops, skeys, crashAt, false, nil, -1, out); err != nil {
			return nil, err
		}
	}

	var rounds []*engineRound
	var cpu time.Duration
	for start := time.Now(); len(rounds) == 0 || time.Since(start).Seconds() < cfg.Seconds; {
		cpu0 := selfCPU()
		er, err := doRound(ops, skeys, crashAt, cfg.Trace, tr, len(rounds), out)
		if err != nil {
			return nil, err
		}
		cpu += selfCPU() - cpu0
		if len(rounds) == 0 {
			out.Metrics["rss_mb"] = selfPeakRSSMB()
		}
		rounds = append(rounds, er)
	}

	first := rounds[0]
	if !first.run.crashed {
		out.fail("the machine never lost power: crash cycle %d lies beyond the run's %d cycles", crashAt, first.run.cycles)
	}
	var totalApplied int64
	var opsPerS, engOpsPerS, recoverS, batchAll []float64
	var windows [][]float64
	for i, er := range rounds {
		if er.simFP != first.simFP || er.rec.rep.Fingerprint != first.rec.rep.Fingerprint {
			out.fail("round %d differs from round 0: simulated %s vs %s, recovery %.12s vs %.12s",
				i, er.simFP[:12], first.simFP[:12], er.rec.rep.Fingerprint, first.rec.rep.Fingerprint)
		}
		totalApplied += int64(er.run.applied)
		opsPerS = append(opsPerS, float64(er.run.applied)/(er.run.applyS()+er.rec.totalS()))
		engOpsPerS = append(engOpsPerS, float64(er.run.applied)/er.run.applyS())
		recoverS = append(recoverS, er.rec.totalS())
		batchAll = append(batchAll, er.run.batchUS...)
		windows = append(windows, er.run.batchUS)
	}
	if ref != nil && (ref.simFP != first.simFP || ref.rec.rep.Fingerprint != first.rec.rep.Fingerprint) {
		out.fail("traced round differs from the untraced reference: simulated %s vs %s, recovery %.12s vs %.12s",
			first.simFP[:12], ref.simFP[:12], first.rec.rep.Fingerprint, ref.rec.rep.Fingerprint)
	}
	out.Fingerprints["sim_stats"] = first.simFP
	out.Fingerprints["recovery"] = first.rec.rep.Fingerprint
	tail, pct := windowTail(windows)
	out.Info["rounds"] = len(rounds)
	out.Info["round_ops_per_s"] = opsPerS
	out.Info["round_recover_s"] = recoverS
	out.Info["ops_applied_per_round"] = first.run.applied
	out.Info["crash_share_of_script"] = float64(first.run.applied) / float64(len(ops))
	out.Info["latency_samples"] = len(batchAll)
	out.Info["p99_us_percentile_used"] = pct
	out.Info["counts"] = first.counts

	out.Host["ops_per_s"] = median(opsPerS)
	out.Host["cpu_us_per_op"] = float64(cpu) / 1e3 / float64(totalApplied)
	out.Host["p50_us"] = median(batchAll)
	out.Spreads["ops_per_s"] = quartileSpread(opsPerS)
	var roundP50 []float64
	for _, w := range windows {
		roundP50 = append(roundP50, median(w))
	}
	out.Spreads["p50_us"] = quartileSpread(roundP50)
	if !cfg.Trace {
		out.Metrics["sim_cycles_per_op"] = float64(first.counts.Cycles) / float64(first.run.applied)
		out.Metrics["epochs_per_op"] = float64(first.counts.Epochs.Persisted) / float64(first.run.applied)
		return out, nil
	}

	ms := metricSet{}
	applied := float64(first.run.applied)
	c := first.counts
	var submitNS, retireNS, closeS, verifyS, replayS, dlS []float64
	for _, er := range rounds {
		submitNS = append(submitNS, float64(er.run.submitNS)/float64(er.run.applied))
		retireNS = append(retireNS, float64(er.run.retireNS)/float64(er.run.applied))
		closeS = append(closeS, er.rec.closeS)
		verifyS = append(verifyS, er.rec.verifyS)
		replayS = append(replayS, er.rec.replayS)
		dlS = append(dlS, er.rec.dlcheckS)
	}
	ms["engine.translate_ns_per_op"] = median(submitNS)
	ms["engine.retire_ns_per_op"] = median(retireNS)
	// From the untraced reference round: spans and the checker allocate too.
	ms["engine.allocs_per_op"] = float64(ref.run.mallocs) / applied
	ms["engine.bytes_per_op"] = float64(ref.run.allocBytes) / applied
	ms["engine.sim_cycles_per_op"] = float64(c.Cycles) / applied
	ms["engine.persists_per_op"] = float64(c.PersistedLines) / applied
	ms["engine.flushes_per_op"] = float64(c.Epochs.Flushes) / applied
	ms["engine.epochs_per_op"] = float64(c.Epochs.Persisted) / applied
	ms["engine.stall_cycles_per_op"] = float64(c.Stalls) / applied
	side := ops[:min(sz.SideOps, len(ops))]
	var err error
	if ms["engine.ops_per_s_b1"], err = sideRun(side, skeys, 1); err != nil {
		return nil, err
	}
	if ms["engine.ops_per_s_b256"], err = sideRun(side, skeys, 256); err != nil {
		return nil, err
	}
	ms["recovery.close_s"] = median(closeS)
	ms["recovery.verify_s"] = median(verifyS)
	ms["recovery.replay_s"] = median(replayS)
	ms["recovery.dlcheck_s"] = median(dlS)
	ms["recovery.records"] = float64(first.rec.rep.TotalPublishes)
	ms["recovery.keys"] = float64(first.rec.rep.RecoveredKeys)
	ms["recovery.ns_per_record"] = ratio((median(verifyS)+median(replayS))*1e9, float64(first.rec.rep.TotalPublishes))
	ms["recovery.durable_frac"] = ratio(float64(first.rec.rep.DurablePublishes), float64(first.rec.rep.TotalPublishes))
	ms["sim.kernel_ns_per_event"] = kernelNSPerEvent(cfg.kernelEvents())
	ms["machine.exec_cycles"] = float64(c.Cycles)
	ms["machine.epochs_persisted"] = float64(c.Epochs.Persisted)
	ms["machine.flushes"] = float64(c.Epochs.Flushes)
	ms["machine.persisted_lines"] = float64(c.PersistedLines)
	ms["engine_ops_per_s"] = median(engOpsPerS)
	ms["p99_us"] = tail
	ms["recover_s"] = median(recoverS)
	ms["fail_frac"] = ratio(float64(out.Failed), float64(out.Attempted))
	refRate := float64(ref.run.applied) / (ref.run.applyS() + ref.rec.totalS())
	ms["trace_overhead_frac"] = refRate/median(opsPerS) - 1
	out.Metrics = ms
	out.tracer = tr
	return out, nil
}
