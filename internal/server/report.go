package server

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/telemetry"
)

// Report is the verified outcome of a drain. In-process callers read its
// fields; WriteText renders the lines pmkvd prints, which child-process
// callers (scripts/scale_smoke.sh, benchmark/server.go) match.
type Report struct {
	// Crashed reports that some shard lost power before the drain.
	Crashed bool
	// Shards holds one entry per shard, in shard order. It is empty when
	// recovery verification failed: Close then returns the error and a
	// Report carrying only DL.
	Shards []ShardReport
	// RecoveredKeys sums the shards' recovered keys; Fingerprint combines
	// their recovered-state fingerprints.
	RecoveredKeys int
	Fingerprint   string
	// DL is the durable-linearizability verdict over every shard (nil
	// unless the engines ran with Config.Check).
	DL *dlcheck.Verdict
	// Stages is the pooled stage breakdown and Flight the flight-recorder
	// cross-check (both nil without tracing).
	Stages []telemetry.StageStats
	Flight *FlightCheck
}

// ShardReport is one shard's recovery outcome.
type ShardReport struct {
	Shard   int
	Crashed bool
	// Cycles is the shard's simulated clock at the drain (the crash
	// instant where it lost power).
	Cycles           sim.Cycle
	DurablePublishes int
	TotalPublishes   int
	Keys             int
	EpochsPersisted  uint64
	// LatencyP50/P99 are persist-latency percentiles in cycles.
	LatencyP50, LatencyP99 sim.Cycle
	// Folded + Retained = TotalPublishes: records released behind the
	// durable watermark, and the tail recovery walked.
	Folded, Retained int
	// SimCycles splits the shard's simulated time into the worker's Pump
	// and Gap steps.
	SimCycles pmkv.StepCycles
}

// FlightCheck cross-checks the flight recorder against the recovery
// reports. Every non-crashed acked op carried a durable watermark at ack
// time, and the final image's durable prefix can only have grown since —
// so the largest acked watermark per shard must be covered by that
// shard's recovered DurablePublishes. A violation means an ack escaped
// before its write was durable, which is exactly the bug class the
// paper's write-entry discipline exists to prevent.
type FlightCheck struct {
	Events   int    // records the rings still held
	DumpPath string // "" = not written
	BadAcks  int    // acked watermarks beyond the recovered durable prefix
}

// Close drains (BeginDrain, if not begun), waits out every connection,
// closes the store — per-shard drain, or crash snapshot where a shard
// lost power — verifies every shard's recovery invariants, and writes the
// flight dump when one was asked for. The Report is returned alongside
// any error, holding whatever could be established.
func (s *Server) Close() (*Report, error) {
	s.BeginDrain()
	s.wg.Wait()
	crashed := s.store.Crashed()
	results, err := s.store.Close()
	verdicts := make([]*dlcheck.Verdict, len(results))
	for i, r := range results {
		verdicts[i] = r.DL
	}
	rep := &Report{DL: dlcheck.Merge(verdicts)}
	if err != nil {
		// Close folds checker rejections into its error; the verdict still
		// travels so the smoke scripts can grep its line on either path.
		return rep, fmt.Errorf("recovery verification FAILED: %w", err)
	}
	rep.Crashed = crashed
	rep.Shards = make([]ShardReport, len(results))
	for i, r := range results {
		rep.Shards[i] = ShardReport{
			Shard:            r.Shard,
			Crashed:          r.Crashed,
			Cycles:           r.Cycles,
			DurablePublishes: r.Report.DurablePublishes,
			TotalPublishes:   r.Report.TotalPublishes,
			Keys:             r.Report.RecoveredKeys,
			EpochsPersisted:  r.Stats.Epochs.Persisted,
			LatencyP50:       sim.Cycle(r.Stats.PersistLatency.Percentile(50)),
			LatencyP99:       sim.Cycle(r.Stats.PersistLatency.Percentile(99)),
			Folded:           r.Stats.Folded,
			Retained:         r.Stats.Retained,
			SimCycles:        r.SimCycles,
		}
		rep.RecoveredKeys += r.Report.RecoveredKeys
	}
	rep.Fingerprint = pmkv.CombineFingerprints(results)
	if s.tracer.Enabled() {
		rep.Stages = s.tracer.StageSummary()
		rep.Flight, err = s.flightCheck(rep.Shards)
	}
	return rep, err
}

// flightCheck runs the FlightCheck and writes the dump, a Chrome trace
// of the rings (shards are in shard order, as pmkv.ShardedStore.Close
// returns them).
func (s *Server) flightCheck(shards []ShardReport) (*FlightCheck, error) {
	fc := &FlightCheck{DumpPath: s.opts.FlightPath}
	for i, sh := range shards {
		recs := s.tracer.Ring(i).Snapshot()
		fc.Events += len(recs)
		for _, r := range recs {
			if m := r.Meta; m.OK && !m.Crashed && m.Durable > sh.DurablePublishes {
				fc.BadAcks++
				fmt.Fprintf(os.Stderr, "pmkvd: shard %d op %s %q acked at watermark %d but only %d publishes recovered durable\n",
					i, m.Op, m.Key, m.Durable, sh.DurablePublishes)
			}
		}
	}
	if fc.DumpPath != "" {
		var trace bytes.Buffer
		err := s.tracer.WriteTrace(&trace)
		if err == nil {
			err = os.WriteFile(fc.DumpPath, trace.Bytes(), 0o666)
		}
		if err != nil {
			return nil, fmt.Errorf("flight dump: %w", err)
		}
	}
	if fc.BadAcks > 0 {
		return fc, fmt.Errorf("flight recorder: %d acked ops beyond the recovered durable prefix", fc.BadAcks)
	}
	return fc, nil
}

// WriteText renders the report as pmkvd prints it. The line shapes are a
// contract: benchmark/server.go and scripts/scale_smoke.sh match them, so
// new fields go after the ones those read.
func (r *Report) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	if len(r.Shards) > 0 {
		mode := "clean drain"
		if r.Crashed {
			mode = "CRASH"
		}
		p("pmkvd: %s across %d shards\n", mode, len(r.Shards))
		for _, sh := range r.Shards {
			shardMode := "clean"
			if sh.Crashed {
				shardMode = fmt.Sprintf("crashed at cycle %d", sh.Cycles)
			}
			p("  shard %d: %s after %d cycles; publishes %d durable / %d total; %d keys; %d epochs persisted (p50=%d p99=%d cycles); folded %d / retained %d; pump %d / gap %d cycles\n",
				sh.Shard, shardMode, sh.Cycles, sh.DurablePublishes, sh.TotalPublishes,
				sh.Keys, sh.EpochsPersisted, sh.LatencyP50, sh.LatencyP99, sh.Folded, sh.Retained,
				sh.SimCycles.Pump, sh.SimCycles.Gap)
		}
		p("  recovered keys: %d; combined fingerprint %.16s\n", r.RecoveredKeys, r.Fingerprint)
		p("  recovery invariants: OK\n")
	}
	if r.DL != nil {
		p("  durable linearizability: %s\n", r.DL)
	}
	if len(r.Stages) > 0 {
		p("  stage breakdown (pooled across shards, microseconds):\n")
		for _, st := range r.Stages {
			if st.Count > 0 {
				p("    %-12s n=%-8d mean=%-10.1f p50=%-10.1f p90=%-10.1f p99=%.1f\n",
					st.Stage, st.Count, st.MeanUS, st.P50US, st.P90US, st.P99US)
			}
		}
	}
	if f := r.Flight; f != nil {
		where := "not written (-flight-dump unset)"
		if f.DumpPath != "" {
			where = f.DumpPath
		}
		verdict := "OK (acked watermarks within durable prefix)"
		if f.BadAcks > 0 {
			verdict = fmt.Sprintf("FAILED (%d acks beyond durable prefix)", f.BadAcks)
		}
		p("  flight recorder: %d events, dump %s, consistency %s\n", f.Events, where, verdict)
	}
	return err
}
