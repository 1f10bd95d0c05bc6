// Package telemetry is the live pipeline tracer for the pmkv serving
// path. Each request carries a preallocated Span stamped (wall-clock ns
// plus, where the shard worker knows it, sim cycle) at fixed pipeline
// stages — conn-read, shard-route, mailbox-enqueue, dequeue, translate,
// submit, durable-watermark, ack-written — and the completed span is
// folded into per-shard duration histograms, one per stage segment, so
// a scrape can answer the question the paper asks of the hardware: where
// does persist latency hide?
//
// telemetry owns the wall-clock domain of the service's statistics; the
// simulated-cycle domain is the machine's own counters
// (machine.Counters, read per shard through pmkv.Engine.Stats). Neither
// owns a histogram — both fold into internal/hist, and this package's
// Prometheus renderer serves both.
//
// The hot path is allocation-free and lock-free: stamping writes into a
// caller-owned Span, folding is a handful of atomic adds, and the flight
// recorder claims ring slots with an atomic ticket. A nil *Tracer and a
// nil *Span are both valid and inert, so the uninstrumented serving path
// costs exactly one nil check per stamp site — the same discipline as
// internal/obs's Probe.
package telemetry

import (
	"time"

	"persistbarriers/internal/hist"
)

// Stage enumerates the stamp points of one operation's path through the
// server, in pipeline order.
type Stage uint8

const (
	// StageConnRead: the request line has been read off the socket.
	StageConnRead Stage = iota
	// StageShardRoute: the request is parsed and hashed to its shard.
	StageShardRoute
	// StageEnqueue: the request is handed to the shard's mailbox. It is
	// stamped just before the send, after which the span is no longer the
	// submitter's to write, so time blocked on a full mailbox counts as
	// queue wait.
	StageEnqueue
	// StageDequeue: the shard worker pulled the request off the mailbox.
	StageDequeue
	// StageTranslate: the group commit holding this request finished
	// translating and feeding its ops to the simulated cores.
	StageTranslate
	// StageSubmit: the batch's ops all retired (visibility settled; the
	// epochs holding its publishes keep persisting in the background).
	StageSubmit
	// StageDurable: the shard's durable-prefix watermark covered the
	// request and its ack was released.
	StageDurable
	// StageAckWritten: the response was encoded and flushed to the socket.
	StageAckWritten

	// NumStages is the stamp-point count; segments between consecutive
	// stamps number NumStages-1.
	NumStages
)

// stageNames label the stamp points, in Stage order.
var stageNames = [NumStages]string{
	"conn-read", "shard-route", "mailbox-enqueue", "dequeue",
	"translate", "submit", "durable-watermark", "ack-written",
}

// String implements fmt.Stringer.
func (s Stage) String() string { return stageNames[s] }

// NumSegments is the number of consecutive-stage duration histograms.
const NumSegments = int(NumStages) - 1

// segmentNames label the durations between consecutive stamps; segment i
// covers Stage(i) -> Stage(i+1). The names answer "which part of the
// pipeline": parse+route, job hand-off, mailbox admission and wait, batch
// gather + translate+feed, machine pump to retirement, barrier-drain to
// the durable watermark, and the reply hop + response write syscall.
var segmentNames = [NumSegments]string{
	"route",        // conn-read        -> shard-route
	"enqueue",      // shard-route      -> mailbox-enqueue
	"queue_wait",   // mailbox-enqueue  -> dequeue
	"translate",    // dequeue          -> translate (incl. batch gather)
	"retire",       // translate        -> submit (pump to retirement)
	"durable_wait", // submit           -> durable watermark
	"ack_write",    // durable          -> ack-written
}

// Span is one operation's preallocated stage record. Wall holds unix
// nanoseconds per stamped stage (0 = never stamped); Cycle holds the
// owning shard's simulated clock where the stamping site knows it
// (-1 = unknown). A nil *Span is valid: every method no-ops.
type Span struct {
	Wall  [NumStages]int64
	Cycle [NumStages]int64
}

// Reset clears the span for reuse.
func (s *Span) Reset() {
	if s == nil {
		return
	}
	for i := range s.Wall {
		s.Wall[i] = 0
		s.Cycle[i] = -1
	}
}

// Stamp records the wall clock at stage st.
func (s *Span) Stamp(st Stage) {
	if s == nil {
		return
	}
	s.Wall[st] = time.Now().UnixNano()
}

// StampAt records the wall clock and the shard's sim cycle at stage st.
func (s *Span) StampAt(st Stage, cycle int64) {
	if s == nil {
		return
	}
	s.Wall[st] = time.Now().UnixNano()
	s.Cycle[st] = cycle
}

// Meta carries the per-op identity folded into the flight recorder at
// completion time.
type Meta struct {
	// Op is the operation kind as the server names it (e.g. "put").
	Op string
	// Sess is the client session id.
	Sess int
	// Key is the operation's key (string header copy; no allocation).
	Key string
	// Durable is the shard's durable-prefix watermark at ack time.
	Durable int
	// Crashed marks an ack delivered as the shard lost power.
	Crashed bool
	// OK marks a successfully served op (false: refused or errored).
	OK bool
}

// shardTel is one shard's telemetry state.
type shardTel struct {
	segs [NumSegments]hist.Atomic
	// fast / fallback hold end-to-end GET latency by read path: served
	// from the committed-state index on the caller's goroutine, or routed
	// through the shard mailbox like a write.
	fast     hist.Atomic
	fallback hist.Atomic
	rec      Recorder
}

// ringSize is the flight-recorder capacity per shard, a power of two.
const ringSize = 1024

// Tracer owns per-shard stage histograms and flight recorders. A nil
// *Tracer is valid and inert — servers built without telemetry pass nil
// everywhere and pay one branch per call site.
type Tracer struct {
	shards []shardTel
}

// New builds a tracer for the given shard count (at least 1).
func New(shards int) *Tracer {
	if shards < 1 {
		shards = 1
	}
	t := &Tracer{shards: make([]shardTel, shards)}
	for i := range t.shards {
		t.shards[i].rec.init(ringSize)
	}
	return t
}

// Enabled reports whether the tracer is live.
func (t *Tracer) Enabled() bool { return t != nil }

// Shards reports the shard count (0 when nil).
func (t *Tracer) Shards() int {
	if t == nil {
		return 0
	}
	return len(t.shards)
}

// Complete folds a finished span into shard's segment histograms and
// appends one record to its flight recorder. Segments whose endpoints
// were not both stamped are skipped. Safe from any goroutine;
// allocation-free.
func (t *Tracer) Complete(shard int, sp *Span, m Meta) {
	if t == nil || sp == nil || shard < 0 || shard >= len(t.shards) {
		return
	}
	st := &t.shards[shard]
	for i := 0; i < NumSegments; i++ {
		a, b := sp.Wall[i], sp.Wall[i+1]
		if a == 0 || b == 0 {
			continue
		}
		st.segs[i].Observe(uint64(max(b-a, 0)))
	}
	st.rec.put(Record{Meta: m, Span: *sp})
}

// ObserveReadPath folds one completed GET's end-to-end duration (ns,
// conn-read to ack-written) into shard's fast or fallback read
// histogram. Safe from any goroutine; allocation-free.
func (t *Tracer) ObserveReadPath(shard int, fast bool, d uint64) {
	if t == nil || shard < 0 || shard >= len(t.shards) {
		return
	}
	if fast {
		t.shards[shard].fast.Observe(d)
	} else {
		t.shards[shard].fallback.Observe(d)
	}
}

// StageStats summarizes one segment's duration distribution in
// microseconds (the exposition unit of the human-facing summaries; the
// Prometheus endpoint reports seconds).
type StageStats struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
}

// ReadFastStage / ReadFallbackStage name the two synthetic rows the
// stage summaries append after the pipeline segments: end-to-end GET
// latency by read path (index fast path vs mailbox fallback).
const (
	ReadFastStage     = "read_fast"
	ReadFallbackStage = "read_fallback"
)

func stageRow(name string, h *hist.Hist) StageStats {
	return StageStats{
		Stage:  name,
		Count:  h.Total(),
		MeanUS: h.Mean() / 1e3,
		P50US:  float64(h.Percentile(50)) / 1e3,
		P90US:  float64(h.Percentile(90)) / 1e3,
		P99US:  float64(h.Percentile(99)) / 1e3,
	}
}

// stageDists is one shard's (or the pool's) histograms in summary-row
// order: the pipeline segments, then the fast and fallback read paths.
type stageDists [NumSegments + 2]hist.Hist

func (st *shardTel) snapshot() stageDists {
	var hs stageDists
	for i := range st.segs {
		hs[i] = st.segs[i].Snapshot()
	}
	hs[NumSegments] = st.fast.Snapshot()
	hs[NumSegments+1] = st.fallback.Snapshot()
	return hs
}

// stageName labels row i of a stageDists.
func stageName(i int) string {
	switch i {
	case NumSegments:
		return ReadFastStage
	case NumSegments + 1:
		return ReadFallbackStage
	}
	return segmentNames[i]
}

func summarize(hs *stageDists) []StageStats {
	out := make([]StageStats, len(hs))
	for i := range hs {
		out[i] = stageRow(stageName(i), &hs[i])
	}
	return out
}

// ShardStageSummary summarizes one shard's segments plus its read-path
// rows.
func (t *Tracer) ShardStageSummary(shard int) []StageStats {
	if t == nil || shard < 0 || shard >= len(t.shards) {
		return nil
	}
	hs := t.shards[shard].snapshot()
	return summarize(&hs)
}

// StageSummary merges every shard's histograms (exact: bucket counts
// add) and summarizes the pooled distributions, read-path rows included.
func (t *Tracer) StageSummary() []StageStats {
	if t == nil {
		return nil
	}
	var pooled stageDists
	for s := range t.shards {
		hs := t.shards[s].snapshot()
		for i := range hs {
			pooled[i].Merge(&hs[i])
		}
	}
	return summarize(&pooled)
}
