// The flight recorder: a bounded, lock-free ring of the most recent
// completed-operation records per shard. Writers claim slots with an
// atomic ticket, so recording costs one atomic add plus a struct copy;
// the ring simply overwrites the oldest entries. Snapshot is meant for
// post-mortem use — the server checks and dumps the rings after its
// workers and connection handlers have stopped — and defensively drops
// slots whose ticket doesn't match their position (a writer raced the
// wraparound). WriteTrace renders the rings as a Chrome trace through
// obs.TraceWriter, the writer persistsim -trace uses.
package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync/atomic"

	"persistbarriers/internal/obs"
)

// Record is one completed operation in the flight recorder; its shard is
// the ring it sits in.
type Record struct {
	// Ticket is the record's global sequence number within its shard's
	// recorder (monotonic across wraparound).
	Ticket uint64
	Meta   Meta
	Span   Span
}

// Recorder is the per-shard ring. The zero value is unusable; init sizes
// it.
type Recorder struct {
	mask uint64
	pos  atomic.Uint64
	buf  []Record
}

// init sizes the ring to n slots, a power of two.
func (r *Recorder) init(n int) {
	r.buf = make([]Record, n)
	r.mask = uint64(n - 1)
}

// put claims the next ticket and stores rec in its slot.
func (r *Recorder) put(rec Record) {
	t := r.pos.Add(1) - 1
	rec.Ticket = t
	r.buf[t&r.mask] = rec
}

// Len reports how many records have ever been put (not the retained
// count, which is min(Len, capacity)).
func (r *Recorder) Len() uint64 { return r.pos.Load() }

// Snapshot returns the retained records in ticket order, oldest first.
// Slots whose stored ticket doesn't match their expected position —
// a writer racing the snapshot across a wraparound — are skipped.
func (r *Recorder) Snapshot() []Record {
	n := r.pos.Load()
	start := n - min(n, uint64(len(r.buf)))
	out := make([]Record, 0, n-start)
	for t := start; t < n; t++ {
		if rec := r.buf[t&r.mask]; rec.Ticket == t {
			out = append(out, rec)
		}
	}
	return out
}

// Ring returns shard's flight recorder.
func (t *Tracer) Ring(shard int) *Recorder { return &t.shards[shard].rec }

// WriteTrace renders every shard's flight ring as a Chrome trace through
// obs.TraceWriter: a process per shard, its args the recorded and
// retained counts and the wall-clock origin (unix ns); a span per
// retained op from its first stamp to its last, named for its kind, its
// args the record's identity and stamped cycles; nested in it a span per
// stamped segment, named as the stage histograms name it, and an instant
// for a stamp that bounds none (a refused op's ack-written). ts is ns
// since the origin (1 us on screen = 1 ns). A pipelined connection keeps
// several of a shard's ops in flight, so in start order each op takes
// the first lane whose last op ended before it starts. A wall clock that
// stepped back shows as a zero-length segment; an unstamped record is
// left out.
func (t *Tracer) WriteTrace(w io.Writer) error {
	rings := make([][]Record, len(t.shards))
	var origin int64 // the earliest retained stamp (0 while none is seen)
	for i := range t.shards {
		rings[i] = t.shards[i].rec.Snapshot()
		for _, r := range rings[i] {
			if first, _, ok := r.Span.bounds(); ok && (origin == 0 || first < origin) {
				origin = first
			}
		}
	}
	var tw obs.TraceWriter
	for shard, recs := range rings {
		tw.Process(shard, fmt.Sprintf("shard %d", shard), map[string]any{
			"recorded":       t.shards[shard].rec.Len(),
			"retained":       len(recs),
			"origin_unix_ns": origin,
		})
		sort.SliceStable(recs, func(i, j int) bool {
			a, _, _ := recs[i].Span.bounds()
			b, _, _ := recs[j].Span.bounds()
			return a < b
		})
		var laneEnd []int64 // the last wall stamp of each lane's newest op
		for _, r := range recs {
			first, last, ok := r.Span.bounds()
			if !ok {
				continue
			}
			lane := slices.IndexFunc(laneEnd, func(end int64) bool { return end < first })
			if lane == -1 {
				lane = len(laneEnd)
				laneEnd = append(laneEnd, 0)
				tw.Thread(shard, lane, fmt.Sprintf("ops.%d", lane))
			}
			laneEnd[lane] = last
			r.render(&tw, shard, lane, origin)
		}
	}
	return tw.Encode(w)
}

// bounds reports the span's earliest and latest wall stamps, and whether
// it has any.
func (s *Span) bounds() (first, last int64, ok bool) {
	for _, w := range s.Wall {
		if w == 0 {
			continue
		}
		if !ok || w < first {
			first = w
		}
		last, ok = max(last, w), true
	}
	return first, last, ok
}

// render adds one op's span, its segment spans and its lone stamps.
func (r *Record) render(tw *obs.TraceWriter, pid, tid int, origin int64) {
	sp, m := &r.Span, &r.Meta
	first, last, _ := sp.bounds()
	cycles := map[string]int64{}
	for st, c := range sp.Cycle {
		if c >= 0 {
			cycles[stageNames[st]] = c
		}
	}
	tw.Add(obs.TraceEvent{
		Name: m.Op, Cat: "op", Ph: "X",
		Ts: uint64(first - origin), Dur: uint64(last - first),
		Pid: pid, Tid: tid,
		Args: map[string]any{
			"ticket": r.Ticket, "session": m.Sess, "key": m.Key, "durable": m.Durable,
			"crashed": m.Crashed, "ok": m.OK, "cycles": cycles,
		},
	})
	var bound [NumStages]bool // stamps that bound a stamped segment
	for i := 0; i < NumSegments; i++ {
		a, b := sp.Wall[i], sp.Wall[i+1]
		if a == 0 || b == 0 {
			continue
		}
		bound[i], bound[i+1] = true, true
		tw.Add(obs.TraceEvent{
			Name: segmentNames[i], Cat: "segment", Ph: "X",
			Ts: uint64(a - origin), Dur: uint64(max(b, a) - a),
			Pid: pid, Tid: tid,
		})
	}
	for st, w := range sp.Wall {
		if w != 0 && !bound[st] {
			tw.Add(obs.TraceEvent{
				Name: stageNames[st], Cat: "stage", Ph: "i",
				Ts: uint64(w - origin), Pid: pid, Tid: tid, S: "t",
			})
		}
	}
}
