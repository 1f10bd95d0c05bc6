package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from outside it: the
// benchmark wraps the layer's public function and notes when it entered
// and left. Spans of one unit of work (a simulation job, an engine batch,
// a client request) share Op; Parent is the index of the span that caused
// this one, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one branch per call site. It is not
// safe for concurrent use; concurrent drivers keep one tracer each and
// merge at the end.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: t.now(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	t.spans[i].EndNS = t.now()
	return time.Duration(t.spans[i].EndNS - t.spans[i].StartNS)
}

// add records a span whose endpoints were measured elsewhere (client
// completions carry their own timestamps).
func (t *tracer) add(name string, startNS, endNS int64, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: startNS, EndNS: endNS, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// merge appends another tracer's spans, rebasing their parent indices.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	base := len(t.spans)
	shift := int64(o.epoch.Sub(t.epoch))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.StartNS += shift
		s.EndNS += shift
		t.spans = append(t.spans, s)
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover — the layer's own time.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - child[i])
	}
	return out
}

// traceFile is what benchmark/out/<workload>.trace.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Note     string             `json:"note"`
	SelfNS   map[string]int64   `json:"self_ns"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

// write stores the spans with the per-name self times and the run's
// per-layer counts, so ratios can be read where the work happened.
func (t *tracer) write(path, workload string, seed uint64, counts map[string]float64) error {
	if t == nil {
		return nil
	}
	tf := traceFile{
		Workload: workload, Seed: seed,
		Note:   "times are ns since the run's trace epoch; parent indexes spans; spans of one unit of work share op",
		SelfNS: make(map[string]int64), Counts: counts, Spans: t.spans,
	}
	for name, d := range t.selfTimes() {
		tf.SelfNS[name] = int64(d)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(&tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
