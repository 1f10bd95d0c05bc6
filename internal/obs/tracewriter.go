package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"maps"
	"slices"
	"strings"
)

// TraceWriter is the repository's one Chrome trace-event writer (the JSON
// array format, viewable in Perfetto or chrome://tracing): the event
// list, the process and thread names, and the encode. ChromeTracer
// renders the simulator's probe stream through it (persistsim -trace)
// and the server renders its flight recorder through it (pmkvd
// -flight-dump), so both open in one viewer. The zero value is ready to
// use.
type TraceWriter struct {
	events []TraceEvent
	meta   map[metaKey]map[string]any // the name records' args
}

// TraceEvent is one trace-event record. Field order is the JSON order.
// Ts and Dur are in the format's microsecond unit; what one unit means is
// the producer's choice (a simulated cycle for ChromeTracer).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// metaKey names one metadata record: "process_name" (tid 0) or
// "thread_name".
type metaKey struct {
	pid, tid int
	name     string
}

// Add appends one event.
func (w *TraceWriter) Add(ev TraceEvent) { w.events = append(w.events, ev) }

// Process names process pid; args, if any, ride along in its metadata
// record beside the name. The first call for a pid wins.
func (w *TraceWriter) Process(pid int, name string, args map[string]any) {
	w.name(metaKey{pid, 0, "process_name"}, name, args)
}

// Thread names thread tid of process pid. The first call wins.
func (w *TraceWriter) Thread(pid, tid int, name string) {
	w.name(metaKey{pid, tid, "thread_name"}, name, nil)
}

func (w *TraceWriter) name(key metaKey, name string, args map[string]any) {
	if _, ok := w.meta[key]; ok {
		return
	}
	if w.meta == nil {
		w.meta = make(map[metaKey]map[string]any)
	}
	w.meta[key] = map[string]any{"name": name}
	maps.Copy(w.meta[key], args)
}

// Encode writes the trace as an indented JSON array: the metadata records
// first, sorted by (pid, tid, name), then the events sorted by timestamp.
// The sort is stable, so on a tie an outer span added before its nested
// span stays first. Encode may be called once.
func (w *TraceWriter) Encode(out io.Writer) error {
	var meta []TraceEvent
	for k, args := range w.meta {
		meta = append(meta, TraceEvent{Name: k.name, Ph: "M", Pid: k.pid, Tid: k.tid, Args: args})
	}
	slices.SortFunc(meta, func(a, b TraceEvent) int {
		return cmp.Or(cmp.Compare(a.Pid, b.Pid), cmp.Compare(a.Tid, b.Tid), strings.Compare(a.Name, b.Name))
	})
	slices.SortStableFunc(w.events, func(a, b TraceEvent) int { return cmp.Compare(a.Ts, b.Ts) })

	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	return enc.Encode(append(meta, w.events...))
}
