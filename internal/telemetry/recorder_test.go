package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func TestRecorderRetainsTail(t *testing.T) {
	var r Recorder
	r.init(4)
	for i := 0; i < 10; i++ {
		r.put(Record{Meta: Meta{Sess: i}})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, rec := range got {
		wantTicket := uint64(6 + i)
		if rec.Ticket != wantTicket || rec.Meta.Sess != 6+i {
			t.Fatalf("slot %d: ticket %d sess %d, want ticket %d", i, rec.Ticket, rec.Meta.Sess, wantTicket)
		}
	}
	if r.Len() != 10 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestRecorderSnapshotBeforeWrap(t *testing.T) {
	var r Recorder
	r.init(8)
	for i := 0; i < 3; i++ {
		r.put(Record{Meta: Meta{Op: "put", Key: fmt.Sprintf("k%d", i)}})
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0].Meta.Key != "k0" || got[2].Meta.Key != "k2" {
		t.Fatalf("snapshot = %+v", got)
	}
}

func TestRecorderConcurrentPut(t *testing.T) {
	var r Recorder
	r.init(1024)
	var wg sync.WaitGroup
	const writers, each = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.put(Record{Meta: Meta{Sess: w, Durable: i}})
			}
		}(w)
	}
	wg.Wait()
	got := r.Snapshot()
	if len(got) != writers*each {
		t.Fatalf("retained %d, want %d", len(got), writers*each)
	}
	// Tickets must be a contiguous, ordered sequence.
	for i, rec := range got {
		if rec.Ticket != uint64(i) {
			t.Fatalf("ticket %d at position %d", rec.Ticket, i)
		}
	}
}

// flightEvent is one record of a rendered flight trace (encoding/json
// matches the lower-case trace keys to these names).
type flightEvent struct {
	Name, Cat, Ph string
	Ts, Dur       uint64
	Pid, Tid      int
	Args          map[string]any
}

func (ev *flightEvent) end() uint64 { return ev.Ts + ev.Dur }

func argInt(t *testing.T, args map[string]any, key string) int64 {
	t.Helper()
	n, err := args[key].(json.Number).Int64()
	if err != nil {
		t.Fatalf("arg %q = %v: %v", key, args[key], err)
	}
	return n
}

// TestFlightTraceIsLossless renders two shards' rings — shard 0 with a
// crashed op, a fast-path GET and a refused op among overlapping ops,
// shard 1's ring wrapped — and rebuilds every retained record from the
// trace alone: ticket, op, session, key, watermark, crashed, ok, each
// stamped wall time and each stamped cycle. Each segment lies inside its
// op, and on one thread two spans nest or do not overlap.
func TestFlightTraceIsLossless(t *testing.T) {
	tr := New(2)
	tr.shards[1].rec.init(4)
	const base = 1_700_000_000_000_000_000 // unix ns: wall times survive in full
	gaps := [NumSegments]int64{40, 5, 300, 120, 900, 2500, 60}
	cycled := func(at int64) *Span {
		sp := stampedSpan(at, gaps)
		sp.Cycle[StageTranslate], sp.Cycle[StageSubmit], sp.Cycle[StageDurable] = 1000+at%1000, 1400, 2100
		return sp
	}
	tr.Complete(0, cycled(base+10), Meta{Op: "put", Sess: 1, Key: "a", Durable: 4, OK: true})
	tr.Complete(0, cycled(base+500), Meta{Op: "del", Sess: 2, Key: "b", Durable: 4, Crashed: true, OK: true})
	fast := &Span{}
	fast.Reset()
	fast.Wall[StageConnRead], fast.Wall[StageShardRoute] = base+700, base+760
	fast.Wall[StageDurable], fast.Wall[StageAckWritten] = base+800, base+900
	tr.Complete(0, fast, Meta{Op: "get", Sess: 3, Key: "a", Durable: 5, OK: true})
	refused := &Span{} // routed, refused by a draining shard, answered
	refused.Reset()
	refused.Wall[StageConnRead], refused.Wall[StageShardRoute] = base+9000, base+9050
	refused.Wall[StageAckWritten] = base + 9400
	tr.Complete(0, refused, Meta{Op: "put", Sess: 4, Key: "c"})
	for i := range int64(10) {
		tr.Complete(1, cycled(base+200*i), Meta{Op: "put", Sess: int(i), Key: fmt.Sprintf("k%d", i), Durable: int(i), OK: true})
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var events []flightEvent
	if err := dec.Decode(&events); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}

	origin := int64(-1)
	var ops []*flightEvent
	rebuilt := map[*flightEvent]*Record{}
	threads := map[[2]int][]*flightEvent{}
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Name == "process_name":
			shard := ev.Pid
			if name := ev.Args["name"]; name != fmt.Sprintf("shard %d", shard) {
				t.Errorf("process %d is named %v", shard, name)
			}
			if got, want := argInt(t, ev.Args, "recorded"), int64(tr.Ring(shard).Len()); got != want {
				t.Errorf("shard %d: recorded %d, want %d", shard, got, want)
			}
			if got, want := argInt(t, ev.Args, "retained"), int64(len(tr.Ring(shard).Snapshot())); got != want {
				t.Errorf("shard %d: retained %d, want %d", shard, got, want)
			}
			origin = argInt(t, ev.Args, "origin_unix_ns")
		case ev.Cat == "op":
			r := &Record{Ticket: uint64(argInt(t, ev.Args, "ticket")), Meta: Meta{
				Op:      ev.Name,
				Sess:    int(argInt(t, ev.Args, "session")),
				Key:     ev.Args["key"].(string),
				Durable: int(argInt(t, ev.Args, "durable")),
				Crashed: ev.Args["crashed"].(bool),
				OK:      ev.Args["ok"].(bool),
			}}
			r.Span.Reset()
			for st := Stage(0); st < NumStages; st++ {
				if c, ok := ev.Args["cycles"].(map[string]any)[stageNames[st]]; ok {
					r.Span.Cycle[st], _ = c.(json.Number).Int64()
				}
			}
			ops = append(ops, ev)
			rebuilt[ev] = r
		}
		if ev.Ph == "X" {
			key := [2]int{ev.Pid, ev.Tid}
			threads[key] = append(threads[key], ev)
		}
	}
	if origin != base+10 {
		t.Fatalf("origin %d, want the earliest retained stamp %d", origin, int64(base+10))
	}

	// Each segment and lone stamp belongs to exactly one op on its thread.
	for i := range events {
		ev := &events[i]
		if ev.Cat != "segment" && ev.Cat != "stage" {
			continue
		}
		var owner *flightEvent
		for _, op := range ops {
			if op.Pid == ev.Pid && op.Tid == ev.Tid && op.Ts <= ev.Ts && ev.end() <= op.end() {
				if owner != nil {
					t.Fatalf("%s at %d lies inside two ops", ev.Name, ev.Ts)
				}
				owner = op
			}
		}
		if owner == nil {
			t.Fatalf("%s at %d on shard %d lane %d lies inside no op", ev.Name, ev.Ts, ev.Pid, ev.Tid)
		}
		wall := &rebuilt[owner].Span.Wall
		if seg := slices.Index(segmentNames[:], ev.Name); ev.Cat == "segment" && seg >= 0 {
			wall[seg], wall[seg+1] = origin+int64(ev.Ts), origin+int64(ev.end())
			continue
		}
		for st := Stage(0); st < NumStages; st++ {
			if stageNames[st] == ev.Name {
				wall[st] = origin + int64(ev.Ts)
			}
		}
	}

	for shard := range 2 {
		var got []Record
		for _, op := range ops {
			if op.Pid == shard {
				got = append(got, *rebuilt[op])
			}
		}
		slices.SortFunc(got, func(a, b Record) int { return int(a.Ticket) - int(b.Ticket) })
		if want := tr.Ring(shard).Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d: rebuilt\n%+v\nwant\n%+v", shard, got, want)
		}
	}

	lanes := 0
	for key, spans := range threads {
		if key[0] == 1 {
			lanes++
		}
		for i, a := range spans {
			for _, b := range spans[i+1:] {
				disjoint := a.end() <= b.Ts || b.end() <= a.Ts
				nested := (a.Ts <= b.Ts && b.end() <= a.end()) || (b.Ts <= a.Ts && a.end() <= b.end())
				if !disjoint && !nested {
					t.Errorf("shard %d lane %d: %s [%d,%d] and %s [%d,%d] overlap", key[0], key[1],
						a.Name, a.Ts, a.end(), b.Name, b.Ts, b.end())
				}
			}
		}
	}
	if lanes < 2 {
		t.Errorf("shard 1's overlapping ops share %d lane", lanes)
	}
}
