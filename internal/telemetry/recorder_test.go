package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestRecorderRetainsTail(t *testing.T) {
	var r Recorder
	r.init(4)
	for i := 0; i < 10; i++ {
		r.put(Record{Sess: i})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, rec := range got {
		wantTicket := uint64(6 + i)
		if rec.Ticket != wantTicket || rec.Sess != 6+i {
			t.Fatalf("slot %d: ticket %d sess %d, want ticket %d", i, rec.Ticket, rec.Sess, wantTicket)
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
		r.put(Record{Op: "put", Key: fmt.Sprintf("k%d", i)})
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0].Key != "k0" || got[2].Key != "k2" {
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
				r.put(Record{Sess: w, Durable: i})
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

func TestTracerDumpShape(t *testing.T) {
	tr := New(2)
	gaps := [NumSegments]int64{1, 2, 3, 4, 5, 6, 7}
	tr.Complete(0, stampedSpan(100, gaps), Meta{Op: "put", Sess: 1, Key: "a", Durable: 1, OK: true})
	tr.Complete(1, stampedSpan(200, gaps), Meta{Op: "del", Sess: 2, Key: "b", Durable: 2, Crashed: true, OK: true})

	var buf bytes.Buffer
	if err := tr.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump does not round-trip: %v", err)
	}
	if d.SchemaVersion != FlightSchemaVersion {
		t.Fatalf("schema_version = %d", d.SchemaVersion)
	}
	if len(d.Stages) != int(NumStages) || d.Stages[0] != "conn-read" || d.Stages[7] != "ack-written" {
		t.Fatalf("stages = %v", d.Stages)
	}
	if len(d.Shards) != 2 {
		t.Fatalf("shards = %d", len(d.Shards))
	}
	if d.Shards[0].Recorded != 1 || d.Shards[0].Retained != 1 || len(d.Shards[0].Events) != 1 {
		t.Fatalf("shard 0 = %+v", d.Shards[0])
	}
	ev := d.Shards[1].Events[0]
	if ev.Op != "del" || !ev.Crashed || ev.Durable != 2 || ev.Key != "b" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Span.Wall[StageConnRead] != 200 {
		t.Fatalf("span not carried: %+v", ev.Span)
	}
}
