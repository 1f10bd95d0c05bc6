package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/telemetry"
)

// TestPlantedEarlyAckCaught plants the bug the flight check exists for:
// one traced op acked at a watermark past anything recovery finds
// durable, as if its ack had escaped before its write persisted. Close
// must refuse the drain, count that one ack, and still write the trace
// for the post-mortem.
func TestPlantedEarlyAckCaught(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	s, err := New(pmkv.ShardedConfig{Engine: pmkv.Config{Machine: pmkv.SmallMachine()}}, Options{FlightPath: dump})
	if err != nil {
		t.Fatal(err)
	}
	var span telemetry.Span
	span.Reset()
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		span.Stamp(st)
	}
	s.tracer.Complete(0, &span, telemetry.Meta{Op: "put", Sess: 1, Key: "k", Durable: 1, OK: true})

	rep, err := s.Close()
	if err == nil || !strings.Contains(err.Error(), "acked ops beyond the recovered durable prefix") {
		t.Fatalf("Close returned %v, want the flight check's early-ack error", err)
	}
	if rep.Flight == nil || rep.Flight.BadAcks != 1 {
		t.Fatalf("flight check %+v, want 1 bad ack", rep.Flight)
	}
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("the trace was not written: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil || len(events) == 0 {
		t.Fatalf("the trace does not parse as a non-empty event array (%v):\n%s", err, raw)
	}
}
