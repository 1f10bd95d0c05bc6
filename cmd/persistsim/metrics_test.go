package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/workload"
)

// TestMetricsHeaderIsTheFamilyTable: after start and window there is one
// column per machine.Families sample, named as the table names it, and no
// name repeats.
func TestMetricsHeaderIsTheFamilyTable(t *testing.T) {
	cols := columns()
	if cols[0] != "start" || cols[1] != "window" {
		t.Fatalf("header starts %q", cols[:2])
	}
	var zero machine.Counters
	i := 2
	for _, f := range machine.Families {
		for _, s := range f.Samples(&zero) {
			want := f.Name
			if f.Label != "" {
				want += "_" + s.Label
			}
			if i >= len(cols) || cols[i] != want {
				t.Fatalf("column %d is not %q: %q", i, want, cols)
			}
			i++
		}
	}
	if i != len(cols) {
		t.Fatalf("%d columns, the table has %d", len(cols), i)
	}
	seen := make(map[string]bool)
	for _, c := range cols {
		if seen[c] {
			t.Errorf("column %q repeats", c)
		}
		seen[c] = true
	}
	for _, c := range []string{"txs", "conflicts_intra", "epoch_flushes", "nvram_wait_cycles", "stall_cycles_write-buffer"} {
		if !seen[c] {
			t.Errorf("no column %q", c)
		}
	}
}

// TestMetricsCSVAndJSONAgree: the two exports of one windowed run carry
// the same rows, column for column.
func TestMetricsCSVAndJSONAgree(t *testing.T) {
	p, err := workload.Queue(workload.Spec{Threads: 8, OpsPerThread: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores, cfg.Model, cfg.IDT, cfg.PF = 8, machine.LB, true, true
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	w := &windows{window: 5000}
	if _, err := m.RunEvery(w.window, w.observe); err != nil {
		t.Fatal(err)
	}
	if len(w.rows) < 2 {
		t.Fatalf("%d windows: too short a run to compare rows", len(w.rows))
	}
	var csvOut, jsonOut bytes.Buffer
	if err := w.writeCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if err := w.writeJSON(&jsonOut); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&csvOut).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var objs []map[string]uint64
	if err := json.Unmarshal(jsonOut.Bytes(), &objs); err != nil {
		t.Fatalf("JSON export does not parse: %v", err)
	}
	if len(recs) != len(w.rows)+1 || len(objs) != len(w.rows) {
		t.Fatalf("%d CSV lines and %d JSON objects for %d windows", len(recs), len(objs), len(w.rows))
	}
	header := recs[0]
	for i, obj := range objs {
		if len(obj) != len(header) {
			t.Fatalf("window %d: %d JSON keys, %d columns", i, len(obj), len(header))
		}
		for j, col := range header {
			v, err := strconv.ParseUint(recs[i+1][j], 10, 64)
			if err != nil || v != obj[col] {
				t.Errorf("window %d %s: CSV %q, JSON %d", i, col, recs[i+1][j], obj[col])
			}
		}
		if obj["start"] != uint64(i)*5000 || obj["window"] != 5000 {
			t.Errorf("window %d starts at %d, %d wide", i, obj["start"], obj["window"])
		}
	}
}

// TestMetricsEmptyExports: a run with no windows writes the header alone,
// and an empty JSON array.
func TestMetricsEmptyExports(t *testing.T) {
	w := &windows{window: 100}
	var csvOut, jsonOut bytes.Buffer
	if err := w.writeCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if err := w.writeJSON(&jsonOut); err != nil {
		t.Fatal(err)
	}
	if got, want := csvOut.String(), strings.Join(columns(), ",")+"\n"; got != want {
		t.Errorf("empty CSV = %q, want the header only", got)
	}
	if got := strings.TrimSpace(jsonOut.String()); got != "[]" {
		t.Errorf("empty JSON = %q, want []", got)
	}
}
