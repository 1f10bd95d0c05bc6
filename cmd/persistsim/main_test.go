package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"persistbarriers/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/summary.golden.json")

// asMain is the environment variable under which the test binary runs
// main() instead of its tests, so a test can re-execute it as persistsim.
const asMain = "PERSISTSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// persistsim runs the test binary as persistsim with args and returns its
// stdout; a non-zero exit fails the test.
func persistsim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("persistsim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// TestSummaryGolden pins persistsim's -json summary for every barrier on
// a micro workload, for bulk BSP with undo logging on an app, and for a
// pooled multi-seed sweep to a checked-in golden file, so a change to the
// machine or the harness that moves one counter shows up as a diff.
// Refresh with
//
//	go test ./cmd/persistsim -run TestSummaryGolden -update
//
// and justify the new numbers in the commit message.
func TestSummaryGolden(t *testing.T) {
	var cases [][]string
	for _, b := range []string{"NP", "SP", "WT", "EP", "LB", "LB+IDT", "LB+PF", "LB++"} {
		cases = append(cases, []string{"-workload", "queue", "-barrier", b, "-threads", "8", "-ops", "30", "-json"})
	}
	cases = append(cases,
		[]string{"-workload", "ssca2", "-barrier", "LB++", "-bulk", "250", "-logging", "-ops", "2000", "-json"},
		[]string{"-workload", "queue", "-barrier", "LB++", "-threads", "8", "-ops", "30", "-repeat", "3", "-j", "2", "-json"},
	)
	type run struct {
		Args   string          `json:"args"`
		Stdout json.RawMessage `json:"stdout"`
	}
	var runs []run
	for _, args := range cases {
		runs = append(runs, run{strings.Join(args, " "), persistsim(t, args...)})
	}
	got, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "summary.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("persistsim output drifted from golden file %s\n-- got --\n%s-- want --\n%s", path, got, want)
	}
}

// TestStatsIsTheServersRecord: a -json document's "stats" is the
// machine.Counters object pmkvd's /statz serves under the same key, not
// a schema of its own. Every stats object in the summary golden decodes
// into machine.Counters with no field left over and encodes back to the
// same bytes.
func TestStatsIsTheServersRecord(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "summary.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var runs []struct {
		Args   string          `json:"args"`
		Stdout json.RawMessage `json:"stdout"`
	}
	if err := json.Unmarshal(golden, &runs); err != nil {
		t.Fatal(err)
	}
	type doc struct {
		Stats json.RawMessage `json:"stats"`
	}
	n := 0
	for _, r := range runs {
		// One run prints a document, a sweep an array of them.
		docs := make([]doc, 1)
		if bytes.HasPrefix(r.Stdout, []byte("[")) {
			err = json.Unmarshal(r.Stdout, &docs)
		} else {
			err = json.Unmarshal(r.Stdout, &docs[0])
		}
		if err != nil {
			t.Fatalf("%s: %v", r.Args, err)
		}
		for _, d := range docs {
			if d.Stats == nil {
				t.Fatalf("%s: a document without stats", r.Args)
			}
			var c machine.Counters
			dec := json.NewDecoder(bytes.NewReader(d.Stats))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&c); err != nil {
				t.Fatalf("%s: stats is not a machine.Counters: %v", r.Args, err)
			}
			got, err := json.Marshal(&c)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.Compact(&want, d.Stats); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s: stats re-encodes differently\n got %s\nwant %s", r.Args, got, want.Bytes())
			}
			n++
		}
	}
	if n != 12 {
		t.Errorf("checked %d stats objects, want 12 (9 single runs and a 3-seed sweep)", n)
	}
}
