package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenFig4 pins the full JSON summary of the Figure 4 probe to a
// checked-in golden file. Any change to the timing model, the epoch
// machinery, or the sweep plumbing that shifts even one cycle in this
// two-thread conflict kernel shows up as a byte diff here — the
// regression tripwire for the simulator's determinism. Refresh with
//
//	go test ./internal/harness -run TestGoldenFig4 -update
//
// and justify the new numbers in the commit message.
func TestGoldenFig4(t *testing.T) {
	r, err := RunFig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "fig4.golden.json")
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
		t.Fatalf("Fig.4 summary drifted from golden file %s\n-- got --\n%s-- want --\n%s", path, got, want)
	}
}
