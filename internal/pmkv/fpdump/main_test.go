package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"persistbarriers/internal/pmkv"
)

var update = flag.Bool("update", false, "rewrite the golden fingerprint file")

// TestFpdumpGolden is the byte-identity proof for the scripted driver:
// fpdump.golden's clean-drain fingerprint and 200 crash-instant
// fingerprints were captured from the single-engine driver before it was
// deleted, and survived the move to one persist barrier per write
// unchanged (one op per core per window never merges epochs);
// fpdump-merged.golden pins the same sweep where epochs do merge, so a
// later speed-only change is held to both.
func TestFpdumpGolden(t *testing.T) {
	for _, section := range []struct {
		golden string
		spec   pmkv.ScriptSpec
	}{
		{"../testdata/fpdump.golden", specSingle},
		{"../testdata/fpdump-merged.golden", specMerged},
	} {
		checkGolden(t, section.golden, section.spec)
	}
}

func checkGolden(t *testing.T, golden string, spec pmkv.ScriptSpec) {
	var got bytes.Buffer
	if err := dump(&got, spec); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("fpdump printed %d lines, golden %s has %d (run with -update to regenerate)",
			len(gotLines)-1, golden, len(wantLines)-1)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from golden %s (run with -update to regenerate)\n got: %s\nwant: %s",
				i+1, golden, gotLines[i], wantLines[i])
		}
	}
}
