package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden fingerprint file")

// TestFpdumpGolden is the byte-identity proof for the scripted driver:
// fpdump.golden's clean-drain fingerprint and 200 crash-instant
// fingerprints were captured from the single-engine driver before it was
// deleted, and survived the move to one persist barrier per write
// unchanged (one op per core per window never merges epochs);
// fpdump-merged.golden pins the same sweep where epochs do merge; and
// fpdump-long.golden was captured from the engine that kept every record,
// before records were folded behind the durable watermark, so
// checkpoint-plus-tail recovery is held to a full replay's fingerprint and
// Report counts. A later speed-only change is held to all three.
func TestFpdumpGolden(t *testing.T) {
	for _, s := range sections {
		checkGolden(t, s)
	}
}

func checkGolden(t *testing.T, s section) {
	golden := s.golden
	var got bytes.Buffer
	if err := dump(&got, s); err != nil {
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
