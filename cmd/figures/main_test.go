package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"persistbarriers/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden.json")

// once runs f(opt) at most once: the BEP grid fig11, fig12 and
// conflictkinds share.
func once[T any](f func(harness.Options) (T, error), opt harness.Options) func() (T, error) {
	return sync.OnceValues(func() (T, error) { return f(opt) })
}

// TestQuickGolden pins every artifact's -json document at the quick
// option set to a checked-in golden file, so a refactor of the harness or
// of this command that moves one cell of one table shows up as a byte
// diff. The sweeps run pooled and are replayed serially
// (VerifyDeterminism), so the test also checks every artifact's runs for
// determinism. Refresh with
//
//	go test ./cmd/figures -run TestQuickGolden -update
//
// and justify the new numbers in the commit message.
func TestQuickGolden(t *testing.T) {
	opt := harness.Quick()
	opt.Parallelism = 2
	opt.VerifyDeterminism = true
	bep := once(harness.RunBEP, opt)
	var docs []artifactDoc
	for _, name := range artifactNames() {
		if name == "all" {
			continue
		}
		doc, err := runArtifact(name, opt, bep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		docs = append(docs, doc)
	}
	got, err := json.MarshalIndent(docs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "quick.golden.json")
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
		t.Fatalf("figures drifted from golden file %s\n-- got --\n%s-- want --\n%s", path, got, want)
	}
}
