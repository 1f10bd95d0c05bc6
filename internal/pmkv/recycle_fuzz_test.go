package pmkv_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/pmkv/fuzz"
	"persistbarriers/internal/sim"
)

// fuzzCorpus reads FuzzDurableLinearizability's committed corpus.
func fuzzCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob("fuzz/testdata/fuzz/FuzzDurableLinearizability/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	corpus := make(map[string][]byte)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file: %v", f, err)
		}
		corpus[filepath.Base(f)] = []byte(data)
	}
	return corpus
}

// TestPlantedRecycleEarlyFuzzCases: the crash fuzzer must be able to find
// an engine that recycles entry lines one watermark early, inside a budget
// far below one CI smoke run. Its own decoder and its own case shape —
// a clean drain, then a crash at Frac/256 of it, checker armed — are
// driven here because the plant is reachable only from this package: over
// the committed corpus and 64 generated inputs the honest engine passes
// every case and the planted one is rejected, by check 5, the checker or
// the client-history oracle and nothing else, in at least half of them. seed-06 is the plant's
// smallest failing case in which the honest engine itself reuses a line.
func TestPlantedRecycleEarlyFuzzCases(t *testing.T) {
	inputs := fuzzCorpus(t)
	if _, ok := inputs["seed-06"]; !ok {
		t.Fatal("seed-06 is not in the corpus")
	}
	rng := uint64(18)
	for i := 0; i < 64; i++ {
		data := make([]byte, 9)
		for j := range data {
			rng = rng*6364136223846793005 + 1442695040888963407
			data[j] = byte(rng >> 56)
		}
		data[6] = 0 // one shard: the planted run is a single engine
		inputs["generated-"+strconv.Itoa(i)] = data
	}
	caught := 0
	for name, data := range inputs {
		c := fuzz.CaseFromBytes(data)
		honest := func(at sim.Cycle) pmkv.ShardResult {
			out, err := pmkv.RunScriptRecyclingEarly(pmkv.Config{CrashAt: at, Check: true}, c.Spec(), false)
			if err != nil {
				t.Fatalf("%s: honest engine, crash at %d: %v", name, at, err)
			}
			return out
		}
		rejects := func(at sim.Cycle) bool {
			out, err := pmkv.RunScriptRecyclingEarly(pmkv.Config{CrashAt: at, Check: true}, c.Spec(), true)
			if err != nil && !pmkv.CaughtEarlyRecycle(err) {
				t.Fatalf("%s: crash at %d: caught by an unexpected check: %v", name, at, err)
			}
			return err != nil || pmkv.OracleCheck([]pmkv.ShardResult{out}) != nil
		}
		clean := honest(0)
		rejected := rejects(0)
		if c.Frac != 0 {
			at := max(1, clean.Stats.Cycle*sim.Cycle(c.Frac)/256)
			honest(at)
			rejected = rejects(at) || rejected
		}
		if rejected {
			caught++
		}
		if name == "seed-06" && (!rejected || clean.Stats.EntryLinesRecycled == 0) {
			t.Fatalf("seed-06: planted engine rejected: %v; honest engine recycled %d lines", rejected, clean.Stats.EntryLinesRecycled)
		}
	}
	t.Logf("planted early recycle rejected in %d of %d fuzz cases", caught, len(inputs))
	if 2*caught < len(inputs) {
		t.Fatalf("planted early recycle rejected in only %d of %d fuzz cases", caught, len(inputs))
	}
}

// TestPlantedResurrectionFuzzCases: the crash fuzzer's own case shape — a
// clean drain, then a crash at Frac/256 of it, checker armed — rejects an
// engine whose fold frees a durable tombstone's line early, over the
// committed corpus and 64 generated inputs with Deletes, while the honest
// engine passes the same cases.
func TestPlantedResurrectionFuzzCases(t *testing.T) {
	inputs := fuzzCorpus(t)
	rng := uint64(43)
	for i := 0; i < 64; i++ {
		data := make([]byte, 9)
		for j := range data {
			rng = rng*6364136223846793005 + 1442695040888963407
			data[j] = byte(rng >> 56)
		}
		data[6] = 0 // one shard: the planted run is a single engine
		inputs["generated-"+strconv.Itoa(i)] = data
	}
	caught := 0
	for name, data := range inputs {
		c := fuzz.CaseFromBytes(data)
		rejects := func(at sim.Cycle) (sim.Cycle, bool) {
			clean, err := pmkv.RunScriptRecyclingEarly(pmkv.Config{CrashAt: at, Check: true}, c.Spec(), false)
			if err != nil {
				t.Fatalf("%s: honest engine, crash at %d: %v", name, at, err)
			}
			_, err = pmkv.RunScriptResurrecting(pmkv.Config{CrashAt: at, Check: true}, c.Spec())
			return clean.Stats.Cycle, err != nil
		}
		cycles, rejected := rejects(0)
		if c.Frac != 0 {
			_, crashed := rejects(max(1, cycles*sim.Cycle(c.Frac)/256))
			rejected = rejected || crashed
		}
		if rejected {
			caught++
		}
	}
	t.Logf("resurrection plant rejected in %d of %d fuzz cases", caught, len(inputs))
	if 4*caught < len(inputs) {
		t.Fatalf("resurrection plant rejected in only %d of %d fuzz cases", caught, len(inputs))
	}
}

// TestPlantedTranslateOrderWinnerFuzzCase: seed-07 is the smallest scripted
// case that rejects an engine settling a raced key on the window's writer
// with the lowest record index — two sessions, one window, a Put and then
// a Delete of one key — so the store serves the Put while recovery keeps
// the Delete, and check 6 must speak, at the fold or at the clean drain.
// The honest engine passes it, through the fuzzer's own scripted and live
// runs.
func TestPlantedTranslateOrderWinnerFuzzCase(t *testing.T) {
	data, ok := fuzzCorpus(t)["seed-07"]
	if !ok {
		t.Fatal("seed-07 is not in the corpus")
	}
	c := fuzz.CaseFromBytes(data)
	if s := pmkv.GenScript(c.Spec()); len(s) != 1 || len(s[0]) != 2 || s[0][0].Op != pmkv.Put || s[0][1].Op != pmkv.Delete || s[0][0].Key != s[0][1].Key {
		t.Fatalf("seed-07 decodes to %+v, want one batch of a Put and a Delete of one key", s)
	}
	if f := fuzz.Run(c); f != nil {
		t.Fatalf("honest engine: %v", f.Err)
	}
	if f := fuzz.RunLive(c); f != nil {
		t.Fatalf("honest live store: %v", f.Err)
	}
	err := pmkv.RunScriptSettlingOnLowestIdx(pmkv.Config{Check: true}, c.Spec())
	if err == nil || !pmkv.CaughtStaleServe(err) {
		t.Fatalf("planted engine: %v, want check 6 to reject it", err)
	}
}
