package pmkv

import (
	"strconv"
	"strings"
	"testing"

	"persistbarriers/internal/sim"
)

// TestPlantedRecycleEarlyFuzzCases: the crash fuzzer must be able to find
// an engine that recycles entry lines one watermark early, inside a budget
// far below one CI smoke run. Its own decoder and its own runner — a
// clean drain, then a crash at Frac/256 of it, checker armed and the
// client-history oracle behind it — drive the plant: over the committed
// corpus and 64 generated inputs the honest engine passes every case and
// the planted one is rejected, by check 5, the checker or the oracle and
// nothing else, in at least half of them. seed-01 is the plant's
// smallest failing case in which the honest engine itself reuses a line
// (seed-06 was, until whole-line stores moved its timing: the honest
// engine now reuses no line there).
func TestPlantedRecycleEarlyFuzzCases(t *testing.T) {
	inputs := fuzzCorpus(t)
	if _, ok := inputs["seed-01"]; !ok {
		t.Fatal("seed-01 is not in the corpus")
	}
	rng := uint64(18)
	for i := 0; i < 64; i++ {
		data := make([]byte, 9)
		for j := range data {
			rng = rng*6364136223846793005 + 1442695040888963407
			data[j] = byte(rng >> 56)
		}
		data[6] = 0 // one shard
		inputs["generated-"+strconv.Itoa(i)] = data
	}
	caught := 0
	for name, data := range inputs {
		c := caseFromBytes(data)
		honest := func(at sim.Cycle) ShardResult {
			out, err := runAt(c, at, plantNone)
			if err != nil {
				t.Fatalf("%s: honest engine, crash at %d: %v", name, at, err)
			}
			return out[0]
		}
		rejects := func(at sim.Cycle) bool {
			_, err := runAt(c, at, plantRecycleEarly)
			if err != nil && !caughtEarlyRecycle(err) && !strings.HasPrefix(err.Error(), "oracle: ") {
				t.Fatalf("%s: crash at %d: caught by an unexpected check: %v", name, at, err)
			}
			return err != nil
		}
		clean := honest(0)
		rejected := rejects(0)
		if at := c.crashAt(clean.Stats.Cycle); at != 0 {
			honest(at)
			rejected = rejects(at) || rejected
		}
		if rejected {
			caught++
		}
		if name == "seed-01" && (!rejected || clean.Stats.EntryLinesRecycled == 0) {
			t.Fatalf("seed-01: planted engine rejected: %v; honest engine recycled %d lines", rejected, clean.Stats.EntryLinesRecycled)
		}
	}
	t.Logf("planted early recycle rejected in %d of %d fuzz cases", caught, len(inputs))
	if 2*caught < len(inputs) {
		t.Fatalf("planted early recycle rejected in only %d of %d fuzz cases", caught, len(inputs))
	}
}

// TestPlantedResurrectionFuzzCases: the crash fuzzer's own runner — a
// clean drain, then a crash at Frac/256 of it, checker armed and the
// client-history oracle behind it — rejects an
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
		data[6] = 0 // one shard
		inputs["generated-"+strconv.Itoa(i)] = data
	}
	caught := 0
	for name, data := range inputs {
		c := caseFromBytes(data)
		rejects := func(at sim.Cycle) (sim.Cycle, bool) {
			clean, err := runAt(c, at, plantNone)
			if err != nil {
				t.Fatalf("%s: honest engine, crash at %d: %v", name, at, err)
			}
			_, err = runAt(c, at, plantResurrect)
			return lastCycle(clean), err != nil
		}
		cycles, rejected := rejects(0)
		if at := c.crashAt(cycles); at != 0 {
			_, crashed := rejects(at)
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
	c := caseFromBytes(data)
	if s := genScript(c.scriptSpec); len(s) != 1 || len(s[0]) != 2 || s[0][0].Op != Put || s[0][1].Op != Delete || s[0][0].Key != s[0][1].Key {
		t.Fatalf("seed-07 decodes to %+v, want one batch of a Put and a Delete of one key", s)
	}
	if f := c.run(); f != nil {
		t.Fatalf("honest engine: %v", f.err)
	}
	if _, f := runLive(c); f != nil {
		t.Fatalf("honest live store: %v", f.err)
	}
	_, _, err := runPlantedEngine(Config{Check: true}, c.scriptSpec, plantLowestIdxWinner)
	if err == nil || !caughtStaleServe(err) {
		t.Fatalf("planted engine: %v, want check 6 to reject it", err)
	}
}
