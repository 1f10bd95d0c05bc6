package fuzz

import (
	"os"
	"strings"
	"testing"
)

// TestCaseFromBytesTotal: every input decodes to a valid, bounded case.
func TestCaseFromBytesTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 0, 0, 0, 0, 0},
		{1, 2, 3},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128},
		{15, 13, 11, 7, 80, 0, 0, 128},
	}
	for _, in := range inputs {
		c := CaseFromBytes(in)
		if c.Sessions < 1 || c.Sessions > 16 || c.Rounds < 1 || c.Rounds > 14 {
			t.Fatalf("case out of bounds for %v: %+v", in, c)
		}
		if c.KeySpace < 1 || c.KeySpace > 12 || c.ValueBytes < 1 || c.ValueBytes > 113 {
			t.Fatalf("case out of bounds for %v: %+v", in, c)
		}
		if c.PutPct < 20 || c.PutPct > 80 || c.GetPct < 5 || c.PutPct+c.GetPct > 99 {
			t.Fatalf("op mix out of bounds for %v: %+v", in, c)
		}
		if c.Shards != 1 && c.Shards != 2 && c.Shards != 4 {
			t.Fatalf("shards out of bounds for %v: %+v", in, c)
		}
	}
	// Distinct tails reach distinct seeds (schedule diversity).
	a := CaseFromBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8, 100})
	b := CaseFromBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8, 101})
	if a.Seed == b.Seed {
		t.Fatal("tail bytes do not differentiate seeds")
	}
}

// TestRunCleanCase: a small known-good case passes end to end.
func TestRunCleanCase(t *testing.T) {
	c := Case{Sessions: 3, Rounds: 6, KeySpace: 6, ValueBytes: 48, PutPct: 60, GetPct: 25, Shards: 1, Seed: 7, Frac: 128}
	if f := Run(c); f != nil {
		t.Fatalf("known-good case failed: %v\n%s", f.Err, Transcript(f))
	}
}

// TestTranscriptRendersTrace: the artifact names the case, the instant,
// the error, and every scripted op.
func TestTranscriptRendersTrace(t *testing.T) {
	c := Case{Sessions: 2, Rounds: 2, KeySpace: 3, ValueBytes: 16, PutPct: 70, GetPct: 15, Shards: 4, Seed: 9, Frac: 64}
	f := &Failure{Case: c, At: 1234, Err: os.ErrInvalid}
	tr := Transcript(f)
	for _, want := range []string{"counterexample", "sessions=2", "cycle 1234", "invalid argument", "shard"} {
		if !strings.Contains(tr, want) {
			t.Fatalf("transcript missing %q:\n%s", want, tr)
		}
	}
	if n := strings.Count(tr, "\n  r"); n != 4 {
		t.Fatalf("transcript lists %d scripted ops, want 4:\n%s", n, tr)
	}
	if Transcript(nil) != "" || Minimize(nil) != nil {
		t.Fatal("nil failure should render empty")
	}
}

// FuzzDurableLinearizability is the randomized crash fuzzer: bytes →
// bounded workload (op mix × sessions × keyspace × shards) × crash
// instant → run with the online checker → verdict. Any rejection is
// minimized and written as an op-trace transcript (to
// $DLFUZZ_ARTIFACT when set) before failing. CI runs the smoke with
// -fuzztime 30s; run longer locally to dig.
func FuzzDurableLinearizability(f *testing.F) {
	// sessions rounds keyspace valuebytes putpct getpct shards frac
	f.Add([]byte{})                                     // minimal case
	f.Add([]byte{2, 5, 3, 2, 40, 10, 0, 128})           // mid-run crash, single shard
	f.Add([]byte{5, 11, 1, 3, 60, 60, 2, 200})          // one hot key, 4 shards, late crash
	f.Add([]byte{3, 7, 5, 1, 10, 80, 1, 32})            // read-heavy, early crash
	f.Add([]byte{5, 13, 11, 7, 70, 5, 3, 255, 9, 9, 9}) // delete-heavy tail seed
	f.Add([]byte{15, 9, 7, 4, 50, 10, 0, 160})          // 16 sessions: 4 ops per core per round, merged epochs
	// Records are folded and released at every watermark advance, so every
	// case crosses folds; this is the longest history a case can have (224
	// ops), crashed late, where recovery is almost all checkpoint.
	f.Add([]byte{15, 13, 11, 7, 60, 5, 0, 230})
	// testdata's seed-06 (one session, one key, put del put put, crash at
	// 250/256) is the smallest case that rejects an engine recycling entry
	// lines one watermark early while the honest engine already reuses a
	// line in it: pmkv.TestPlantedRecycleEarlyFuzzCases. seed-07 (two
	// sessions, one key, one round: a Put, then a Delete that commits first)
	// is the smallest case in which a key settled in translate order is
	// served as gone and recovered as present:
	// pmkv.TestPlantedTranslateOrderWinnerFuzzCase.
	f.Fuzz(func(t *testing.T, data []byte) {
		c := CaseFromBytes(data)
		fail := Run(c)
		if fail == nil {
			// The scripted engines verified; now the live ShardedStore with
			// the GET fast path toggled both ways must agree (identical
			// clean-drain fingerprints, checker-clean crash runs). Live
			// failures skip minimization: Minimize re-runs the scripted
			// path, which just passed.
			if lf := RunLive(c); lf != nil {
				t.Fatalf("live store (fast-path equivalence) failed:\n%s", Transcript(lf))
			}
			return
		}
		fail = Minimize(fail)
		tr := Transcript(fail)
		if path := os.Getenv("DLFUZZ_ARTIFACT"); path != "" {
			if err := os.WriteFile(path, []byte(tr), 0o644); err != nil {
				t.Logf("writing %s: %v", path, err)
			}
		}
		t.Fatalf("durable linearizability violated:\n%s", tr)
	})
}
