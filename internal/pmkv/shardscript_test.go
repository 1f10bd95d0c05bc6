package pmkv

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"persistbarriers/internal/sim"
)

// stepDigest hashes the steps one shard takes of a script: every step's
// kind (followed by a 0 field the pinned digests were taken with) and
// every op of a Submit (session, op, key, value bytes), in order.
func stepDigest(script Script, shard, shards int) string {
	h := sha256.New()
	for _, st := range script.steps(shards)[shard] {
		fmt.Fprintf(h, "%d 0\n", st.kind)
		for _, op := range st.batch {
			fmt.Fprintf(h, "  %d %d %q %x\n", op.Sess, op.Op, op.Key, op.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStepDigests pins the step stream a script expands to — Submit,
// Pump, Gap, Poll per round, a shard's Submit carrying the ops it owns —
// for fpdump's first and third sections on one shard and testSpec on one
// shard and on each of four. TestScriptDigests pins the ops; this pins
// what the worker is told to do with them, so a change to the expansion
// must edit this table on purpose.
func TestStepDigests(t *testing.T) {
	fpdump := genScript(fpdumpSpecs[0].spec)
	long := genScript(longSpec())
	test := genScript(testSpec())
	for _, row := range []struct {
		name          string
		script        Script
		shard, shards int
		want          string
	}{
		{"fpdump", fpdump, 0, 1, "a655da6f2ccdff62d45d3e1cc8e496cdf99d0f3e4d0e4d5a3c5220a610a7f60a"},
		{"fpdump-long", long, 0, 1, "af4039f2dc84b26324bce8485ae63c3703dc55fd64a3172d0a213244d1afcdce"},
		{"testSpec", test, 0, 1, "07195990513da71eba62d97d8247ceea7bb8ef0928af3f547a7d78e33bcf5e2a"},
		{"testSpec shard 0/4", test, 0, 4, "3971d989e7fcb62e6afd9c1967f611e2a0da91e13c6baaa2e5f75ea16237020a"},
		{"testSpec shard 1/4", test, 1, 4, "d1dc62ea270e9d2008ebed919717c2e640d10fcb7e5a4eda7ef1f21d752c33a3"},
		{"testSpec shard 2/4", test, 2, 4, "27dbd790795f248cc521b9facc623ad4e3e9660a3f6c59493b59d8f43d3ee97c"},
		{"testSpec shard 3/4", test, 3, 4, "cca3524a149e10a98d431159f8aefa7f4205ff631fff5b51e697e19a1c85b8f8"},
	} {
		if got := stepDigest(row.script, row.shard, row.shards); got != row.want {
			t.Errorf("%s: step digest %s, want %s", row.name, got, row.want)
		}
	}
}

// TestScriptAckSteps: a scripted worker tells the checker its acks in
// finish, as the live worker does. A clean run acks every publish, so its
// verdict holds the image to all of them; a crash mid-run leaves some
// batches unacked, and its verdict holds the image to the acks given
// before power was lost, each of which must have been durable.
func TestScriptAckSteps(t *testing.T) {
	script := genScript(testSpec())
	run := func(at sim.Cycle) ShardResult {
		t.Helper()
		out, err := RunShardedScript(ShardedConfig{Engine: Config{CrashAt: at, Check: true}}, script)
		if err != nil {
			t.Fatalf("crash at %d: %v", at, err)
		}
		return out[0]
	}
	clean := run(0)
	total := clean.Report.TotalPublishes
	if total == 0 || clean.DL.Acked != total {
		t.Fatalf("clean run: %d publishes, verdict %v; want every publish acked", total, clean.DL)
	}
	at := clean.Cycles / 2
	crashed := run(at)
	if !crashed.Crashed || !crashed.DL.OK() || crashed.DL.Acked == 0 || crashed.DL.Acked >= total {
		t.Fatalf("crash at cycle %d: crashed %v, verdict %v; want some of %d publishes acked, all kept", at, crashed.Crashed, crashed.DL, total)
	}
	t.Logf("%d records acked clean; %d at a crash at cycle %d", total, crashed.DL.Acked, at)
}
