// kvstore: a durable key-value store under buffered epoch persistency,
// crashed at an arbitrary instant. Four client sessions hammer the pmkv
// engine concurrently; every Put becomes the paper's Figure 10 discipline
// on the simulated multicore — write the entry, persist barrier, publish
// the bucket head, persist barrier. Mid-run the machine loses power, and
// recovery proves the guarantee BEP gives you: the durable image is an
// epoch-ordered cut, no bucket head names a torn entry, and each
// session's durable writes are a prefix of what it issued.
//
// Run with:
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"sort"

	"persistbarriers/internal/pmkv"
)

func main() {
	// Pull the plug mid-run. (Set to 0 for a clean drain: then every
	// write recovers.)
	const crashCycle = 12000

	// Four sessions (one per simulated core) write a shared keyspace in
	// rounds; each round is one group commit, so the sessions contend on
	// bucket heads and the epoch hardware resolves the conflicts.
	const sessions, rounds = 4, 41
	script := make(pmkv.Script, rounds)
	for round := range script {
		for i := 0; i < sessions; i++ {
			op := pmkv.ScriptedOp{Sess: i, Op: pmkv.Put, Key: fmt.Sprintf("user:%d", (round*sessions+i)%10)}
			if round > 0 && (round+i)%7 == 0 {
				op.Op = pmkv.Delete
			} else {
				op.Value = []byte(fmt.Sprintf("r%d-s%d", round, i))
			}
			script[round] = append(script[round], op)
		}
	}

	// One shard runs the script on its worker until the power fails, then
	// recovery rebuilds the happens-before graph from the retained epoch
	// histories, strengthens it with the per-bucket publish order, and
	// verifies every invariant — epoch ordering, persisted-set closure, KV
	// atomicity (no torn entries), and per-session prefix durability.
	results, err := pmkv.RunShardedScript(pmkv.ShardedConfig{Engine: pmkv.Config{CrashAt: crashCycle}}, script)
	if err != nil {
		log.Fatalf("INCONSISTENT persistent state: %v", err)
	}
	r := results[0]
	if r.Crashed {
		fmt.Printf("crash at cycle %d, %d scripted rounds of %d ops\n", r.Cycles, rounds, sessions)
	} else {
		fmt.Printf("clean drain after %d cycles\n", r.Cycles)
	}
	report := r.Report
	fmt.Printf("recovery check: %d epochs, %d publish-order edges, %d/%d publishes durable ✓\n",
		report.Epochs, report.PublishEdges, report.DurablePublishes, report.TotalPublishes)

	// The durable contents — what a restarting kvstore would actually
	// serve.
	keys := make([]string, 0, len(r.Recovered))
	for k := range r.Recovered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("recovered state (%d keys, fingerprint %.16s):\n",
		len(r.Recovered), report.Fingerprint)
	for _, k := range keys {
		fmt.Printf("  %-8s = %s\n", k, r.Recovered[k])
	}
	fmt.Println("(every recovered pointer is a complete, barrier-ordered write — nothing torn)")
}
