// kvstore: a durable key-value store under buffered epoch persistency,
// crashed at an arbitrary instant. Four client sessions hammer the pmkv
// engine concurrently; every Put stores one entry on the simulated
// multicore, and each core closes a round's entries with one persist
// barrier (a layout beyond the paper's Figure 10, which also publishes
// each entry through a bucket-head pointer). Mid-run the machine loses
// power, and recovery proves the guarantee BEP gives you: the durable
// image is an epoch-ordered cut, and each key recovers as its newest
// complete entry.
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
	// rounds; each round is one group commit, whose entries each core
	// closes with one persist barrier.
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
	// histories and verifies every invariant — epoch ordering,
	// persisted-set closure, no live entry overwritten — and recovers, per
	// key, the complete entry written last.
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
	fmt.Printf("recovery check: %d epochs, %d/%d writes durable ✓\n",
		report.Epochs, report.DurablePublishes, report.TotalPublishes)

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
	fmt.Println("(every recovered key is its newest complete entry — nothing torn)")
}
