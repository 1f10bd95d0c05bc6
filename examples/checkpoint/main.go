// checkpoint: a long-running multi-threaded application under bulk-mode
// buffered strict persistency (§5.2). The hardware persistence engine
// inserts a barrier every N dynamic stores, checkpoints the register state
// into each epoch, and undo-logs first writes. The example crashes the
// machine mid-run, replays the undo log, and verifies that the recovered
// state is epoch-atomic — the whole point of BSP: the program can restart
// from the last completed hardware epoch after any failure.
//
// Run with:
//
//	go run ./examples/checkpoint
package main

import (
	"fmt"
	"log"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/recovery"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/workload"
)

func main() {
	// An unmodified application: no persist barriers in the trace. The
	// ssca2-like profile is the paper's stress case (write-intensive,
	// fine-grained sharing).
	prof := workload.Apps()["ssca2"]
	program, err := prof.Generate(workload.Spec{Threads: 8, OpsPerThread: 3000, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	newMachine := func() *machine.Machine {
		cfg := machine.DefaultConfig()
		cfg.Cores = 8
		cfg.Model = machine.LB
		cfg.IDT, cfg.PF = true, true // LB++
		cfg.BulkEpochStores = 250    // hardware barrier every 250 stores
		cfg.Logging = true           // undo logging for epoch atomicity
		cfg.CheckpointLines = 4      // register state saved per epoch
		cfg.RecordHistory = true
		m, err := machine.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.Load(program); err != nil {
			log.Fatal(err)
		}
		return m
	}

	// Pull the plug at successive instants until a crash lands mid-flush
	// (some epoch partially persisted) — the case undo logging exists for.
	for crash := 20000; ; crash += 3500 {
		result, err := newMachine().RunUntil(uint64AsCycle(crash))
		if err != nil {
			log.Fatal(err)
		}
		if result.Finished {
			fmt.Println("the run completed before any crash landed mid-flush; nothing to roll back")
			return
		}

		// Recovery, exactly as §5.2.1 describes: roll back every line
		// whose durable version belongs to an epoch the hardware had not
		// declared persisted, using the durable undo log.
		g := recovery.NewGraph(result.Histories)
		recovered := recovery.Rollback(g, result.Image, result.UndoLog)
		rolledBack := 0
		for line, v := range result.Image {
			if recovered[line] != v {
				rolledBack++
			}
		}
		if rolledBack == 0 {
			continue // crash fell between flushes; try a later instant
		}

		fmt.Printf("crash at cycle %d: %d hardware epochs persisted, %d undo-log entries durable\n",
			crash, result.Epochs.Persisted, len(result.UndoLog))
		fmt.Printf("rollback restored %d lines of partially-persisted epochs\n", rolledBack)

		if err := recovery.CheckAtomicity(g, recovered); err != nil {
			log.Fatalf("recovered state NOT epoch-atomic: %v", err)
		}
		if err := recovery.CheckOrdering(g, result.Image); err != nil {
			log.Fatalf("persist ordering violated: %v", err)
		}
		fmt.Println("recovered state is epoch-atomic ✓ — restart from the last checkpoint is safe")
		return
	}
}

func uint64AsCycle(v int) sim.Cycle { return sim.Cycle(v) }
