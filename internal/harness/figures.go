package harness

import (
	"fmt"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/noc"
	"persistbarriers/internal/nvram"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

// Fig1Result captures the Figure 1 timeline probe: the same three-epoch
// store sequence under strict, epoch, and buffered epoch persistency.
type Fig1Result struct {
	Models   []string
	Exec     map[string]uint64 // cycles to retire the sequence
	LastAck  map[string]uint64 // cycle the final line persisted
	Persists map[string]uint64 // NVRAM line writes issued
}

// fig1Program is the paper's running example: stores to a (twice,
// coalescible), b, c in epoch 1; d, e in epoch 2; f in epoch 3.
func fig1Program() *trace.Program {
	var b trace.Builder
	a, bb, c, d, e, f := mem.Addr(0), mem.Addr(64), mem.Addr(128), mem.Addr(192), mem.Addr(256), mem.Addr(320)
	b.Store(a).Store(a).Store(bb).Store(c).Barrier()
	b.Store(d).Store(e).Barrier()
	b.Store(f).Barrier()
	return &trace.Program{Traces: [][]trace.Op{b.Ops()}}
}

// RunFig1 runs the timeline probe. It demonstrates the model ordering the
// paper's Figure 1 illustrates: SP serializes visibility behind persists,
// EP stalls at barriers, BEP overlaps everything.
func RunFig1(opt Options) (*Fig1Result, error) {
	out := &Fig1Result{
		Models:   []string{"SP", "EP", "BEP(LB)"},
		Exec:     make(map[string]uint64),
		LastAck:  make(map[string]uint64),
		Persists: make(map[string]uint64),
	}
	g, err := runGrid(opt, []string{"fig1"}, []string{"SP", "EP", "LB"}, func(_, barrier string) Job {
		cfg := config(1, barrier)
		cfg.RecordOpTimes = true
		return kernelJob(cfg, fig1Program)
	})
	if err != nil {
		return nil, err
	}
	for i, name := range out.Models {
		r := g.Results["fig1"][g.Cols[i]]
		out.Exec[name] = uint64(r.ExecCycles)
		out.Persists[name] = r.PersistedLines
		var last uint64
		for _, ev := range r.PersistLog {
			if uint64(ev.Cycle) > last {
				last = uint64(ev.Cycle)
			}
		}
		out.LastAck[name] = last
	}
	return out, nil
}

// Table renders the Figure 1 probe.
func (f *Fig1Result) Table() *stats.Table {
	t := stats.NewTable(
		"Figure 1: completion timeline of the 3-epoch store sequence (cycles)",
		"model", "visibility done", "last persist", "line persists")
	for _, m := range f.Models {
		t.AddRow(m,
			fmt.Sprintf("%d", f.Exec[m]),
			fmt.Sprintf("%d", f.LastAck[m]),
			fmt.Sprintf("%d", f.Persists[m]))
	}
	return t
}

// Fig4Result captures the IDT benefit kernel of Figure 4.
type Fig4Result struct {
	ExecLB   uint64
	ExecIDT  uint64
	StallLB  uint64
	StallIDT uint64
	DepsIDT  uint64
}

// fig4Program is the two-thread conflict kernel of §3.1/Figure 4: T0
// writes A and B in epoch E00; T1 reads B (the inter-thread conflict) and
// continues with its own work.
func fig4Program() *trace.Program {
	var t0, t1 trace.Builder
	// T0: epoch E00 = {WA, WB}, then keeps computing (epoch ongoing work
	// elsewhere).
	t0.Store(0).Store(64).Barrier()
	t0.Compute(3000)
	// T1: RP ... RB (conflict) ... RQ, WE.
	t1.Load(1024)
	t1.Compute(300)
	t1.Load(64) // RB: inter-thread conflict with E00
	t1.Load(2048)
	t1.Store(4096)
	t1.Barrier()
	return &trace.Program{Traces: [][]trace.Op{t0.Ops(), t1.Ops()}}
}

// RunFig4 measures the conflicting request's cost without and with IDT.
func RunFig4(opt Options) (*Fig4Result, error) {
	g, err := runGrid(opt, []string{"fig4"}, []string{"LB", "LB+IDT"}, func(_, barrier string) Job {
		return kernelJob(config(2, barrier), fig4Program)
	})
	if err != nil {
		return nil, err
	}
	lb, idt := g.Results["fig4"]["LB"], g.Results["fig4"]["LB+IDT"]
	return &Fig4Result{
		ExecLB:   uint64(lb.ExecCycles),
		ExecIDT:  uint64(idt.ExecCycles),
		StallLB:  uint64(lb.StallTotal(machine.StallInter)),
		StallIDT: uint64(idt.StallTotal(machine.StallInter)),
		DepsIDT:  idt.Epochs.Deps,
	}, nil
}

// Table renders the Figure 4 probe.
func (f *Fig4Result) Table() *stats.Table {
	t := stats.NewTable(
		"Figure 4: inter-thread conflict kernel, without vs with IDT",
		"metric", "LB", "LB+IDT")
	t.AddRow("execution cycles", fmt.Sprintf("%d", f.ExecLB), fmt.Sprintf("%d", f.ExecIDT))
	t.AddRow("inter-conflict stall cycles", fmt.Sprintf("%d", f.StallLB), fmt.Sprintf("%d", f.StallIDT))
	t.AddRow("IDT dependences recorded", "0", fmt.Sprintf("%d", f.DepsIDT))
	return t
}

// Table1 renders the simulated system parameters (paper Table 1).
func Table1() *stats.Table {
	cfg := machine.DefaultConfig()
	t := stats.NewTable("Table 1: System parameters", "parameter", "value")
	t.AddRow("Cores", fmt.Sprintf("%d in-order trace cores @ 2GHz (paper: OoO)", cfg.Cores))
	t.AddRow("L1 I/D Cache", fmt.Sprintf("%d sets x %d ways x 64B = 32KB", cfg.L1Sets, cfg.L1Ways))
	t.AddRow("L1 Access Latency", fmt.Sprintf("%d cycles", machine.L1Latency))
	t.AddRow("L2 (LLC)", fmt.Sprintf("%d banks x %d sets x %d ways x 64B = 1MB/bank", cfg.LLCBanks, cfg.LLCSets, cfg.LLCWays))
	t.AddRow("L2 Access Latency", fmt.Sprintf("%d cycles", machine.LLCLatency))
	t.AddRow("Memory Controllers", fmt.Sprintf("%d (mesh corners)", machine.MemControllers))
	t.AddRow("NVRAM Access Latency", fmt.Sprintf("%d (%d) cycles write (read)", nvram.WriteLatency, nvram.ReadLatency))
	t.AddRow("On-chip network", fmt.Sprintf("2D mesh, %d rows x %d cols, 16B flits", noc.Rows, noc.Cols))
	t.AddRow("In-flight epochs", fmt.Sprintf("%d per core", cfg.Epoch.MaxInFlight))
	t.AddRow("IDT registers", fmt.Sprintf("%d pairs per epoch", cfg.Epoch.DepRegs))
	return t
}

// Table2 renders the micro-benchmark suite (paper Table 2).
func Table2() *stats.Table {
	t := stats.NewTable("Table 2: Micro-benchmarks", "name", "description")
	desc := map[string]string{
		"hash":   "Insert/delete entries in a hash table",
		"queue":  "Insert/delete entries in a queue",
		"rbtree": "Insert/delete nodes in a red-black tree",
		"sdg":    "Insert/delete edges in a scalable graph",
		"sps":    "Random swaps between entries in an array",
	}
	for _, n := range workload.MicrobenchmarkNames() {
		t.AddRow(n, desc[n])
	}
	return t
}
