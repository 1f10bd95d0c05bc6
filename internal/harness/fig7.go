package harness

import (
	"fmt"
	"sort"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/trace"
)

// Fig7Result captures the multi-banked ordering probe of Figure 7: epoch
// E1 writes lines A and B mapping to two different LLC banks, epoch E2
// writes line C in the second bank. The violation the paper illustrates —
// C persisting before E1 is fully durable — must be impossible under the
// arbiter handshake.
type Fig7Result struct {
	// Persist cycle per line, in A, B, C order.
	PersistA, PersistB, PersistC uint64
	// Ordered is the invariant: C persists after both A and B.
	Ordered bool
}

// RunFig7 runs the two-bank epoch-ordering kernel on a 2-bank machine
// under LB+PF, which flushes E2 as soon as it completes (the adversarial
// schedule of Figure 7(a)).
func RunFig7(opt Options) (*Fig7Result, error) {
	// Bank = line % 2: line 0 (A) -> bank 0, lines 1 (B) and 3 (C) ->
	// bank 1.
	lineA, lineB, lineC := mem.Addr(0), mem.Addr(64), mem.Addr(192)
	g, err := runGrid(opt, []string{"fig7"}, []string{"LB+PF"}, func(_, barrier string) Job {
		cfg := config(2, barrier)
		cfg.LLCBanks = 2
		cfg.RecordOpTimes = true
		return kernelJob(cfg, func() *trace.Program {
			var t0 trace.Builder
			t0.Store(lineA).Store(lineB).Barrier() // epoch E1 = {A, B}
			t0.Store(lineC).Barrier()              // epoch E2 = {C}
			return &trace.Program{Traces: [][]trace.Op{t0.Ops()}}
		})
	})
	if err != nil {
		return nil, err
	}
	r := g.Results["fig7"]["LB+PF"]
	out := &Fig7Result{}
	persist := map[mem.Line]uint64{}
	for _, ev := range r.PersistLog {
		if _, seen := persist[ev.Line]; !seen {
			persist[ev.Line] = uint64(ev.Cycle)
		}
	}
	out.PersistA = persist[mem.LineOf(lineA)]
	out.PersistB = persist[mem.LineOf(lineB)]
	out.PersistC = persist[mem.LineOf(lineC)]
	out.Ordered = out.PersistC > out.PersistA && out.PersistC > out.PersistB
	if len(persist) != 3 {
		return nil, fmt.Errorf("harness: fig7 expected 3 persisted lines, got %d", len(persist))
	}
	return out, nil
}

// Table renders the Figure 7 probe.
func (f *Fig7Result) Table() *stats.Table {
	t := stats.NewTable(
		"Figure 7: multi-banked epoch ordering (E1={A,B} across banks, E2={C})",
		"line", "bank", "persist cycle")
	rows := []struct {
		name string
		bank string
		cyc  uint64
	}{
		{"A (E1)", "0", f.PersistA},
		{"B (E1)", "1", f.PersistB},
		{"C (E2)", "1", f.PersistC},
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].cyc < rows[j].cyc })
	for _, row := range rows {
		t.AddRow(row.name, row.bank, fmt.Sprintf("%d", row.cyc))
	}
	verdict := "VIOLATION: C persisted before E1 completed"
	if f.Ordered {
		verdict = "ordered: C persisted after all of E1 (Figure 7(b))"
	}
	t.AddRow(verdict, "", "")
	return t
}
