package machine

import (
	"testing"
)

// TestLivenessDiagnostics is a bounded liveness regression with rich
// diagnostics: the tiny-cache random workload must finish well within the
// cycle budget; on failure it dumps per-core progress, epoch windows,
// pending-line locations and the lines held in a transient state.
func TestLivenessDiagnostics(t *testing.T) {
	p := randomProgram(21, 4, 200, true)
	cfg := testConfig(LB)
	cfg.L1Sets, cfg.L1Ways = 4, 2
	cfg.LLCSets, cfg.LLCWays = 8, 2
	cfg.IDT = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	m.eng.RunUntil(3_000_000)
	if m.finished {
		return // healthy: the workload completed within the budget
	}
	t.Logf("stuck at cycle %d, runningCores=%d", m.eng.Now(), m.runningCores)
	for _, c := range m.cores {
		t.Logf("core %d: pc=%d/%d done=%v wtInFlight=%d", c.id, c.pc, len(c.ops), c.done, c.wtInFlight)
		if c.table != nil {
			top := c.table.Current().ID.Num
			var nums []uint64
			for k := uint64(0); k <= top && k < 12; k++ {
				nums = append(nums, top-k)
			}
			for _, n := range nums {
				if rec := c.table.Lookup(n); rec != nil {
					t.Logf("  epoch %v state=%v pending=%d logPending=%d flushDone=%v cause=%v deps=%d depsOK=%v",
						rec.ID, rec.State, len(rec.Pending), rec.LogPending, rec.FlushCompleted, rec.Cause, len(rec.Deps), c.arb.DepsPersisted(rec))
					for _, dp := range rec.Deps {
						srcRec := m.cores[dp.Source.Core].table.Lookup(dp.Source.Num)
						st := "persisted/gone"
						if srcRec != nil {
							st = srcRec.State.String()
						}
						t.Logf("    dep on %v (%s)", dp.Source, st)
					}
				}
			}
			t.Logf("  inflight=%d canAdvance=%v", c.table.InFlight(), c.table.CanAdvance())
			for _, n := range nums {
				rec := c.table.Lookup(n)
				if rec == nil {
					continue
				}
				for line := range rec.Pending {
					t.Logf("  PENDING %v line %v:", rec.ID, line)
					for _, cc := range m.cores {
						if ent, ok := cc.l1.Peek(line); ok {
							t.Logf("    in L1-%d: dirty=%v tag=%v ver=%d", cc.id, ent.Dirty, ent.Tag, ent.Version)
						}
					}
					bb := m.bank(line)
					if ent, ok := bb.arr.Peek(line); ok {
						t.Logf("    in LLC-%d: dirty=%v tag=%v ver=%d", bb.id, ent.Dirty, ent.Tag, ent.Version)
					}
					if ls := m.lines.lookup(line); ls != nil {
						t.Logf("    dir owner=%d sharers=%b", ls.dir.owner, ls.dir.sharers)
					}
					t.Logf("    image=%d latest=%d", m.mcs.Image()[line], m.latestVersion(line))
				}
			}
		}
	}
	m.lines.forEach(func(ls *lineState) {
		if ls.busy != nil {
			t.Logf("busy line %v", ls.line)
		}
	})
	t.Fail()
}
