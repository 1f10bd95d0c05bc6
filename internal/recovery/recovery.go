// Package recovery verifies crash consistency of the simulated NVRAM
// image against the persistency model's guarantees, and implements the
// undo-log rollback that bulk-mode BSP (§5.2.1) performs on recovery.
//
// The simulator never stores data bytes: every store has a globally unique,
// monotonically increasing version, the NVRAM shadow image maps lines to
// the version that is durable, and each epoch's history records the final
// version it wrote to each line. Because a line can only be rewritten
// after the epoch that previously wrote it has persisted (the conflict
// rules of §3), "image[L] >= v" is exactly the statement "version v of L,
// or a legitimately later one, is durable".
package recovery

import (
	"fmt"
	"sort"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/nvram"
)

// Graph is the happens-before relation over epochs: per-core program order
// plus recorded inter-thread dependence edges (IDT registers and
// online-enforced orderings).
type Graph struct {
	epochs map[epoch.ID]*epoch.Summary
	// preds[e] are the direct happens-before predecessors of e.
	preds map[epoch.ID][]epoch.ID
	// byVersion finds the epoch that wrote a given version.
	byVersion map[mem.Version]epoch.ID
	order     []epoch.ID // deterministic iteration order
}

// NewGraph builds the happens-before graph from per-core histories.
func NewGraph(histories [][]*epoch.Summary) *Graph {
	g := &Graph{
		epochs:    make(map[epoch.ID]*epoch.Summary),
		preds:     make(map[epoch.ID][]epoch.ID),
		byVersion: make(map[mem.Version]epoch.ID),
	}
	for _, hist := range histories {
		for i, s := range hist {
			g.epochs[s.ID] = s
			g.order = append(g.order, s.ID)
			if i > 0 {
				g.preds[s.ID] = append(g.preds[s.ID], hist[i-1].ID)
			}
			g.preds[s.ID] = append(g.preds[s.ID], s.Deps...)
			for _, v := range s.Writes {
				g.byVersion[v] = s.ID
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool {
		if g.order[i].Core != g.order[j].Core {
			return g.order[i].Core < g.order[j].Core
		}
		return g.order[i].Num < g.order[j].Num
	})
	return g
}

// Epochs returns every known epoch in deterministic order.
func (g *Graph) Epochs() []epoch.ID { return g.order }

// Predecessors returns the transitive happens-before predecessors of id
// (not including id).
func (g *Graph) Predecessors(id epoch.ID) []epoch.ID {
	seen := map[epoch.ID]bool{id: true}
	var out []epoch.ID
	stack := append([]epoch.ID(nil), g.preds[id]...)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
		stack = append(stack, g.preds[p]...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Core != out[j].Core {
			return out[i].Core < out[j].Core
		}
		return out[i].Num < out[j].Num
	})
	return out
}

// WriterOf returns the epoch that produced a version, if known.
func (g *Graph) WriterOf(v mem.Version) (epoch.ID, bool) {
	id, ok := g.byVersion[v]
	return id, ok
}

// durableAll is fullyDurable without the sorted line report: the fast
// screening passes only need a verdict, not a deterministic witness.
func durableAll(s *epoch.Summary, image map[mem.Line]mem.Version) bool {
	for l, v := range s.Writes {
		if image[l] < v {
			return false
		}
	}
	return true
}

// fullyDurable reports whether every final write of epoch s is reflected
// in the image (possibly superseded by a later version, which the conflict
// rules only permit after s persisted).
func fullyDurable(s *epoch.Summary, image map[mem.Line]mem.Version) (mem.Line, bool) {
	lines := make([]mem.Line, 0, len(s.Writes))
	for l := range s.Writes {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, l := range lines {
		if image[l] < s.Writes[l] {
			return l, false
		}
	}
	return 0, true
}

// touched reports whether any of the epoch's own versions is the durable
// one for its line (the epoch left a footprint in the image).
func touched(s *epoch.Summary, image map[mem.Line]mem.Version) bool {
	for l, v := range s.Writes {
		if image[l] == v {
			return true
		}
	}
	return false
}

// OrderingViolation describes a broken persist-order constraint.
type OrderingViolation struct {
	Later   epoch.ID // epoch with a durable footprint
	Earlier epoch.ID // happens-before predecessor that is not fully durable
	Line    mem.Line // a missing line of Earlier
}

// Error implements error.
func (v *OrderingViolation) Error() string {
	return fmt.Sprintf("recovery: %v has durable data but predecessor %v is missing %v",
		v.Later, v.Earlier, v.Line)
}

// requiredDurable computes the set of epochs the ordering invariant
// obliges to be fully durable: the transitive happens-before
// predecessors of every epoch with a durable footprint. One reverse
// closure over the whole graph — O(epochs + edges) — instead of a
// transitive walk per touched epoch, which made clean-image checking
// quadratic and dominated live-server drains.
func requiredDurable(g *Graph, image map[mem.Line]mem.Version) []epoch.ID {
	required := make(map[epoch.ID]bool, len(g.order))
	var stack, out []epoch.ID
	for _, id := range g.order {
		if touched(g.epochs[id], image) {
			stack = append(stack, g.preds[id]...)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if required[p] || g.epochs[p] == nil {
			continue
		}
		required[p] = true
		out = append(out, p)
		stack = append(stack, g.preds[p]...)
	}
	return out
}

// CheckOrdering verifies the fundamental epoch-ordering invariant of every
// buffered persistency model: if any line of epoch E is durable, every
// epoch that happens-before E is fully durable. It returns the first
// violation found, or nil.
//
// Clean images — the overwhelmingly common case — are decided by the
// linear-time screening (requiredDurable + one durability scan per
// epoch). Only when the screening finds a failure does the precise
// per-epoch scan run, so the violation reported is the one at the lowest
// epoch index.
func CheckOrdering(g *Graph, image map[mem.Line]mem.Version) error {
	for _, id := range requiredDurable(g, image) {
		if !durableAll(g.epochs[id], image) {
			if v := firstViolation(g, image); v != nil {
				return v
			}
			break
		}
	}
	return nil
}

// firstViolation scans every epoch of g.order with the transitive
// predecessor walk, returning the violation at the lowest index, or nil.
func firstViolation(g *Graph, image map[mem.Line]mem.Version) *OrderingViolation {
	for _, id := range g.order {
		s := g.epochs[id]
		if !touched(s, image) {
			continue
		}
		for _, pid := range g.Predecessors(id) {
			ps := g.epochs[pid]
			if ps == nil {
				continue
			}
			if line, ok := fullyDurable(ps, image); !ok {
				return &OrderingViolation{Later: id, Earlier: pid, Line: line}
			}
		}
	}
	return nil
}

// CheckPersistedClosed verifies that the set of epochs the hardware
// declared persisted is downward-closed under happens-before and fully
// durable in the image.
//
// The screening checks each persisted epoch's durability once and its
// DIRECT predecessors' flags — sufficient, because a set closed under
// direct predecessors is closed under the transitive relation by
// induction over the DAG. Only on failure does the original
// transitive-walk scan run, preserving the exact deterministic error.
func CheckPersistedClosed(g *Graph, image map[mem.Line]mem.Version) error {
	clean := true
screen:
	for _, id := range g.order {
		s := g.epochs[id]
		if !s.PersistedFlag {
			continue
		}
		if !durableAll(s, image) {
			clean = false
			break
		}
		for _, pid := range g.preds[id] {
			if ps := g.epochs[pid]; ps != nil && !ps.PersistedFlag {
				clean = false
				break screen
			}
		}
	}
	if clean {
		return nil
	}
	for _, id := range g.order {
		s := g.epochs[id]
		if !s.PersistedFlag {
			continue
		}
		if line, ok := fullyDurable(s, image); !ok {
			return fmt.Errorf("recovery: epoch %v declared persisted but line %v is not durable", id, line)
		}
		for _, pid := range g.Predecessors(id) {
			if ps := g.epochs[pid]; ps != nil && !ps.PersistedFlag {
				return fmt.Errorf("recovery: persisted epoch %v has unpersisted predecessor %v", id, pid)
			}
		}
	}
	return nil
}

// CheckTrimmable decides whether a persisted epoch may leave the retained
// history for good: it holds the epoch to what CheckOrdering and
// CheckPersistedClosed would conclude about it at any later image. Every
// write must be durable now (durable reports a line's NVRAM version, which
// only grows) and every direct predecessor — the previous epoch on the
// core and each recorded dependence — must have persisted; predecessors
// are trimmed under the same rule or stay in the graph, so the transitive
// closure follows by induction. A graph built without the epoch then
// loses no violation: the checks skip predecessors they have no summary
// for.
func CheckTrimmable(s *epoch.Summary, durable func(mem.Line) mem.Version, persisted func(epoch.ID) bool) error {
	missing, torn := mem.Line(0), false
	for l, v := range s.Writes {
		if durable(l) < v && (!torn || l < missing) {
			missing, torn = l, true
		}
	}
	if torn {
		return fmt.Errorf("recovery: epoch %v declared persisted but line %v is not durable", s.ID, missing)
	}
	if s.ID.Num > 0 {
		if prev := (epoch.ID{Core: s.ID.Core, Num: s.ID.Num - 1}); !persisted(prev) {
			return fmt.Errorf("recovery: persisted epoch %v has unpersisted predecessor %v", s.ID, prev)
		}
	}
	for _, d := range s.Deps {
		if !persisted(d) {
			return fmt.Errorf("recovery: persisted epoch %v has unpersisted predecessor %v", s.ID, d)
		}
	}
	return nil
}

// Rollback applies the durable undo log to the crash image, restoring the
// pre-epoch value of every line whose durable version belongs to an epoch
// the hardware had not declared persisted — the §5.2.1 recovery step that
// makes bulk-mode BSP epochs atomic. It returns the recovered image.
func Rollback(g *Graph, image map[mem.Line]mem.Version, log []nvram.LogEntry) map[mem.Line]mem.Version {
	recovered := make(map[mem.Line]mem.Version, len(image))
	for l, v := range image {
		recovered[l] = v
	}
	// Index undo entries by (epoch, line); last entry wins (there is at
	// most one per epoch+line by construction).
	type key struct {
		id   epoch.ID
		line mem.Line
	}
	undo := make(map[key]mem.Version, len(log))
	for _, e := range log {
		undo[key{epoch.ID{Core: e.EpochCore, Num: e.EpochNum}, e.Line}] = e.Old
	}
	// Repeatedly roll back lines whose durable version came from an
	// unpersisted epoch. Old values may themselves need further rollback
	// in pathological orders, so iterate to a fixed point; each step
	// strictly decreases some line's version, so it terminates.
	for changed := true; changed; {
		changed = false
		lines := make([]mem.Line, 0, len(recovered))
		for l := range recovered {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		for _, l := range lines {
			v := recovered[l]
			if v == mem.NoVersion {
				continue
			}
			writer, known := g.WriterOf(v)
			if !known {
				continue
			}
			s := g.epochs[writer]
			if s == nil || s.PersistedFlag {
				continue
			}
			if old, ok := undo[key{writer, l}]; ok {
				recovered[l] = old
				changed = true
			}
		}
	}
	return recovered
}

// CheckAtomicity verifies that a recovered image reflects whole epochs
// only: no line's version belongs to an epoch that is not fully reflected
// — the BSP guarantee after rollback.
func CheckAtomicity(g *Graph, recovered map[mem.Line]mem.Version) error {
	for _, id := range g.order {
		s := g.epochs[id]
		if !touched(s, recovered) {
			continue
		}
		if line, ok := fullyDurable(s, recovered); !ok {
			return fmt.Errorf("recovery: epoch %v is partially reflected after rollback (line %v missing)", id, line)
		}
	}
	return nil
}

// CheckAll runs the ordering and closure checks, and — when an undo log is
// supplied — rollback plus the atomicity check. It is the one-call entry
// point used by tests and the harness.
func CheckAll(histories [][]*epoch.Summary, image map[mem.Line]mem.Version, log []nvram.LogEntry, withRollback bool) error {
	g := NewGraph(histories)
	if err := CheckOrdering(g, image); err != nil {
		return err
	}
	if err := CheckPersistedClosed(g, image); err != nil {
		return err
	}
	if withRollback {
		recovered := Rollback(g, image, log)
		if err := CheckAtomicity(g, recovered); err != nil {
			return err
		}
	}
	return nil
}
