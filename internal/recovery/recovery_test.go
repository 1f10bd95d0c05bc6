package recovery

import (
	"fmt"
	"strings"
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/nvram"
)

func summary(core int, num uint64, persisted bool, writes map[mem.Line]mem.Version, deps ...epoch.ID) *epoch.Summary {
	return &epoch.Summary{
		ID:            epoch.ID{Core: core, Num: num},
		Writes:        writes,
		Deps:          deps,
		PersistedFlag: persisted,
	}
}

func TestGraphProgramOrderEdges(t *testing.T) {
	h := [][]*epoch.Summary{{
		summary(0, 0, true, map[mem.Line]mem.Version{1: 10}),
		summary(0, 1, true, map[mem.Line]mem.Version{2: 20}),
		summary(0, 2, false, map[mem.Line]mem.Version{3: 30}),
	}}
	g := NewGraph(h)
	preds := g.Predecessors(epoch.ID{Core: 0, Num: 2})
	if len(preds) != 2 {
		t.Fatalf("predecessors = %v, want epochs 0 and 1", preds)
	}
	if w, ok := g.WriterOf(20); !ok || w != (epoch.ID{Core: 0, Num: 1}) {
		t.Fatalf("WriterOf(20) = %v, %v", w, ok)
	}
	if _, ok := g.WriterOf(99); ok {
		t.Fatal("unknown version resolved")
	}
}

func TestGraphInterThreadEdges(t *testing.T) {
	src := epoch.ID{Core: 0, Num: 0}
	h := [][]*epoch.Summary{
		{summary(0, 0, true, map[mem.Line]mem.Version{1: 10})},
		{summary(1, 0, true, map[mem.Line]mem.Version{2: 20}, src)},
	}
	g := NewGraph(h)
	preds := g.Predecessors(epoch.ID{Core: 1, Num: 0})
	if len(preds) != 1 || preds[0] != src {
		t.Fatalf("predecessors = %v, want [%v]", preds, src)
	}
}

func TestCheckOrderingAcceptsPrefix(t *testing.T) {
	h := [][]*epoch.Summary{{
		summary(0, 0, true, map[mem.Line]mem.Version{1: 10, 2: 11}),
		summary(0, 1, false, map[mem.Line]mem.Version{3: 20}),
	}}
	g := NewGraph(h)
	// Epoch 0 fully durable, epoch 1 not at all: fine.
	img := map[mem.Line]mem.Version{1: 10, 2: 11}
	if err := CheckOrdering(g, img); err != nil {
		t.Fatalf("prefix image rejected: %v", err)
	}
	// Epoch 1 partially durable with epoch 0 complete: also fine under
	// BEP (ordering, not atomicity).
	img[3] = 20
	if err := CheckOrdering(g, img); err != nil {
		t.Fatalf("complete image rejected: %v", err)
	}
}

func TestCheckOrderingDetectsViolation(t *testing.T) {
	h := [][]*epoch.Summary{{
		summary(0, 0, false, map[mem.Line]mem.Version{1: 10, 2: 11}),
		summary(0, 1, false, map[mem.Line]mem.Version{3: 20}),
	}}
	g := NewGraph(h)
	// Epoch 1's line durable while epoch 0 is missing line 2.
	img := map[mem.Line]mem.Version{1: 10, 3: 20}
	err := CheckOrdering(g, img)
	if err == nil {
		t.Fatal("ordering violation not detected")
	}
	v, ok := err.(*OrderingViolation)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if v.Line != 2 || v.Earlier != (epoch.ID{Core: 0, Num: 0}) {
		t.Fatalf("violation = %+v", v)
	}
}

func TestCheckOrderingCrossThread(t *testing.T) {
	src := epoch.ID{Core: 0, Num: 0}
	h := [][]*epoch.Summary{
		{summary(0, 0, false, map[mem.Line]mem.Version{1: 10})},
		{summary(1, 0, false, map[mem.Line]mem.Version{2: 20}, src)},
	}
	g := NewGraph(h)
	// Dependent epoch durable, source missing: violation.
	if err := CheckOrdering(g, map[mem.Line]mem.Version{2: 20}); err == nil {
		t.Fatal("cross-thread ordering violation not detected")
	}
	if err := CheckOrdering(g, map[mem.Line]mem.Version{1: 10, 2: 20}); err != nil {
		t.Fatalf("valid cross-thread image rejected: %v", err)
	}
}

func TestCheckOrderingAllowsSupersededVersions(t *testing.T) {
	// Epoch 0 wrote line 1 = v10; epoch 1 rewrote it = v20 (legal only
	// after epoch 0 persisted). The image holding v20 must count epoch 0
	// as durable.
	h := [][]*epoch.Summary{{
		summary(0, 0, true, map[mem.Line]mem.Version{1: 10}),
		summary(0, 1, true, map[mem.Line]mem.Version{1: 20, 2: 21}),
	}}
	g := NewGraph(h)
	img := map[mem.Line]mem.Version{1: 20, 2: 21}
	if err := CheckOrdering(g, img); err != nil {
		t.Fatalf("superseded version rejected: %v", err)
	}
}

func TestCheckPersistedClosed(t *testing.T) {
	h := [][]*epoch.Summary{{
		summary(0, 0, true, map[mem.Line]mem.Version{1: 10}),
		summary(0, 1, true, map[mem.Line]mem.Version{2: 20}),
	}}
	g := NewGraph(h)
	if err := CheckPersistedClosed(g, map[mem.Line]mem.Version{1: 10, 2: 20}); err != nil {
		t.Fatalf("valid persisted set rejected: %v", err)
	}
	// Declared persisted but a line missing from the image.
	if err := CheckPersistedClosed(g, map[mem.Line]mem.Version{1: 10}); err == nil {
		t.Fatal("missing durable line not detected")
	}
	// Persisted epoch with unpersisted predecessor.
	h2 := [][]*epoch.Summary{{
		summary(0, 0, false, map[mem.Line]mem.Version{1: 10}),
		summary(0, 1, true, map[mem.Line]mem.Version{2: 20}),
	}}
	g2 := NewGraph(h2)
	if err := CheckPersistedClosed(g2, map[mem.Line]mem.Version{1: 10, 2: 20}); err == nil {
		t.Fatal("non-closed persisted set not detected")
	}
}

func TestRollbackErasesPartialEpoch(t *testing.T) {
	h := [][]*epoch.Summary{{
		summary(0, 0, true, map[mem.Line]mem.Version{1: 10, 2: 11}),
		summary(0, 1, false, map[mem.Line]mem.Version{1: 20, 3: 21}),
	}}
	g := NewGraph(h)
	// Crash mid-flush of epoch 1: line 1's new version durable, line 3
	// not. Undo log holds epoch 1's pre-images.
	img := map[mem.Line]mem.Version{1: 20, 2: 11}
	log := []nvram.LogEntry{
		{Line: 1, Old: 10, EpochCore: 0, EpochNum: 1},
		{Line: 3, Old: mem.NoVersion, EpochCore: 0, EpochNum: 1},
	}
	rec := Rollback(g, img, log)
	if rec[1] != 10 {
		t.Fatalf("line 1 = %d after rollback, want 10", rec[1])
	}
	if rec[2] != 11 {
		t.Fatalf("line 2 = %d, want untouched 11", rec[2])
	}
	if err := CheckAtomicity(g, rec); err != nil {
		t.Fatalf("recovered image not atomic: %v", err)
	}
}

func TestRollbackLeavesPersistedEpochsAlone(t *testing.T) {
	h := [][]*epoch.Summary{{
		summary(0, 0, true, map[mem.Line]mem.Version{1: 10}),
	}}
	g := NewGraph(h)
	img := map[mem.Line]mem.Version{1: 10}
	log := []nvram.LogEntry{{Line: 1, Old: mem.NoVersion, EpochCore: 0, EpochNum: 0}}
	rec := Rollback(g, img, log)
	if rec[1] != 10 {
		t.Fatalf("persisted epoch rolled back: line 1 = %d", rec[1])
	}
}

func TestCheckAtomicityDetectsPartialEpoch(t *testing.T) {
	h := [][]*epoch.Summary{{
		summary(0, 0, false, map[mem.Line]mem.Version{1: 10, 2: 11}),
	}}
	g := NewGraph(h)
	if err := CheckAtomicity(g, map[mem.Line]mem.Version{1: 10}); err == nil {
		t.Fatal("partial epoch not detected")
	}
}

func TestCheckAllEndToEnd(t *testing.T) {
	h := [][]*epoch.Summary{{
		summary(0, 0, true, map[mem.Line]mem.Version{1: 10}),
		summary(0, 1, false, map[mem.Line]mem.Version{1: 20}),
	}}
	img := map[mem.Line]mem.Version{1: 20}
	log := []nvram.LogEntry{{Line: 1, Old: 10, EpochCore: 0, EpochNum: 1}}
	if err := CheckAll(h, img, log, true); err != nil {
		t.Fatalf("CheckAll failed: %v", err)
	}
	// Without rollback the same partially-persisted epoch passes
	// ordering (BEP doesn't promise atomicity).
	if err := CheckAll(h, img, nil, false); err != nil {
		t.Fatalf("CheckAll (no rollback) failed: %v", err)
	}
}

// TestCheckTrimmable: an epoch may leave the retained history only when
// every write is durable and every direct predecessor has persisted.
func TestCheckTrimmable(t *testing.T) {
	dep := epoch.ID{Core: 1, Num: 4}
	s := summary(0, 3, true, map[mem.Line]mem.Version{7: 30, 5: 31}, dep)
	image := map[mem.Line]mem.Version{5: 31, 7: 40}
	durable := func(l mem.Line) mem.Version { return image[l] }
	all := func(epoch.ID) bool { return true }
	if err := CheckTrimmable(s, durable, all); err != nil {
		t.Fatalf("durable epoch with persisted predecessors refused: %v", err)
	}
	image[5], image[7] = 30, 29
	if err := CheckTrimmable(s, durable, all); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %v is", mem.Line(5))) {
		t.Fatalf("two lines missing: err = %v, want the lowest line named", err)
	}
	image[5], image[7] = 31, 30
	for _, missing := range []epoch.ID{{Core: 0, Num: 2}, dep} {
		err := CheckTrimmable(s, durable, func(id epoch.ID) bool { return id != missing })
		if err == nil || !strings.Contains(err.Error(), "unpersisted predecessor") {
			t.Fatalf("predecessor %v unpersisted: err = %v", missing, err)
		}
	}
}

// TestGraphToleratesTrimmedPrefix: histories whose oldest epochs have been
// trimmed still build a graph and pass both checks — program-order and
// dependence edges into the missing prefix are skipped, not dereferenced —
// and a violation among the epochs that remain is still found.
func TestGraphToleratesTrimmedPrefix(t *testing.T) {
	trimmed := epoch.ID{Core: 0, Num: 6}
	h := [][]*epoch.Summary{
		{ // core 0 starts at epoch 7: 0..6 were trimmed
			summary(0, 7, true, map[mem.Line]mem.Version{1: 70}),
			summary(0, 8, false, map[mem.Line]mem.Version{2: 80}),
		},
		{summary(1, 3, true, map[mem.Line]mem.Version{3: 75}, trimmed)},
	}
	g := NewGraph(h)
	image := map[mem.Line]mem.Version{1: 70, 3: 75}
	if err := CheckOrdering(g, image); err != nil {
		t.Fatalf("ordering over a trimmed prefix: %v", err)
	}
	if err := CheckPersistedClosed(g, image); err != nil {
		t.Fatalf("closure over a trimmed prefix: %v", err)
	}
	if preds := g.Predecessors(epoch.ID{Core: 1, Num: 3}); len(preds) != 1 || preds[0] != trimmed {
		t.Fatalf("predecessors = %v, want only the recorded dependence", preds)
	}
	image[2] = 80 // epoch 8 durable while epoch 7 loses its line
	delete(image, 1)
	if err := CheckOrdering(g, image); err == nil {
		t.Fatal("violation among the remaining epochs went unnoticed")
	}
}
