package recovery

import (
	"testing"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/nvram"
)

// Degenerate inputs: the checker must be well-defined on empty epochs,
// empty undo logs, and empty graphs — the shapes a crash at cycle 0 or a
// barrier-only trace produces.

func TestEmptyWriteSetEpoch(t *testing.T) {
	// A barrier-barrier sequence closes an epoch that wrote nothing. It
	// must appear in the graph, count as fully durable everywhere, and
	// never block its successors.
	h := [][]*epoch.Summary{{
		summary(0, 0, true, map[mem.Line]mem.Version{}),
		summary(0, 1, true, map[mem.Line]mem.Version{1: 10}),
	}}
	g := NewGraph(h)
	if len(g.Epochs()) != 2 {
		t.Fatalf("epochs = %v", g.Epochs())
	}
	img := map[mem.Line]mem.Version{1: 10}
	if err := CheckOrdering(g, img); err != nil {
		t.Fatalf("empty-write-set predecessor blocked its successor: %v", err)
	}
	if err := CheckPersistedClosed(g, img); err != nil {
		t.Fatalf("empty-write-set epoch failed closure: %v", err)
	}
	// And with nil Writes instead of an empty map.
	h2 := [][]*epoch.Summary{{
		summary(0, 0, true, nil),
		summary(0, 1, true, map[mem.Line]mem.Version{1: 10}),
	}}
	if err := CheckAll(h2, img, nil, false); err != nil {
		t.Fatalf("nil write set rejected: %v", err)
	}
}

func TestRollbackEmptyUndoLog(t *testing.T) {
	// An unpersisted epoch's writes are durable but no undo entries were
	// logged (logging off, or the log itself lost): rollback must be an
	// identity, not a panic or an erase.
	h := [][]*epoch.Summary{{
		summary(0, 0, false, map[mem.Line]mem.Version{1: 10, 2: 11}),
	}}
	g := NewGraph(h)
	img := map[mem.Line]mem.Version{1: 10, 2: 11}
	rec := Rollback(g, img, nil)
	if len(rec) != 2 || rec[1] != 10 || rec[2] != 11 {
		t.Fatalf("rollback with empty log mutated the image: %v", rec)
	}
	rec = Rollback(g, img, []nvram.LogEntry{})
	if len(rec) != 2 {
		t.Fatalf("rollback with zero-length log mutated the image: %v", rec)
	}
}

func TestRollbackEmptyImage(t *testing.T) {
	g := NewGraph(nil)
	rec := Rollback(g, map[mem.Line]mem.Version{}, nil)
	if len(rec) != 0 {
		t.Fatalf("rollback invented lines: %v", rec)
	}
	if err := CheckAtomicity(g, rec); err != nil {
		t.Fatalf("empty image failed atomicity: %v", err)
	}
}

func TestChecksOnEmptyGraph(t *testing.T) {
	// No histories at all (crash before any epoch closed).
	if err := CheckAll(nil, map[mem.Line]mem.Version{}, nil, true); err != nil {
		t.Fatalf("empty everything rejected: %v", err)
	}
	if err := CheckAll([][]*epoch.Summary{{}, {}}, nil, nil, false); err != nil {
		t.Fatalf("empty per-core histories rejected: %v", err)
	}
}
