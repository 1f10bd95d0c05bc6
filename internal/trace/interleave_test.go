package trace

import (
	"testing"
)

func TestInterleaveDeterministicAndTotal(t *testing.T) {
	data := []byte{0x00, 5, 0x0e, 200, 0x08, 5, 0x06, 0, 0x1f, 0, 0xff, 0xff, 0x03}
	p1 := Interleave(2, data)
	p2 := Interleave(2, data)
	if p1.Cores() != 2 || p2.Cores() != 2 {
		t.Fatalf("cores = %d/%d, want 2", p1.Cores(), p2.Cores())
	}
	if p1.Ops() != p2.Ops() {
		t.Fatal("Interleave not deterministic")
	}
	// 13 bytes = 6 pairs (trailing byte dropped), every pair decodes.
	if p1.Ops() != 6 {
		t.Fatalf("ops = %d, want 6", p1.Ops())
	}
}

func TestInterleaveClampsCores(t *testing.T) {
	p := Interleave(0, []byte{0x00, 1})
	if p.Cores() != 1 || p.Ops() != 1 {
		t.Fatalf("cores=%d ops=%d, want 1/1", p.Cores(), p.Ops())
	}
	if Interleave(3, nil).Cores() != 3 {
		t.Fatal("empty input must still produce per-core traces")
	}
}

func TestInterleaveSpreadsAcrossCores(t *testing.T) {
	// Selector high bits walk the cores; each op must land on its core.
	data := []byte{
		0 << 3, 1, // core 0: shared store
		1 << 3, 1, // core 1: shared store
		2 << 3, 1, // core 2
		3 << 3, 1, // core 3
	}
	p := Interleave(4, data)
	for c := 0; c < 4; c++ {
		if len(p.Traces[c]) != 1 {
			t.Fatalf("core %d got %d ops, want 1", c, len(p.Traces[c]))
		}
	}
	// Private addresses are disjoint across cores.
	a0 := Interleave(4, []byte{0<<3 | 3, 0}).Traces[0][0].Addr()
	a1 := Interleave(4, []byte{1<<3 | 3, 0}).Traces[1][0].Addr()
	if a0 == a1 {
		t.Fatalf("private bases collide: %#x", uint64(a0))
	}
}
