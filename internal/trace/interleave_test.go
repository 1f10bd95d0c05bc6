package trace

import (
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

// Interleave decodes an arbitrary byte stream into a multi-core Program,
// distributing operations across the given number of per-core traces. It
// is total: every input — including adversarial or malformed ones — maps
// to some valid op sequence, which makes it the machine's fuzzing front
// end: any byte soup the fuzzer invents becomes a program the simulator
// must survive.
//
// Encoding: bytes are consumed in pairs (a trailing odd byte is
// ignored). In each pair (sel, arg):
//
//   - core   = (sel >> 3) mod cores — which trace receives the op
//   - opcode = sel & 7:
//     0,1  store to a shared hot line   (arg mod 32, 64B apart)
//     2    load of a shared hot line    (arg mod 32)
//     3    store to a core-private line (arg mod 16)
//     4    load of a core-private line  (arg mod 16)
//     5    compute burst of arg cycles
//     6    persist barrier
//     7    transaction end marker
//
// The shared region overlaps across cores (inter-thread conflicts); the
// private regions are staggered per core (intra-thread conflicts on
// reuse). cores < 1 is clamped to 1.
func Interleave(cores int, data []byte) *Program {
	if cores < 1 {
		cores = 1
	}
	return Build(cores, func(bs []Builder) {
		for i := 0; i+1 < len(data); i += 2 {
			sel, arg := data[i], data[i+1]
			b := &bs[int(sel>>3)%cores]
			core := int(sel>>3) % cores
			privBase := mem.Addr(0x100000 + core*0x4000)
			switch sel & 7 {
			case 0, 1:
				b.Store(mem.Addr(int(arg%32) * 64))
			case 2:
				b.Load(mem.Addr(int(arg%32) * 64))
			case 3:
				b.Store(privBase + mem.Addr(int(arg%16)*64))
			case 4:
				b.Load(privBase + mem.Addr(int(arg%16)*64))
			case 5:
				b.Compute(sim.Cycle(arg))
			case 6:
				b.Barrier()
			case 7:
				b.TxEnd()
			}
		}
	})
}

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
