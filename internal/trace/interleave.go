package trace

import (
	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

// Interleave decodes an arbitrary byte stream into a multi-core Program,
// distributing operations across the given number of per-core traces. It
// is total: every input — including adversarial or malformed ones — maps
// to some valid op sequence, which makes it the machine's fuzzing front
// end (any byte soup the fuzzer invents becomes a program the simulator
// must survive) and a compact way to replay externally captured op
// streams.
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
