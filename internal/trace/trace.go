// Package trace defines the per-core instruction streams the simulated
// machine executes: loads (blocking or posted), stores (partial or
// whole-line), compute delays, persist barriers, and transaction markers,
// plus builders and a deterministic RNG for workload generators.
package trace

import (
	"fmt"
	"sync"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

// OpKind enumerates trace operations.
type OpKind uint8

const (
	// Compute burns cycles without touching memory.
	Compute OpKind = iota
	// Load reads one cache line.
	Load
	// Store writes one cache line.
	Store
	// Barrier is a programmer-inserted persist barrier (BEP). Machines
	// running bulk-mode BSP or NP ignore it per their model.
	Barrier
	// TxEnd marks the completion of one benchmark transaction; the
	// harness derives transaction throughput from these.
	TxEnd
	// PostedLoad reads one cache line without stalling the core: the
	// load twin of a store posted through the write buffer. The core goes
	// on while the read is served, as an out-of-order core goes on past
	// a miss, and waits for it only at a persist barrier, before a store,
	// when every outstanding-load slot is taken, and at the end of its
	// stream.
	PostedLoad
	// StoreLine writes one cache line whole, carrying a token (see
	// Op.Token). It goes beyond the paper's trace core, which stores
	// partial lines: since no byte of the old line survives, the writer
	// takes ownership without fetching the line's data, as a full-line
	// write (x86 ItoM, a non-temporal store, ARM DC ZVA) does. Ordering is
	// a Store's: the same write buffer, conflict check and persist rules.
	StoreLine
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	case Barrier:
		return "barrier"
	case TxEnd:
		return "txend"
	case PostedLoad:
		return "posted-load"
	case StoreLine:
		return "store-line"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one trace operation, 16 bytes, built by a Builder and read through
// its accessors. arg holds the address of a load or store or the cycles of a
// Compute; meta holds the kind in its top byte and the token in its low 56
// bits, so a token is at most MaxToken. An accessor returns 0 for a field
// the op's kind does not use.
//
// A Token, when nonzero on a StoreLine, asks the machine to record the
// store version the write eventually commits with (Result.TokenVersions),
// so an application layer can correlate its logical writes with the
// durable image. At most one tagged store per (core, line) may be in
// flight at a time — callers must separate same-line tagged stores with a
// Barrier.
type Op struct {
	arg  uint64
	meta uint64
}

// tokenBits is the width of the token in Op.meta; the kind sits above it.
const tokenBits = 56

// MaxToken is the largest token a StoreLine can carry.
const MaxToken = 1<<tokenBits - 1

// Kind reports what the op does.
func (o Op) Kind() OpKind { return OpKind(o.meta >> tokenBits) }

// Addr reports the byte address a Load, PostedLoad, Store or StoreLine
// touches.
func (o Op) Addr() mem.Addr {
	if o.Kind() == Compute {
		return 0
	}
	return mem.Addr(o.arg)
}

// Cycles reports how long a Compute burns.
func (o Op) Cycles() sim.Cycle {
	if o.Kind() != Compute {
		return 0
	}
	return sim.Cycle(o.arg)
}

// Token reports a StoreLine's token, 0 when untagged.
func (o Op) Token() uint64 { return o.meta & MaxToken }

// Program is one trace per core.
type Program struct {
	Traces [][]Op
}

// Cores reports the number of per-core traces.
func (p *Program) Cores() int { return len(p.Traces) }

// Ops reports the total operation count across all traces.
func (p *Program) Ops() int {
	n := 0
	for _, t := range p.Traces {
		n += len(t)
	}
	return n
}

// Stores reports the total store count (Store and StoreLine) across all
// traces.
func (p *Program) Stores() int {
	n := 0
	for _, t := range p.Traces {
		for _, op := range t {
			if k := op.Kind(); k == Store || k == StoreLine {
				n++
			}
		}
	}
	return n
}

// Builder accumulates one core's trace.
type Builder struct {
	ops []Op
}

// add appends one op of kind k.
func (b *Builder) add(k OpKind, arg, token uint64) *Builder {
	b.ops = append(b.ops, Op{arg: arg, meta: uint64(k)<<tokenBits | token})
	return b
}

// Load appends a line read of addr.
func (b *Builder) Load(addr mem.Addr) *Builder { return b.add(Load, uint64(addr), 0) }

// PostedLoad appends a line read of addr that the core does not wait for
// (see the PostedLoad kind).
func (b *Builder) PostedLoad(addr mem.Addr) *Builder { return b.add(PostedLoad, uint64(addr), 0) }

// Store appends a line write of addr.
func (b *Builder) Store(addr mem.Addr) *Builder { return b.add(Store, uint64(addr), 0) }

// StoreLine appends a whole-line write of addr carrying a
// version-tracking token (see the StoreLine kind and Op.Token). It panics
// when the token exceeds MaxToken.
func (b *Builder) StoreLine(addr mem.Addr, token uint64) *Builder {
	if token > MaxToken {
		panic(fmt.Sprintf("trace: token %d exceeds %d bits", token, tokenBits))
	}
	return b.add(StoreLine, uint64(addr), token)
}

// StoreRange appends a store to every line of the byte range [addr,
// addr+size) — how a 512-byte micro-benchmark entry write appears to the
// memory system.
func (b *Builder) StoreRange(addr mem.Addr, size uint64) *Builder {
	return b.lines(Store, addr, size)
}

// LoadRange appends a load of every line of the byte range.
func (b *Builder) LoadRange(addr mem.Addr, size uint64) *Builder {
	return b.lines(Load, addr, size)
}

// lines appends one op of kind k per line of the byte range.
func (b *Builder) lines(k OpKind, addr mem.Addr, size uint64) *Builder {
	first := mem.LineOf(addr)
	end := first + mem.Line(mem.LinesSpanned(addr, size))
	for l := first; l < end; l++ {
		b.add(k, uint64(l.Addr()), 0)
	}
	return b
}

// Compute appends a pure-compute delay.
func (b *Builder) Compute(cycles sim.Cycle) *Builder {
	if cycles > 0 {
		b.add(Compute, uint64(cycles), 0)
	}
	return b
}

// Barrier appends a persist barrier.
func (b *Builder) Barrier() *Builder { return b.add(Barrier, 0, 0) }

// TxEnd appends a transaction-completion marker.
func (b *Builder) TxEnd() *Builder { return b.add(TxEnd, 0, 0) }

// Ops returns the accumulated trace.
func (b *Builder) Ops() []Op { return b.ops }

// Reset empties the builder while keeping its backing buffer, so a hot
// path can translate many requests through one builder without
// reallocating. The slice returned by a prior Ops call is invalidated —
// only callers that copy (or fully consume) the ops before the next
// Reset may use it.
func (b *Builder) Reset() *Builder {
	b.ops = b.ops[:0]
	return b
}

// scratch recycles the per-core builders Build generates into, so a
// program's traces grow in buffers earlier programs already grew and the
// packed copy is the only allocation sized by the program. It holds one
// set of builders per Build that ever ran concurrently with another.
// It is not a sync.Pool: a sweep collects garbage several times between
// two generations, and a pool would hand back empty builders to regrow.
// Build resets what it takes, so no caller sees another's ops.
var scratch struct {
	sync.Mutex
	free [][]Builder
}

// Build generates a program of the given core count: fill appends core
// i's ops to bs[i], and Build copies them into one allocation of exactly
// the program's size. Trace i is a sub-slice of it whose capacity ends
// where the trace does, so an append to one core's trace reallocates
// instead of writing into the next core's. The builders are scratch: fill
// must not keep them or the slices their Ops return.
func Build(cores int, fill func(bs []Builder)) *Program {
	var bs []Builder
	scratch.Lock()
	if n := len(scratch.free); n > 0 {
		bs = scratch.free[n-1]
		scratch.free = scratch.free[:n-1]
	}
	scratch.Unlock()
	if cap(bs) < cores {
		bs = append(bs[:cap(bs)], make([]Builder, cores-cap(bs))...)
	}
	bs = bs[:cores]
	for i := range bs {
		bs[i].Reset()
	}
	fill(bs)

	n := 0
	for i := range bs {
		n += len(bs[i].ops)
	}
	ops := make([]Op, n)
	traces := make([][]Op, cores)
	at := 0
	for i := range bs {
		end := at + copy(ops[at:], bs[i].ops)
		traces[i] = ops[at:end:end]
		at = end
	}
	scratch.Lock()
	scratch.free = append(scratch.free, bs)
	scratch.Unlock()
	return &Program{Traces: traces}
}

// Rand is a small deterministic PRNG (xorshift64*) so workload generation
// never depends on global math/rand state.
type Rand struct{ state uint64 }

// NewRand seeds a generator; a zero seed is remapped to a fixed constant.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next raw value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("trace: Intn(%d)", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}
