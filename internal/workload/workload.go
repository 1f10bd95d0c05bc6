// Package workload generates the memory traces the paper evaluates:
// the five persistent-data-structure micro-benchmarks of Table 2 (hash,
// queue, rbtree, sdg, sps — run under buffered epoch persistency with
// programmer-inserted barriers), and nine synthetic application models
// standing in for the PARSEC/SPLASH-2/STAMP workloads used for bulk-mode
// BSP (see DESIGN.md for the substitution rationale).
//
// Generators simulate the actual data-structure logic in Go to compute the
// address stream each thread would issue, emitting loads, stores, persist
// barriers, and transaction markers. All generation is deterministic.
package workload

import (
	"fmt"
	"sort"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/trace"
)

// EntrySize is the data-entry payload used by every micro-benchmark
// (Section 6: "The size of data entry ... is 512 bytes").
const EntrySize = 512

// Spec parameterizes a micro-benchmark run.
type Spec struct {
	// Threads is the number of cores/threads (paper: 32).
	Threads int
	// OpsPerThread is the number of data-structure transactions each
	// thread performs.
	OpsPerThread int
	// Seed drives the deterministic operation mix.
	Seed uint64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Threads <= 0 {
		return fmt.Errorf("workload: Threads must be positive, got %d", s.Threads)
	}
	if s.OpsPerThread <= 0 {
		return fmt.Errorf("workload: OpsPerThread must be positive, got %d", s.OpsPerThread)
	}
	return nil
}

// Generator builds the trace program for one benchmark.
type Generator func(Spec) (*trace.Program, error)

// Microbenchmarks returns the Table 2 suite keyed by the paper's names.
func Microbenchmarks() map[string]Generator {
	return map[string]Generator{
		"hash":   Hash,
		"queue":  Queue,
		"rbtree": RBTree,
		"sdg":    SDG,
		"sps":    SPS,
	}
}

// MicrobenchmarkNames returns the suite names in the paper's figure order.
func MicrobenchmarkNames() []string {
	return []string{"hash", "queue", "rbtree", "sdg", "sps"}
}

// allocator hands out EntrySize-aligned persistent-heap addresses.
type allocator struct {
	next mem.Addr
}

func newAllocator(base mem.Addr) *allocator { return &allocator{next: base} }

func (a *allocator) entry() mem.Addr { return a.entries(1) }

// entries reserves n consecutive entries and returns the first: entry i
// is at base + i·EntrySize, where n calls to entry would have put it.
func (a *allocator) entries(n int) mem.Addr {
	base := a.next
	a.next += mem.Addr(n) * EntrySize
	return base
}

func (a *allocator) line() mem.Addr {
	addr := a.next
	a.next += mem.LineSize
	return addr
}

// opKind is the micro-benchmark transaction mix: the paper's benchmarks
// perform search, delete and insert operations.
type opKind int

const (
	opInsert opKind = iota
	opDelete
	opSearch
)

// pickOp draws from the insert/delete/search mix (40/30/30) while keeping
// the structure non-empty: deletes and searches fall back to inserts when
// the structure has no elements.
func pickOp(r *trace.Rand, population int) opKind {
	k := r.Intn(10)
	switch {
	case k < 4:
		return opInsert
	case k < 7:
		if population == 0 {
			return opInsert
		}
		return opDelete
	default:
		if population == 0 {
			return opInsert
		}
		return opSearch
	}
}

// thinkTime is the compute burned between data-structure operations,
// modelling key generation, comparisons and bookkeeping around the
// persistent accesses.
func thinkTime(r *trace.Rand) sim.Cycle {
	return sim.Cycle(20 + r.Intn(40))
}

// roundRobin drives per-thread op generators one transaction at a time so
// a shared structure evolves with interleaved ownership, the way 32
// threads hammering one structure would interleave in practice.
func roundRobin(spec Spec, step func(thread int, b *trace.Builder)) *trace.Program {
	return trace.Build(spec.Threads, func(bs []trace.Builder) {
		for op := 0; op < spec.OpsPerThread; op++ {
			for t := range bs {
				step(t, &bs[t])
			}
		}
	})
}

// perThread builds each thread's trace from its own private structure
// instance — the NV-heaps benchmark organization, where intra-thread
// conflicts dominate (§7.1). init is called once per thread and returns
// the per-transaction step.
func perThread(spec Spec, init func(thread int, r *trace.Rand, b *trace.Builder) func()) *trace.Program {
	return trace.Build(spec.Threads, func(bs []trace.Builder) {
		for t := range bs {
			step := init(t, threadRand(spec, t), &bs[t])
			for op := 0; op < spec.OpsPerThread; op++ {
				step()
			}
		}
	})
}

// threadRand seeds thread t's private generator.
func threadRand(spec Spec, t int) *trace.Rand {
	return trace.NewRand(spec.Seed ^ (uint64(t)+1)*0x9e3779b97f4a7c15)
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
