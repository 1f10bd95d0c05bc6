// Package machine assembles the full simulated multicore of the paper's
// Figure 2: trace-driven cores with private L1 caches, a shared
// multi-banked LLC, per-core epoch arbiters, a 2D-mesh interconnect, and
// NVRAM behind multiple memory controllers. It implements the access
// paths where epoch conflicts are detected and resolved, the epoch-flush
// handshake of Section 4.1, and the persistency models of Section 5.
package machine

import (
	"fmt"

	"persistbarriers/internal/cache"
	"persistbarriers/internal/epoch"
	"persistbarriers/internal/noc"
	"persistbarriers/internal/nvram"
	"persistbarriers/internal/obs"
	"persistbarriers/internal/sim"
)

// Model selects the persistency machinery the machine enforces.
type Model uint8

const (
	// NP is the paper's No Persistency baseline: NVRAM is plain memory;
	// barriers are ignored and nothing is ordered.
	NP Model = iota
	// SP is strict persistency: every store synchronously persists
	// before the next operation may issue (rules S1+S2).
	SP
	// WT is the naive buffered-strict-persistency design the paper
	// measures at ~8x NP: visibility decoupled from persistence, but no
	// coalescing — every store enqueues an ordered NVRAM write through a
	// bounded per-core persist queue.
	WT
	// EP is (unbuffered) epoch persistency: a persist barrier stalls
	// until the epoch it closes has fully persisted (rules E1+E2).
	EP
	// LB is the lazy-barrier family (buffered epoch persistency).
	// Config.IDT and Config.PF select LB, LB+IDT, LB+PF, or LB++.
	LB
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case NP:
		return "NP"
	case SP:
		return "SP"
	case WT:
		return "WT"
	case EP:
		return "EP"
	case LB:
		return "LB"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// Config describes one simulated machine.
type Config struct {
	Cores int

	// L1 geometry and latency (Table 1: 32 KB, 64 B lines, 4-way, 3 cyc).
	L1Sets    int
	L1Ways    int
	L1Latency sim.Cycle

	// LLC geometry and latency (Table 1: 1 MB x 32 banks, 16-way, 30 cyc).
	LLCBanks   int
	LLCSets    int
	LLCWays    int
	LLCLatency sim.Cycle

	// FlushIssue is the flush engine's per-line issue interval.
	FlushIssue sim.Cycle

	Mesh           noc.Config
	MemControllers int
	NVRAM          nvram.Config
	Epoch          epoch.Config

	// FlushMode selects clwb-like (non-invalidating) or clflush-like
	// (invalidating) persists.
	FlushMode cache.FlushMode

	Model Model
	// IDT enables inter-thread dependence tracking (§3.1); PF enables
	// proactive flushing (§3.2). Both together form LB++.
	IDT bool
	PF  bool
	// EnableSplit enables the deadlock-avoidance epoch split (§3.3).
	// Disabling it reproduces the Figure 5(a) deadlock.
	EnableSplit bool

	// GlobalArbiter serializes epoch flushes machine-wide through a
	// single arbiter instead of the paper's per-core arbiters — the
	// bottleneck §4.1 argues against; provided as an ablation.
	GlobalArbiter bool

	// BulkEpochStores > 0 runs the hardware persistence engine of §5.2:
	// barriers are inserted automatically every N dynamic stores
	// (programmer barriers in the trace are then ignored).
	BulkEpochStores int
	// Logging enables hardware undo logging (§5.2.1).
	Logging bool
	// CheckpointLines is the number of register-state lines saved to
	// persistent memory at each hardware epoch boundary.
	CheckpointLines int

	// WTQueue is the naive-BSP per-core persist queue depth.
	WTQueue int

	// WriteBuffer is the per-core posted-store window (Table 1: 32
	// entries): stores retire from the core after issue and complete in
	// the background; the core stalls when the buffer is full, and
	// persist barriers drain it. SP ignores it (rule S2 serializes).
	WriteBuffer int

	// RecordHistory retains epoch write sets for the recovery checker.
	RecordHistory bool
	// RecordOpTimes retains per-op completion cycles (timeline probes)
	// and per-line persist events. Only for small traces.
	RecordOpTimes bool

	// Probe receives the observability event stream (epoch lifecycle,
	// conflicts, flush handshakes, NVRAM/NoC samples) from every layer
	// of the machine. Nil (the default) disables instrumentation; the
	// uninstrumented hot path then costs one branch per site.
	Probe *obs.Probe
}

// DefaultConfig returns the paper's Table 1 machine running the plain LB
// barrier under BEP.
func DefaultConfig() Config {
	return Config{
		Cores:           32,
		L1Sets:          128, // 32 KB / 64 B / 4 ways
		L1Ways:          4,
		L1Latency:       3,
		LLCBanks:        32,
		LLCSets:         1024, // 1 MB / 64 B / 16 ways per bank
		LLCWays:         16,
		LLCLatency:      30,
		FlushIssue:      4,
		Mesh:            noc.DefaultConfig(),
		MemControllers:  4,
		NVRAM:           nvram.DefaultConfig(),
		Epoch:           epoch.DefaultConfig(),
		FlushMode:       cache.NonInvalidating,
		Model:           LB,
		EnableSplit:     true,
		CheckpointLines: 4,
		WTQueue:         32,
		WriteBuffer:     32,
	}
}

// Validate checks structural consistency.
func (c *Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("machine: Cores must be positive, got %d", c.Cores)
	}
	if c.Cores > c.Mesh.Rows*c.Mesh.Cols {
		return fmt.Errorf("machine: %d cores do not fit on a %dx%d mesh",
			c.Cores, c.Mesh.Rows, c.Mesh.Cols)
	}
	if c.LLCBanks <= 0 || c.LLCBanks > c.Mesh.Rows*c.Mesh.Cols {
		return fmt.Errorf("machine: LLCBanks %d must be in 1..%d", c.LLCBanks, c.Mesh.Rows*c.Mesh.Cols)
	}
	if c.L1Sets <= 0 || c.L1Ways <= 0 || c.LLCSets <= 0 || c.LLCWays <= 0 {
		return fmt.Errorf("machine: cache geometry must be positive")
	}
	if c.MemControllers <= 0 {
		return fmt.Errorf("machine: MemControllers must be positive, got %d", c.MemControllers)
	}
	if c.L1Latency == 0 || c.LLCLatency == 0 {
		return fmt.Errorf("machine: cache latencies must be nonzero")
	}
	if c.Model == WT && c.WTQueue <= 0 {
		return fmt.Errorf("machine: WT model requires a positive WTQueue, got %d", c.WTQueue)
	}
	if c.WriteBuffer < 0 {
		return fmt.Errorf("machine: WriteBuffer must be non-negative, got %d", c.WriteBuffer)
	}
	if c.BulkEpochStores < 0 {
		return fmt.Errorf("machine: BulkEpochStores must be non-negative, got %d", c.BulkEpochStores)
	}
	if c.BulkEpochStores > 0 && c.Model != LB {
		return fmt.Errorf("machine: bulk-mode BSP requires the LB model, got %v", c.Model)
	}
	if c.Logging && c.Model != LB {
		return fmt.Errorf("machine: undo logging requires the LB model, got %v", c.Model)
	}
	return nil
}

// llcIndexShift computes how many low line bits the bank interleave
// consumes, so bank-local set indexing skips them.
func (c *Config) llcIndexShift() uint {
	shift := uint(0)
	for b := c.LLCBanks; b > 1; b >>= 1 {
		shift++
	}
	return shift
}

// barriers names every barrier variant the way the paper's figures label
// them, with the switches that select it. BarrierName and SetBarrier both
// read it.
var barriers = []struct {
	name    string
	model   Model
	idt, pf bool
}{
	{"NP", NP, false, false},
	{"SP", SP, false, false},
	{"WT", WT, false, false},
	{"EP", EP, false, false},
	{"LB", LB, false, false},
	{"LB+IDT", LB, true, false},
	{"LB+PF", LB, false, true},
	{"LB++", LB, true, true},
}

// BarrierName renders the configured barrier variant the way the paper's
// figures label them. IDT and PF name a variant only under LB.
func (c *Config) BarrierName() string {
	for _, b := range barriers {
		if b.model == c.Model && (b.model != LB || b.idt == c.IDT && b.pf == c.PF) {
			return b.name
		}
	}
	return c.Model.String()
}

// SetBarrier is BarrierName's inverse: it sets Model, IDT and PF to the
// variant named (NP, SP, WT, EP, LB, LB+IDT, LB+PF or LB++).
func (c *Config) SetBarrier(name string) error {
	for _, b := range barriers {
		if b.name == name {
			c.Model, c.IDT, c.PF = b.model, b.idt, b.pf
			return nil
		}
	}
	return fmt.Errorf("machine: unknown barrier %q", name)
}
