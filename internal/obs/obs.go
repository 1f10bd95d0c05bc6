// Package obs is the simulator's event stream: a typed Probe emitted from
// the machine, epoch and nvram layers into one Sink, and the Chrome
// trace-event exporter (chrometrace.go) that is its one consumer. The
// exporter writes through TraceWriter (tracewriter.go), the repository's
// one trace-event writer, which the server's flight recorder shares.
//
// The layer is zero-overhead when disabled: every component holds a
// *Probe that defaults to nil, every Probe method is nil-safe, and the
// uninstrumented hot path therefore costs exactly one branch per
// potential emission site. Components never format strings or allocate
// unless a sink is attached.
//
// obs counts nothing; the Chrome trace is its one consumer. Every total
// the stream could be folded into is already kept where it happens —
// epoch.Table, the arbiter, the machine's access paths — and read through
// machine.Counters, which is what pmkvd serves (its engines run with a
// nil Probe) and what persistsim -metrics writes per window. The stream
// is for the trace, which needs the events themselves, in order.
//
// obs sits below epoch/nvram/machine in the dependency order (it imports
// only mem and sim), so any layer may emit without cycles.
// Epoch identities are carried as plain (core, num) pairs for the same
// reason.
package obs

import (
	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

// Kind enumerates the typed events of the stream.
type Kind uint8

const (
	// KEpochOpen: a core opened a new epoch (table.open).
	KEpochOpen Kind = iota
	// KEpochComplete: the epoch's closing advance retired (barrier,
	// hardware quota, split, or drain); Label is the AdvanceReason,
	// Value the epoch's store count.
	KEpochComplete
	// KEpochSplit: the deadlock-avoidance rule closed an ongoing epoch
	// (§3.3); always paired with a KEpochComplete carrying Label "split".
	KEpochSplit
	// KEpochFlushStart: the per-core arbiter started driving the epoch's
	// flush handshake; Label is the recorded FlushCause.
	KEpochFlushStart
	// KEpochPersist: the epoch became durably complete (PersistCMP);
	// Label is the final FlushCause ("natural" when no flush ran).
	KEpochPersist
	// KConflict: a memory request hit a line of an unpersisted epoch.
	// Label is the conflict kind ("intra", "inter", "eviction"); Detail
	// is the resolution path ("online", "idt", "demand"); Src* name the
	// conflicting epoch; Line is the conflicting line.
	KConflict
	// KIDTFallback: the dependence registers were full and an IDT
	// resolution fell back to an online flush; Src* name the source.
	KIDTFallback
	// KBankFlushStart: one LLC bank began draining an epoch's lines
	// (the FlushEpoch message landed); Unit is the bank, Value the line
	// count to drain.
	KBankFlushStart
	// KBankAck: the bank collected its last PersistAck and sent the
	// BankAck to the arbiter; Unit is the bank.
	KBankAck
	// KPersistAck: one line version became durable at NVRAM; Line is the
	// line, Core/Epoch the owning epoch (-1/-1 for untracked writes).
	KPersistAck
	// KTxRetired: a core retired one workload transaction.
	KTxRetired
	// KNVRAMQueue: a request was admitted at a memory controller; Unit
	// is the controller, Value the queuing delay (cycles) the request
	// waited for the channel.
	KNVRAMQueue
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KEpochOpen:
		return "epoch-open"
	case KEpochComplete:
		return "epoch-complete"
	case KEpochSplit:
		return "epoch-split"
	case KEpochFlushStart:
		return "epoch-flush-start"
	case KEpochPersist:
		return "epoch-persist"
	case KConflict:
		return "conflict"
	case KIDTFallback:
		return "idt-fallback"
	case KBankFlushStart:
		return "bank-flush-start"
	case KBankAck:
		return "bank-ack"
	case KPersistAck:
		return "persist-ack"
	case KTxRetired:
		return "tx-retired"
	case KNVRAMQueue:
		return "nvram-queue"
	default:
		return "kind(?)"
	}
}

// Conflict kind labels (Event.Label on KConflict).
const (
	ConflictIntra    = "intra"
	ConflictInter    = "inter"
	ConflictEviction = "eviction"
)

// Conflict resolution labels (Event.Detail on KConflict): the request
// stalled behind an online flush, was deferred through an IDT
// dependence register, or demanded a flush from the eviction path.
const (
	ResolveOnline = "online"
	ResolveIDT    = "idt"
	ResolveDemand = "demand"
)

// Event is one observation. Fields not meaningful for a Kind hold -1
// (indices) or zero values; see the Kind constants for the schema.
type Event struct {
	Kind  Kind
	Cycle sim.Cycle

	// Core and Epoch identify the epoch (or core) the event concerns.
	Core  int
	Epoch int64

	// SrcCore and SrcEpoch identify a conflicting/source epoch.
	SrcCore  int
	SrcEpoch int64

	// Unit is a structure index: LLC bank or memory controller.
	Unit int

	Line  mem.Line
	Value uint64

	// Label and Detail are small fixed vocabularies (causes, reasons,
	// conflict kinds), never free-form text.
	Label  string
	Detail string
}

// Sink consumes the event stream. Emissions arrive in nondecreasing
// Cycle order (the simulation engine fires events in time order).
type Sink interface {
	Emit(ev Event)
}

// Probe is the instrumentation hub components emit into. A nil *Probe is
// valid and inert: every method no-ops, so holders need no guards beyond
// the implicit nil check.
type Probe struct {
	sink Sink
}

// NewProbe builds a probe emitting into s. With a nil sink the probe is
// inert (but non-nil).
func NewProbe(s Sink) *Probe { return &Probe{sink: s} }

// Active reports whether a sink is attached.
func (p *Probe) Active() bool { return p != nil && p.sink != nil }

func (p *Probe) emit(ev Event) { p.sink.Emit(ev) }

func base(k Kind, cy sim.Cycle) Event {
	return Event{Kind: k, Cycle: cy, Core: -1, Epoch: -1, SrcCore: -1, SrcEpoch: -1, Unit: -1}
}

// EpochOpen records a core opening epoch num.
func (p *Probe) EpochOpen(cy sim.Cycle, core int, num uint64) {
	if !p.Active() {
		return
	}
	ev := base(KEpochOpen, cy)
	ev.Core, ev.Epoch = core, int64(num)
	p.emit(ev)
}

// EpochComplete records an epoch's closing advance; reason is the
// AdvanceReason label and stores the epoch's dynamic store count.
func (p *Probe) EpochComplete(cy sim.Cycle, core int, num uint64, reason string, stores uint64) {
	if !p.Active() {
		return
	}
	ev := base(KEpochComplete, cy)
	ev.Core, ev.Epoch, ev.Label, ev.Value = core, int64(num), reason, stores
	p.emit(ev)
}

// EpochSplit records a deadlock-avoidance split of epoch num.
func (p *Probe) EpochSplit(cy sim.Cycle, core int, num uint64) {
	if !p.Active() {
		return
	}
	ev := base(KEpochSplit, cy)
	ev.Core, ev.Epoch = core, int64(num)
	p.emit(ev)
}

// EpochFlushStart records the arbiter starting an epoch's flush; cause
// is the recorded FlushCause label.
func (p *Probe) EpochFlushStart(cy sim.Cycle, core int, num uint64, cause string) {
	if !p.Active() {
		return
	}
	ev := base(KEpochFlushStart, cy)
	ev.Core, ev.Epoch, ev.Label = core, int64(num), cause
	p.emit(ev)
}

// EpochPersist records an epoch becoming durably complete; cause is the
// final FlushCause label.
func (p *Probe) EpochPersist(cy sim.Cycle, core int, num uint64, cause string) {
	if !p.Active() {
		return
	}
	ev := base(KEpochPersist, cy)
	ev.Core, ev.Epoch, ev.Label = core, int64(num), cause
	p.emit(ev)
}

// Conflict records a memory request conflicting with an unpersisted
// epoch. kind is "intra", "inter", or "eviction"; resolution is
// "online", "idt", or "demand"; reqCore is the requesting core (-1 when
// the requester is a hardware structure, e.g. an eviction).
func (p *Probe) Conflict(cy sim.Cycle, kind string, reqCore int, srcCore int, srcNum uint64, line mem.Line, resolution string) {
	if !p.Active() {
		return
	}
	ev := base(KConflict, cy)
	ev.Core = reqCore
	ev.SrcCore, ev.SrcEpoch = srcCore, int64(srcNum)
	ev.Line, ev.Label, ev.Detail = line, kind, resolution
	p.emit(ev)
}

// IDTFallback records a dependence-register-full fallback to an online
// flush of the source epoch.
func (p *Probe) IDTFallback(cy sim.Cycle, reqCore int, srcCore int, srcNum uint64) {
	if !p.Active() {
		return
	}
	ev := base(KIDTFallback, cy)
	ev.Core = reqCore
	ev.SrcCore, ev.SrcEpoch = srcCore, int64(srcNum)
	p.emit(ev)
}

// BankFlushStart records bank starting to drain lines of epoch
// (core, num); lines is how many it holds.
func (p *Probe) BankFlushStart(cy sim.Cycle, bank, core int, num uint64, lines int) {
	if !p.Active() {
		return
	}
	ev := base(KBankFlushStart, cy)
	ev.Unit, ev.Core, ev.Epoch, ev.Value = bank, core, int64(num), uint64(lines)
	p.emit(ev)
}

// BankAck records the bank's last PersistAck arriving (the BankAck send).
func (p *Probe) BankAck(cy sim.Cycle, bank, core int, num uint64) {
	if !p.Active() {
		return
	}
	ev := base(KBankAck, cy)
	ev.Unit, ev.Core, ev.Epoch = bank, core, int64(num)
	p.emit(ev)
}

// PersistAck records one line version reaching NVRAM. core/num name the
// owning epoch; pass core = -1 for untracked (NP/SP/WT or post-epoch)
// writes.
func (p *Probe) PersistAck(cy sim.Cycle, line mem.Line, core int, num uint64) {
	if !p.Active() {
		return
	}
	ev := base(KPersistAck, cy)
	ev.Line = line
	if core >= 0 {
		ev.Core, ev.Epoch = core, int64(num)
	}
	p.emit(ev)
}

// TxRetired records a core retiring one workload transaction.
func (p *Probe) TxRetired(cy sim.Cycle, core int) {
	if !p.Active() {
		return
	}
	ev := base(KTxRetired, cy)
	ev.Core = core
	p.emit(ev)
}

// NVRAMQueue records a request admitted at controller ctrl after waiting
// wait cycles for the channel (the queue-depth signal in time units).
func (p *Probe) NVRAMQueue(cy sim.Cycle, ctrl int, wait sim.Cycle) {
	if !p.Active() {
		return
	}
	ev := base(KNVRAMQueue, cy)
	ev.Unit, ev.Value = ctrl, uint64(wait)
	p.emit(ev)
}
