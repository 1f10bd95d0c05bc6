package machine

import (
	"persistbarriers/internal/cache"
	"persistbarriers/internal/epoch"
	"persistbarriers/internal/hist"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/noc"
	"persistbarriers/internal/nvram"
	"persistbarriers/internal/sim"
)

// CoreResult summarizes one core's run. A field no product code reads is
// tagged with its own name: a Result's JSON is what run fingerprints hash
// (stats.Fingerprint), so encoding/json reads it, and the tag leaves the
// bytes an untagged field gives.
type CoreResult struct {
	Transactions uint64 `json:"Transactions"`
	OpsRetired   int
	ExecDone     sim.Cycle `json:"ExecDone"`
	Stalls       [numStallCauses]sim.Cycle
	OpTimes      []sim.Cycle `json:"OpTimes"`
}

// ConflictCounts are conflict events observed on the access paths (as
// opposed to per-epoch flush causes, which live in EpochStats.ByCause).
type ConflictCounts struct {
	Intra        uint64
	Inter        uint64
	Eviction     uint64
	IDTFallbacks uint64
}

// IDTResolved counts inter-thread conflicts that IDT resolved offline
// through a dependence register: every inter conflict under IDT either
// lands in a register or falls back online (IDTFallbacks), so the
// difference is the offline-resolved count. Only meaningful for IDT
// configurations — without IDT, IDTFallbacks is zero and the value
// degenerates to Inter (all of which resolved online).
func (c ConflictCounts) IDTResolved() uint64 {
	if c.IDTFallbacks >= c.Inter {
		return 0
	}
	return c.Inter - c.IDTFallbacks
}

// EpochAggregate sums per-core epoch statistics.
type EpochAggregate struct {
	Opened      uint64
	Persisted   uint64
	Conflicting uint64
	ByCause     [epoch.CauseNatural + 1]uint64
	ByAdvance   [epoch.DrainAdvance + 1]uint64
	Deps        uint64
	Splits      uint64
	Flushes     uint64
	Natural     uint64
}

// ConflictingFraction is Figure 12's metric: the share of persisted epochs
// that were the target of at least one conflict before persisting. IDT
// resolving a conflict offline still counts — the paper's LB+IDT bar stays
// at ~90% for exactly that reason (§7.1).
func (e EpochAggregate) ConflictingFraction() float64 {
	if e.Persisted == 0 {
		return 0
	}
	return float64(e.Conflicting) / float64(e.Persisted)
}

// Result is the complete outcome of one simulation run.
type Result struct {
	Barrier     string
	Model       Model `json:"Model"` // read by fingerprints alone, as CoreResult's tagged fields
	ExecCycles  sim.Cycle
	DrainCycles sim.Cycle
	Finished    bool
	Deadlocked  bool

	// Counters is Machine.Counters read when the Result was taken: at
	// the run's end, its crash instant or a Snapshot.
	Counters
	Cores []CoreResult

	// Recovery material (populated per the Record* config flags).
	Histories  [][]*epoch.Summary
	Image      map[mem.Line]mem.Version
	UndoLog    []nvram.LogEntry
	Latest     map[mem.Line]mem.Version
	PersistLog []PersistEvent

	// TokenVersions maps each retired tagged store (trace.Op.Token) to
	// the version it committed; tokens whose store had not retired by the
	// crash instant are absent.
	TokenVersions map[uint64]mem.Version
}

// Throughput is transactions per kilocycle — Figure 11's metric (before
// normalization to LB).
func (r *Result) Throughput() float64 {
	if r.ExecCycles == 0 {
		return 0
	}
	return float64(r.Transactions) / float64(r.ExecCycles) * 1000
}

// StallTotal is a stall cause's cycles summed over all cores.
func (r *Result) StallTotal(cause StallCause) sim.Cycle { return r.Stalls[cause] }

// Counters is the machine's running totals: every quantity the paper
// evaluates a barrier by (§7), counted once where it happens — in the
// epoch tables, the arbiters, the access paths — and summed here. Reading
// them is O(cores + banks) and touches no history, image or token map, so
// a live service reads them at any instant; a Result embeds the reading
// taken with it. The JSON tags are the names pmkvd's stats
// reply uses; the nested types keep their Go field names there, because
// their untagged canonical JSON is what run fingerprints hash.
type Counters struct {
	// Cycle is the simulated clock at the reading.
	Cycle        sim.Cycle      `json:"cycle"`
	Transactions uint64         `json:"txs"`
	Conflicts    ConflictCounts `json:"conflicts"`
	Epochs       EpochAggregate `json:"epochs"`
	// PersistLatency is epoch completion to durability, in cycles, over
	// every epoch persisted so far. It sits beside Epochs rather than in
	// it because EpochAggregate's JSON form is fingerprinted.
	PersistLatency hist.Hist `json:"persist_latency,omitzero"`
	// Stalls sums each StallCause over the cores.
	Stalls         [numStallCauses]sim.Cycle `json:"stall_cycles"`
	PersistedLines uint64                    `json:"persisted_lines"`
	LogWrites      uint64                    `json:"log_writes"`
	// EarlyWritebacks counts whole-line stores written back early, at
	// their commit (beyond the paper). Omitted from JSON while zero: no
	// figure's machine writes back early, and its fingerprint holds.
	EarlyWritebacks uint64 `json:"early_writebacks,omitzero"`

	MC  nvram.Stats `json:"mc"`
	NoC noc.Stats   `json:"noc"`
	L1  cache.Stats `json:"l1"`
	LLC cache.Stats `json:"llc"`
}

// Sample is one value of a counter family. Label, when set, is the value
// of the family's label that tells it from the family's other samples.
type Sample struct {
	Label string
	Value uint64
}

// Family is one named count read out of Counters.
type Family struct {
	// Name is the count's name: pmkvd's /metrics renders it as
	// pmkv_<Name>_total, persistsim -metrics as the column <Name>, or
	// <Name>_<label value> per sample of a labelled family.
	Name, Help string
	// Label is the label that tells samples apart ("" for one sample).
	Label   string
	Samples func(*Counters) []Sample
}

func one(v uint64) []Sample { return []Sample{{Value: v}} }

// Families are the counts the paper evaluates a barrier by (§7), in the
// one vocabulary pmkvd's /metrics and persistsim's windowed metrics share.
// A family's samples and their labels do not depend on the counters read.
var Families = []Family{
	{"txs", "Transactions retired.", "",
		func(c *Counters) []Sample { return one(c.Transactions) }},
	{"epochs_opened", "Epochs opened.", "",
		func(c *Counters) []Sample { return one(c.Epochs.Opened) }},
	{"epochs_persisted", "Epochs made durable.", "",
		func(c *Counters) []Sample { return one(c.Epochs.Persisted) }},
	{"conflicts", "Epoch conflicts by kind.", "kind",
		func(c *Counters) []Sample {
			return []Sample{{"intra", c.Conflicts.Intra}, {"inter", c.Conflicts.Inter}, {"eviction", c.Conflicts.Eviction}}
		}},
	{"epochs_conflicting", "Persisted epochs that were the target of a conflict (Fig. 12's numerator; the denominator is epochs_persisted).", "",
		func(c *Counters) []Sample { return one(c.Epochs.Conflicting) }},
	{"epochs_persisted_by_cause", "Epochs made durable, by what made them persist: a conflict cause is an online persist (a request waited for it), every other cause an offline one.", "cause",
		func(c *Counters) (out []Sample) {
			for cause := epoch.CauseIntra; cause <= epoch.CauseNatural; cause++ {
				out = append(out, Sample{cause.String(), c.Epochs.ByCause[cause]})
			}
			return out
		}},
	{"epoch_splits", "Ongoing epochs split by the deadlock-avoidance rule (Section 3.3).", "",
		func(c *Counters) []Sample { return one(c.Epochs.Splits) }},
	{"idt_edges", "Inter-thread dependences recorded in IDT registers instead of stalling the request.", "",
		func(c *Counters) []Sample { return one(c.Epochs.Deps) }},
	{"idt_fallbacks", "Inter-thread conflicts that found the dependence registers full and stalled online.", "",
		func(c *Counters) []Sample { return one(c.Conflicts.IDTFallbacks) }},
	{"stall_cycles", "Simulated cycles cores spent stalled on persist ordering, by cause, summed over cores.", "cause",
		func(c *Counters) (out []Sample) {
			for cause, cycles := range c.Stalls {
				out = append(out, Sample{StallCause(cause).String(), uint64(cycles)})
			}
			return out
		}},
	{"epoch_flushes", "Epoch flushes the per-core arbiters drove.", "",
		func(c *Counters) []Sample { return one(c.Epochs.Flushes) }},
	{"persisted_lines", "Line versions made durable in NVRAM.", "",
		func(c *Counters) []Sample { return one(c.PersistedLines) }},
	{"noc_messages", "Messages sent over the mesh.", "",
		func(c *Counters) []Sample { return one(c.NoC.Messages) }},
	{"noc_flits", "Flits sent over the mesh.", "",
		func(c *Counters) []Sample { return one(c.NoC.Flits) }},
	{"nvram_admissions", "Requests (reads, writes, log writes) admitted at the memory controllers.", "",
		func(c *Counters) []Sample { return one(c.MC.Reads + c.MC.Writes + c.MC.LogWrites) }},
	{"nvram_reads", "Line fills read from NVRAM at the memory controllers.", "",
		func(c *Counters) []Sample { return one(c.MC.Reads) }},
	{"nvram_wait_cycles", "Cycles admitted requests waited for a memory controller's channel, summed.", "",
		func(c *Counters) []Sample { return one(uint64(c.MC.StallCycles)) }},
	{"early_writebacks", "Whole-line stores written back to NVRAM at their commit, ahead of their epoch's flush (beyond the paper).", "",
		func(c *Counters) []Sample { return one(c.EarlyWritebacks) }},
	{"nvram_background_wait_cycles", "Cycles early write-backs waited for an idle memory controller, summed (not in nvram_wait_cycles).", "",
		func(c *Counters) []Sample { return one(uint64(c.MC.BackgroundWaitCycles)) }},
}

// addCache adds one cache's counts into dst.
func addCache(dst *cache.Stats, s cache.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.DirtyEvicts += s.DirtyEvicts
}

// Add folds o into c field by field, so per-machine readings pool into
// one store-wide reading: counts and stall cycles sum, the latency
// histograms merge exactly, Cycle is the furthest clock and NoC.AvgHops
// the message-weighted mean.
func (c *Counters) Add(o *Counters) {
	c.Cycle = max(c.Cycle, o.Cycle)
	c.Transactions += o.Transactions
	c.Conflicts.Intra += o.Conflicts.Intra
	c.Conflicts.Inter += o.Conflicts.Inter
	c.Conflicts.Eviction += o.Conflicts.Eviction
	c.Conflicts.IDTFallbacks += o.Conflicts.IDTFallbacks
	c.Epochs.Opened += o.Epochs.Opened
	c.Epochs.Persisted += o.Epochs.Persisted
	c.Epochs.Conflicting += o.Epochs.Conflicting
	for i, n := range o.Epochs.ByCause {
		c.Epochs.ByCause[i] += n
	}
	for i, n := range o.Epochs.ByAdvance {
		c.Epochs.ByAdvance[i] += n
	}
	c.Epochs.Deps += o.Epochs.Deps
	c.Epochs.Splits += o.Epochs.Splits
	c.Epochs.Flushes += o.Epochs.Flushes
	c.Epochs.Natural += o.Epochs.Natural
	c.PersistLatency.Merge(&o.PersistLatency)
	for i, n := range o.Stalls {
		c.Stalls[i] += n
	}
	c.PersistedLines += o.PersistedLines
	c.LogWrites += o.LogWrites
	c.EarlyWritebacks += o.EarlyWritebacks
	c.MC.Reads += o.MC.Reads
	c.MC.Writes += o.MC.Writes
	c.MC.LogWrites += o.MC.LogWrites
	c.MC.BusyCycles += o.MC.BusyCycles
	c.MC.StallCycles += o.MC.StallCycles
	c.MC.BackgroundWaitCycles += o.MC.BackgroundWaitCycles
	if msgs := c.NoC.Messages + o.NoC.Messages; msgs > 0 {
		c.NoC.AvgHops = (c.NoC.AvgHops*float64(c.NoC.Messages) + o.NoC.AvgHops*float64(o.NoC.Messages)) / float64(msgs)
	}
	c.NoC.Messages += o.NoC.Messages
	c.NoC.Flits += o.NoC.Flits
	addCache(&c.L1, o.L1)
	addCache(&c.LLC, o.LLC)
}

// Counters reads the machine's counters as of the current cycle. Like
// every Machine method it must not race the engine.
func (m *Machine) Counters() Counters {
	c := Counters{
		Cycle:           m.eng.Now(),
		PersistedLines:  m.persistedLines,
		LogWrites:       m.logWrites,
		EarlyWritebacks: m.earlyWritebacks,
		MC:              m.mcs.Stats(),
		NoC:             m.mesh.Stats(),
		Conflicts: ConflictCounts{
			Intra:        m.intraConflicts,
			Inter:        m.interConflicts,
			Eviction:     m.evictionConflicts,
			IDTFallbacks: m.idtFallbacks,
		},
	}
	for _, core := range m.cores {
		c.Transactions += core.txs
		for i, n := range core.stalls {
			c.Stalls[i] += n
		}
		addCache(&c.L1, core.l1.Stats())
		if core.table == nil {
			continue
		}
		ts := core.table.Stats()
		c.Epochs.Opened += ts.EpochsOpened
		c.Epochs.Persisted += ts.EpochsPersisted
		c.Epochs.Conflicting += ts.ConflictingEpochs
		c.Epochs.Deps += ts.DepsRecorded
		c.Epochs.Splits += ts.Splits
		for i := range ts.ByCause {
			c.Epochs.ByCause[i] += ts.ByCause[i]
		}
		for i := range ts.ByAdvance {
			c.Epochs.ByAdvance[i] += ts.ByAdvance[i]
		}
		c.PersistLatency.Merge(&ts.PersistLatency)
		as := core.arb.Stats()
		c.Epochs.Flushes += as.FlushesDriven
		c.Epochs.Natural += as.NaturalPersists
	}
	for _, b := range m.banks {
		addCache(&c.LLC, b.arr.Stats())
	}
	return c
}

// result snapshots the machine state into a Result: the counters, plus
// the per-core detail and the recovery material only a Result carries.
func (m *Machine) result() *Result {
	r := &Result{
		Barrier:     m.cfg.BarrierName(),
		Model:       m.cfg.Model,
		ExecCycles:  m.execCycles,
		DrainCycles: m.drainCycles,
		Finished:    m.finished,
		Deadlocked:  m.deadlocked,
		Counters:    m.Counters(),
		PersistLog:  m.persistLog,
	}
	if !m.finished {
		// Crashed or deadlocked mid-run: report progress so far.
		r.ExecCycles = r.Cycle
	}
	for _, core := range m.cores {
		r.Cores = append(r.Cores, CoreResult{
			Transactions: core.txs,
			OpsRetired:   core.retired + core.pc,
			ExecDone:     core.execDone,
			Stalls:       core.stalls,
			OpTimes:      core.opTimes,
		})
		if core.table != nil && m.cfg.RecordHistory {
			r.Histories = append(r.Histories, core.table.History())
		}
	}
	if m.cfg.RecordHistory {
		r.Image = m.mcs.Image()
		r.UndoLog = m.mcs.Log()
		r.Latest = make(map[mem.Line]mem.Version)
		m.lines.forEach(func(ls *lineState) {
			if ls.latest != 0 {
				r.Latest[ls.line] = ls.latest
			}
		})
	}
	if len(m.tokenVersions) > 0 {
		r.TokenVersions = make(map[uint64]mem.Version, len(m.tokenVersions))
		for t, v := range m.tokenVersions {
			r.TokenVersions[t] = v
		}
	}
	return r
}
