// Shard-parallel pmkv: the keyspace is partitioned by a stable hash
// across N independent machine instances, each owned by one worker
// goroutine with a bounded mailbox. Workers run a group commit — gather
// what is queued, commit it as one window, release the acks the durable
// watermark covers — and a batch's epochs persist, in simulated time,
// under the batches committed after it. An ack is released only when the
// shard's durable-prefix watermark covers its batch, so it is a
// durability guarantee, not just visibility. Shards share no mutable
// state; aggregate throughput scales with host cores and, on any host,
// with the contention relief of smaller per-machine session counts.
package pmkv

import (
	"fmt"
	"sync"
	"sync/atomic"

	"persistbarriers/internal/dlcheck"
	"persistbarriers/internal/hist"
	"persistbarriers/internal/machine"
	"persistbarriers/internal/sim"
	"persistbarriers/internal/stats"
	"persistbarriers/internal/telemetry"
)

// MaxShards bounds the shard count (arbitrary sanity limit).
const MaxShards = 256

// ErrDraining reports that the store has begun its final drain and no
// longer accepts requests; everything already acknowledged is (or will
// be) durable before the recovery snapshot is taken.
var ErrDraining = fmt.Errorf("pmkv: store draining")

// errNoSession reports a request routed without a session handle.
var errNoSession = fmt.Errorf("pmkv: request without session")

// shardHash is the router hash: FNV-1a strengthened with a splitmix64
// finalizer so shard choice decorrelates from the engines' bucket hash
// (both start from raw FNV-1a). It is a pure function of the key bytes —
// the same key maps to the same shard in every process, every run.
func shardHash(key string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ShardOf maps a key to its owning shard in [0, shards).
func ShardOf(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(shardHash(key) % uint64(shards))
}

// ShardedConfig sizes a sharded store.
type ShardedConfig struct {
	// Shards is the number of independent engine instances (default 1).
	Shards int
	// Engine is the per-shard engine template. Engine.CrashAt fans out:
	// every shard loses power at that cycle of its own clock.
	Engine Config
	// Mailbox is the per-shard request queue depth (default 256).
	Mailbox int
	// MaxBatch bounds one group commit (default 64): a batch is what the
	// mailbox holds when the worker comes back, up to this many requests,
	// and one commit window — the wider, the fewer barriers per write.
	MaxBatch int
	// DisableReadFast turns off the lock-free GET fast path. By default
	// DoAsync answers a GET directly from the shard engine's checkpoint
	// — no mailbox hop, no translate, no machine time — unless the session
	// has an unacked write to the key in flight (then the GET goes behind
	// it, so the session reads its own write; a foreign unacked write is
	// never visible, because the checkpoint only ever holds the durable
	// prefix). The engine keeps its checkpoint either way; this only
	// decides whether GETs consult it.
	DisableReadFast bool
	// OnCrash, when non-nil, is called once per shard, from that shard's
	// worker goroutine, after the shard hits its crash instant and its
	// pending acks have been delivered (flagged crashed). Servers use it
	// to self-initiate the drain — but because it runs on the worker, a
	// callback must call BeginDrain from a new goroutine (BeginDrain waits
	// on producers that only this worker can unblock).
	OnCrash func(shard int)
}

func (c *ShardedConfig) fill() {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Mailbox <= 0 {
		c.Mailbox = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
}

// ShardedSession is one client's handle across every shard: its requests
// execute in program order per shard (global cross-shard order is not
// preserved — the standard sharded-store relaxation).
type ShardedSession struct {
	ID  int
	per []*Session // per-shard engine sessions, indexed by shard
	// pending[shard][slot] counts this session's mutations routed to the
	// shard, of keys whose hash picks slot (pendSlot), whose durable acks
	// have not yet been delivered. A GET takes the fast path only when its
	// key's slot is zero; otherwise it falls back to the mailbox, behind
	// the session's own unacked write (read-your-writes within the commit
	// window). Keys sharing a slot cost each other only that fallback.
	pending [][pendSlots]atomic.Int32
}

// pendSlots is the number of per-key pending counters a session keeps per
// shard: 256 keep a GET's chance of sharing a slot with one of its
// session's unacked writes at a few percent with a full 64-deep pipeline,
// at 1 KiB per session per shard.
const (
	pendSlotBits = 8
	pendSlots    = 1 << pendSlotBits
)

// pendSlot picks a key's pending counter from its router hash. The shard
// is the hash modulo the shard count, so the slot takes the top bits.
func pendSlot(h uint64) int { return int(h >> (64 - pendSlotBits)) }

// ShardAck answers one request routed through the sharded store. For
// mutations the ack is durability-gated: when Err is nil and Crashed is
// false, the shard's durable-prefix watermark covered this request's
// batch at ack time, so the publish — and every earlier accepted write on
// that shard — is in NVRAM. Crashed acks report the volatile response of
// a batch that was applied right as the shard lost power (durability
// unknown, judged by recovery).
type ShardAck struct {
	Resp    Response
	Durable int // shard durable-prefix watermark at ack time
	Crashed bool
	// Fast marks a GET answered on the lock-free fast path (from the
	// shard's committed-state index, on the caller's goroutine).
	Fast bool
	Err  error
}

// Completion pairs a ShardAck with the caller-chosen tag that routed it,
// for async delivery to a shared completion queue: a pipelined server
// keys each in-flight request by tag and matches acks out of order, the
// same way the wire protocol keys responses by request id.
type Completion struct {
	Tag uint64
	Ack ShardAck
}

type shardJob struct {
	req Request
	// done receives exactly one Completion carrying tag. Shard workers
	// deliver with a plain channel send and must never block on a slow
	// consumer, so the caller guarantees free capacity for every
	// outstanding request it has routed to done (pipelined servers bound
	// in-flight requests by the queue's capacity).
	done chan<- Completion
	tag  uint64
	// span, when non-nil, is the caller-owned telemetry record the
	// pipeline stamps as the job moves through mailbox, translate,
	// retirement, and the durable watermark. A nil span costs one branch
	// per stamp site.
	span *telemetry.Span
	// pend, set for mutations, is the session's in-flight write counter
	// for the key's slot on this shard; deliver decrements it on a
	// successful durable ack.
	pend *atomic.Int32
}

// deliver sends the job's completion (shardWorker.finish is the only
// caller). See shardJob.done for why this must never block in practice.
// A mutation's pending count drops only on a clean durable ack — crashed
// or errored writes leave it raised, so the session's GETs of that key
// stay on the slow path (conservative: the fast path must never skip a
// write whose durability is unsettled).
func (j *shardJob) deliver(a ShardAck) {
	if j.pend != nil && a.Err == nil && !a.Crashed {
		j.pend.Add(-1)
	}
	j.done <- Completion{Tag: j.tag, Ack: a}
}

// shard is one partition: an engine, its mailbox, and its worker state.
type shard struct {
	id    int
	eng   *Engine
	mail  chan shardJob
	subMu sync.RWMutex // senders hold R; drain holds W to flip accepting+close
	open  bool         // guarded by subMu

	// metrics
	batches   atomic.Uint64
	batchOps  atomic.Uint64
	batchHist hist.Atomic   // group-commit size distribution
	fastHits  atomic.Uint64 // GETs served on the fast path
	// cycles counts the simulated cycles the worker's steps advanced the
	// machine by, per step.
	cycles    struct{ Pump, Gap atomic.Uint64 }
	crashedFl atomic.Bool
	// falls counts the GETs that left the fast path for the mailbox, by
	// the first reason DoAsync found.
	falls struct{ Pending, Draining, Crashed atomic.Uint64 }
}

// ShardedStore partitions the keyspace across independent engines. All
// methods are safe for concurrent use; request routing takes no global
// lock — a pure hash picks the shard and a per-shard mailbox carries the
// request to that shard's worker.
type ShardedStore struct {
	cfg      ShardedConfig
	readFast bool // GET fast path enabled (cfg.DisableReadFast inverted)
	draining atomic.Bool
	shards   []*shard

	sessMu   sync.Mutex
	sessions int

	drainOnce sync.Once
	wg        sync.WaitGroup

	closeMu sync.Mutex
	closed  bool
	results []ShardResult
}

// NewSharded builds the store and starts one worker per shard.
func NewSharded(cfg ShardedConfig) (*ShardedStore, error) {
	s, err := newStore(cfg, nil)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// start runs one live worker per shard.
func (s *ShardedStore) start() {
	for _, sh := range s.shards {
		s.wg.Add(1)
		go func(sh *shard) {
			defer s.wg.Done()
			s.runShard(sh)
		}(sh)
	}
}

// newStore builds the store's shards around engines, one per shard, and
// fresh engines for the shards engines does not reach; no worker runs yet.
func newStore(cfg ShardedConfig, engines []*Engine) (*ShardedStore, error) {
	cfg.fill()
	if cfg.Shards < 1 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("pmkv: Shards must be in 1..%d, got %d", MaxShards, cfg.Shards)
	}
	for len(engines) < cfg.Shards {
		eng, err := New(cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("pmkv: shard %d: %w", len(engines), err)
		}
		engines = append(engines, eng)
	}
	s := &ShardedStore{cfg: cfg, readFast: !cfg.DisableReadFast}
	for i, eng := range engines {
		s.shards = append(s.shards, &shard{id: i, eng: eng, mail: make(chan shardJob, cfg.Mailbox), open: true})
	}
	return s, nil
}

// Shards reports the shard count.
func (s *ShardedStore) Shards() int { return len(s.shards) }

// NewSession opens a client session on every shard. Creation is
// serialized so each shard binds the session to the same core slot.
func (s *ShardedStore) NewSession() *ShardedSession {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess := &ShardedSession{
		ID:      s.sessions,
		per:     make([]*Session, len(s.shards)),
		pending: make([][pendSlots]atomic.Int32, len(s.shards)),
	}
	s.sessions++
	for i, sh := range s.shards {
		sess.per[i] = sh.eng.NewSession()
	}
	return sess
}

// DoAsync routes one request to its key's shard and returns immediately;
// the ack is delivered later to done as a Completion carrying tag, from
// the shard worker, at whichever of the ack-release sites fires first
// (durable watermark, crash delivery, or engine error). The returned
// shard id is valid even on error (-1 only when sess is nil).
//
// done is the caller's completion queue. The shard worker's send is
// unconditional, so the caller must guarantee capacity: never have more
// requests outstanding against done than its free buffer slots. A
// pipelined connection enforces this with a window semaphore sized to
// the queue.
//
// An error return (ErrDraining, nil session) means the request was NOT
// routed and no completion will arrive for it.
//
// GETs take the lock-free fast path when the store allows it: the
// completion is delivered inline, on the caller's goroutine, before
// DoAsync returns (it consumes one slot of done's free capacity exactly
// like a worker delivery would).
func (s *ShardedStore) DoAsync(sess *ShardedSession, op Op, key string, value []byte, span *telemetry.Span, tag uint64, done chan<- Completion) (int, error) {
	if sess == nil {
		return -1, errNoSession
	}
	h := shardHash(key)
	id := int(h % uint64(len(s.shards))) // ShardOf, hashing once
	span.Stamp(telemetry.StageShardRoute)
	sh := s.shards[id]
	pend := &sess.pending[id][pendSlot(h)]
	if op == Get && s.readFast {
		check := pend
		if sh.eng.plant == plantFastPathWrongSlot {
			check = &sess.pending[id][(pendSlot(h)+1)%pendSlots]
		}
		switch {
		case check.Load() != 0:
			sh.falls.Pending.Add(1)
		case s.draining.Load():
			sh.falls.Draining.Add(1)
		case sh.crashedFl.Load():
			sh.falls.Crashed.Add(1)
		default:
			// The engine's checkpoint holds exactly the durable prefix, and
			// the watermark folds a batch's records before the worker
			// releases its acks, so it holds every acked write. The one
			// write this read can owe visibility to and not find there is
			// its own session's unacked write to key, and a zero slot says
			// there is none; any other missing write is unacked and free to
			// linearize after this read. Absence is therefore an
			// authoritative not-found. The tracker locks on its own, so
			// the checker sees this read without the engine lock.
			val, found, rec := sh.eng.readCommitted(key)
			sh.eng.dl.ObserveRead(sess.per[id].ID, key, rec)
			sh.fastHits.Add(1)
			span.Stamp(telemetry.StageDurable)
			done <- Completion{Tag: tag, Ack: ShardAck{
				Resp:    Response{Found: found, Value: val},
				Durable: sh.eng.committed(),
				Fast:    true,
			}}
			return id, nil
		}
	}
	j := shardJob{
		req:  Request{Sess: sess.per[id], Op: op, Key: key, Value: value},
		done: done,
		tag:  tag,
		span: span,
	}
	if op != Get {
		pend.Add(1)
		j.pend = pend
	}
	sh.subMu.RLock()
	if !sh.open {
		sh.subMu.RUnlock()
		if j.pend != nil {
			j.pend.Add(-1) // refused: no completion will arrive
		}
		return id, ErrDraining
	}
	// Stamped before the send: once the job is in the mailbox the span is
	// the worker's (and then the completion reader's), not the caller's.
	span.Stamp(telemetry.StageEnqueue)
	sh.mail <- j
	sh.subMu.RUnlock()
	return id, nil
}

// pendingBatch is one group commit in flight: retired, its volatile
// responses known, its durability ack gated on the durable-prefix
// watermark.
type pendingBatch struct {
	jobs   []shardJob
	resps  []Response
	target int // RecordCount after this batch's SubmitAppend
}

// shardWorker is the one driver of an engine: its state is the batches in
// flight, whose acks await the watermark, and the slice pools that keep
// the steady-state commit path free of allocations. It acts on the engine
// in four steps — Submit, Pump, Gap, Poll — and finish tells the checker
// every durable ack it gives. Live, it picks its steps (runShard);
// scripted, it takes them from a script (runSteps), so crash sweeps run
// the code that decides what a client is told, and the checker holds
// their images to exactly those acks.
//
// The pipeline is pending. The worker is one goroutine and the machine
// advances only inside Pump and Gap, so nothing translates while anything
// retires and no host-side stage could overlap. What overlaps is
// simulated: a retired batch's epochs are closed, not yet persistent, and
// persist in the background under the batches committed after it (the
// paper's lazy barrier) — so the worker goes back for the next batch
// instead of waiting for the watermark.
type shardWorker struct {
	s  *ShardedStore
	sh *shard

	history []clientOp     // scripted only: what each request was told, and when
	open    bool           // mailbox not yet closed
	pending []pendingBatch // oldest first

	// dry records that the persist machinery has nothing scheduled while
	// acks are still gated: durability cannot advance until new work
	// arrives, so the worker blocks instead of spinning on the mailbox.
	dry bool

	reqs  []Request // reusable SubmitAppend argument (the engine copies what it keeps)
	jobs  bufPool[shardJob]
	resps bufPool[Response]
}

// runShard is the live worker: gather what is queued, commit it as one
// window (Submit, Pump), release the acks the watermark now covers.
func (s *ShardedStore) runShard(sh *shard) {
	w := &shardWorker{s: s, sh: sh, open: true}
	for w.open || len(w.pending) > 0 {
		if batch := w.gather(); len(batch) == 0 {
			w.jobs.put(batch)
		} else if w.submit(batch) {
			w.pump()
		}
		w.release()
	}
}

// gather takes what the mailbox holds, up to MaxBatch requests, without
// blocking — unless no ack is gated (or the machinery is dry with acks
// gated, so only new work can advance durability), in which case it
// blocks for the first request.
func (w *shardWorker) gather() []shardJob {
	batch := w.jobs.take(w.s.cfg.MaxBatch)
	block := len(w.pending) == 0 || w.dry
	for w.open && len(batch) < w.s.cfg.MaxBatch {
		var j shardJob
		if block {
			j, w.open = <-w.sh.mail
			block = false
		} else {
			select {
			case j, w.open = <-w.sh.mail:
			default:
				return batch
			}
		}
		if w.open {
			j.span.Stamp(telemetry.StageDequeue)
			batch = append(batch, j)
		}
	}
	return batch
}

// submit is the Submit step: SubmitAppend translates the batch into the
// open window, no simulated time passing, and the batch joins pending. A refused
// batch (the machine lost power or the engine closed) is finished with
// the error, after everything in flight got its crashed acks; submit
// reports whether the batch joined.
func (w *shardWorker) submit(batch []shardJob) bool {
	sh := w.sh
	w.reqs = w.reqs[:0]
	for i := range batch {
		w.reqs = append(w.reqs, batch[i].req)
	}
	p := pendingBatch{jobs: batch, resps: w.resps.take(w.s.cfg.MaxBatch)}
	resps, err := sh.eng.SubmitAppend(p.resps, w.reqs)
	if err != nil {
		if err == ErrCrashed {
			w.crashFlush()
		}
		w.finish(p, ShardAck{Err: err})
		return false
	}
	p.resps, p.target = resps, sh.eng.RecordCount()
	cycle := int64(sh.eng.Now())
	for i := range batch {
		batch[i].span.StampAt(telemetry.StageTranslate, cycle)
	}
	sh.batchHist.Observe(uint64(len(batch)))
	sh.batches.Add(1)
	sh.batchOps.Add(uint64(len(batch)))
	w.dry = false
	w.pending = append(w.pending, p)
	return true
}

// pump is the Pump step: PumpRetire feeds each core its share of the
// window and the window barrier, and runs the machine until every op has
// retired, so every publish in flight sits in a closed epoch.
func (w *shardWorker) pump() {
	eng := w.sh.eng
	t0 := eng.Now()
	err := eng.PumpRetire()
	cycle := eng.Now()
	w.sh.cycles.Pump.Add(uint64(cycle - t0))
	if !w.failed(err) && len(w.pending) > 0 {
		for _, j := range w.pending[len(w.pending)-1].jobs {
			j.span.StampAt(telemetry.StageSubmit, int64(cycle))
		}
	}
}

// gap is the Gap step: simulated time in which the background persist
// machinery works on what pending waits for, up to the instant the oldest
// batch's records are durable (at most gapCycles; see Engine.gap).
func (w *shardWorker) gap() {
	target := 0 // nothing pending: the full gap
	if len(w.pending) > 0 {
		target = w.pending[0].target
	}
	eng := w.sh.eng
	t0 := eng.Now()
	err := eng.gap(target)
	w.sh.cycles.Gap.Add(uint64(eng.Now() - t0))
	w.failed(err)
}

// poll is the Poll step: durableWatermark folds, releases and trims what
// the watermark passed, and the batches it now covers are acked — after
// the fold, so a client holding a durable ack finds that write on the fast
// path (the atomic bucket store happens-before the ack's channel send,
// which happens-before the client's next request).
func (w *shardWorker) poll() {
	durable, _, err := w.sh.eng.durableWatermark()
	if w.failed(err) {
		return
	}
	n := 0
	for n < len(w.pending) && w.pending[n].target <= durable {
		n++
	}
	w.ackOldest(n, ShardAck{Durable: durable})
}

// failed routes a step's error to every batch in flight and reports
// whether there was one. After a crash they get their volatile responses
// flagged crashed: recovery, not the watermark, now judges durability.
func (w *shardWorker) failed(err error) bool {
	switch {
	case err == ErrCrashed:
		w.crashFlush()
	case err != nil:
		w.ackOldest(len(w.pending), ShardAck{Err: err})
	}
	return err != nil
}

// release is what the live worker does after a commit: Poll, and with the
// mailbox idle and acks still gated, one Gap and Poll again, so it
// re-polls the mailbox between gaps instead of going blind inside a
// blocking WaitDurable loop. A dry machine gets no Gap.
func (w *shardWorker) release() {
	if len(w.pending) == 0 {
		return
	}
	busy := len(w.sh.mail) > 0
	w.poll()
	if busy || len(w.pending) == 0 {
		return
	}
	if !w.sh.eng.quiesced() {
		w.gap()
		w.poll()
	}
	switch {
	case len(w.pending) == 0 || !w.sh.eng.quiesced():
	case w.open:
		w.dry = true
	default:
		// Mailbox closed and the machinery ran dry with acks still gated:
		// only Close's final drain persists the rest. Ack now — Close runs
		// the full drain before the recovery snapshot, so durability still
		// precedes the snapshot (and the acks remain checker obligations).
		w.ackOldest(len(w.pending), ShardAck{Durable: w.sh.eng.committed()})
	}
}

// crashFlush delivers crashed acks, volatile responses attached, for
// every batch in flight, then fires OnCrash once.
func (w *shardWorker) crashFlush() {
	n := len(w.pending)
	if w.sh.eng.plant == plantDropCrashedAcks && n > 0 {
		w.pending = w.pending[:n-1] // the newest batch's clients never hear back
		n--
	}
	w.ackOldest(n, ShardAck{Crashed: true})
	if w.sh.crashedFl.CompareAndSwap(false, true) && w.s.cfg.OnCrash != nil {
		w.s.cfg.OnCrash(w.sh.id)
	}
}

// ackOldest finishes the n oldest pending batches with ack, in order.
func (w *shardWorker) ackOldest(n int, ack ShardAck) {
	for _, p := range w.pending[:n] {
		w.finish(p, ack)
	}
	rest := copy(w.pending, w.pending[n:])
	clear(w.pending[rest:])
	w.pending = w.pending[:rest]
}

// finish completes every job of a batch with ack — carrying the job's own
// volatile response unless the ack is an error — and returns the batch's
// slices to the pools. Every exit a routed job can take (durable, early
// ack at shutdown, crashed, refused, engine error) ends here, once.
func (w *shardWorker) finish(p pendingBatch, ack ShardAck) {
	eng := w.sh.eng
	cycle := int64(eng.Now())
	if ack.Err == nil && !ack.Crashed {
		// This ack promises durability, an obligation the checker holds
		// the crash image to.
		eng.dl.AckDurable(p.target)
	}
	for i := range p.jobs {
		if ack.Err == nil {
			ack.Resp = p.resps[i]
			p.jobs[i].span.StampAt(telemetry.StageDurable, cycle)
		}
		p.jobs[i].deliver(ack)
	}
	w.jobs.put(p.jobs)
	w.resps.put(p.resps)
}

// bufPool recycles a batch's slices, so a steady worker allocates none.
type bufPool[T any] struct{ free [][]T }

func (p *bufPool[T]) take(capacity int) []T {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return make([]T, 0, capacity)
}

// put clears the slice (dropping the completion-channel, span and value
// references its slots pin) and keeps it.
func (p *bufPool[T]) put(b []T) {
	clear(b)
	p.free = append(p.free, b[:0])
}

// Crashed reports whether any shard has hit its crash instant.
func (s *ShardedStore) Crashed() bool {
	for _, sh := range s.shards {
		if sh.crashedFl.Load() {
			return true
		}
	}
	return false
}

// ShardMetrics is a point-in-time view of one shard: its queue and commit
// pipeline, what its engine retains, and its machine's counters.
type ShardMetrics struct {
	Shard      int     `json:"shard"`
	QueueDepth int     `json:"queue_depth"` // requests waiting in the mailbox
	MailboxCap int     `json:"mailbox_cap"`
	Batches    uint64  `json:"batches"`
	AvgBatch   float64 `json:"avg_batch"`
	Crashed    bool    `json:"crashed,omitempty"`
	// FastHits / FastFallbacks count GETs answered on the lock-free fast
	// path vs routed through the mailbox while the fast path was on;
	// FallbackReasons splits the latter (it sums to FastFallbacks).
	FastHits        uint64        `json:"read_fast_hits"`
	FastFallbacks   uint64        `json:"read_fallbacks"`
	FallbackReasons ReadFallbacks `json:"read_fallback_reasons"`
	// SimCycles splits the shard's simulated time by the worker step that
	// advanced its machine; until the closing drain they sum to
	// Counters.Cycle.
	SimCycles StepCycles `json:"sim_cycles"`
	// Retention is what the shard's engine holds and has released: its
	// Folded count is the durable watermark as the worker last advanced it
	// (a snapshot reads it, never moves it) and the one the fast path's
	// checkpoint covers; Folded + Retained are the records issued.
	Retention
	// BatchSizes is the group-commit size distribution.
	BatchSizes hist.Hist `json:"batch_sizes"`
	// Counters are the shard machine's own counts, in simulated cycles;
	// Counters.Cycle is the shard's clock.
	Counters machine.Counters `json:"counters"`
}

// StepCycles counts simulated cycles by worker step: Pump (a commit
// window running until every op retired) and Gap (think time in which only
// the background persist machinery runs).
type StepCycles struct {
	Pump uint64 `json:"pump"`
	Gap  uint64 `json:"gap"`
}

// stepCycles reads the shard's Pump and Gap counters.
func (sh *shard) stepCycles() StepCycles {
	return StepCycles{sh.cycles.Pump.Load(), sh.cycles.Gap.Load()}
}

// ReadFallbacks says why GETs left the fast path: the session had an
// unacked write to the key in flight (the read must see it), the store was
// draining, or the shard had lost power.
type ReadFallbacks struct {
	Pending  uint64 `json:"pending"`
	Draining uint64 `json:"draining"`
	Crashed  uint64 `json:"crashed"`
}

// Metrics snapshots every shard. It only reads: one Engine.Stats per
// shard, which takes the engine lock once and leaves the watermark, the
// tail and the machine's history to the worker.
func (s *ShardedStore) Metrics() []ShardMetrics {
	out := make([]ShardMetrics, len(s.shards))
	for i, sh := range s.shards {
		st := sh.eng.Stats()
		falls := ReadFallbacks{sh.falls.Pending.Load(), sh.falls.Draining.Load(), sh.falls.Crashed.Load()}
		m := ShardMetrics{
			Shard:           i,
			QueueDepth:      len(sh.mail),
			MailboxCap:      s.cfg.Mailbox,
			Batches:         sh.batches.Load(),
			Crashed:         sh.crashedFl.Load(),
			FastHits:        sh.fastHits.Load(),
			FastFallbacks:   falls.Pending + falls.Draining + falls.Crashed,
			FallbackReasons: falls,
			SimCycles:       sh.stepCycles(),
			Retention:       st.Retention,
			BatchSizes:      sh.batchHist.Snapshot(),
			Counters:        st.Counters,
		}
		if m.Batches > 0 {
			m.AvgBatch = float64(sh.batchOps.Load()) / float64(m.Batches)
		}
		out[i] = m
	}
	return out
}

// BeginDrain quiesces the store: new requests are refused (ErrDraining)
// and every shard's mailbox is closed, so each worker commits exactly the
// requests accepted before the drain and then stops. Requests enqueued
// concurrently with BeginDrain either land in the mailbox (and are
// committed before the final barrier) or are refused — never applied
// after the recovery snapshot.
func (s *ShardedStore) BeginDrain() {
	s.drainOnce.Do(func() {
		// The fast path shuts first: a GET racing the drain either served
		// before the flag flipped (still the durable prefix — consistent
		// with any recovery) or falls back and is refused like a write.
		s.draining.Store(true)
		for _, sh := range s.shards {
			sh.subMu.Lock()
			sh.open = false
			close(sh.mail)
			sh.subMu.Unlock()
		}
	})
}

// ShardResult is one shard's final, verified outcome.
type ShardResult struct {
	Shard   int
	Crashed bool
	// Cycles is the shard's clock when it was closed, before the closing
	// drain (the crash instant where it lost power): the number the drain
	// report prints, and the length scripted sweeps size their crash
	// instants by, so that each falls inside the run.
	Cycles sim.Cycle
	// SimCycles splits the shard's simulated time by the worker step that
	// advanced its machine, as ShardMetrics does; Cycles is their sum when
	// the worker alone drove the engine.
	SimCycles StepCycles
	Report    *Report
	Recovered map[string][]byte
	// DL is the durable-linearizability verdict (nil unless the shard
	// engine ran with Config.Check).
	DL *dlcheck.Verdict
	// Stats is the engine's final snapshot, taken after it closed: Retained
	// is the tail recovery walked, Folded what the checkpoint already
	// covered, and the counters include the closing drain: Stats.Cycle is
	// the clock after it.
	Stats EngineStats
	Err   error
	// history is what a scripted run's clients were told (the oracle's
	// input); nil for a live shard.
	history []clientOp
}

// Close drains the store (BeginDrain + worker quiesce), then closes and
// verifies every shard: clean shards run the full persist drain, crashed
// shards snapshot their NVRAM image at the crash instant; each is checked
// against the §5 invariants and the KV guarantees. The error is the first
// shard verification failure, if any; per-shard outcomes are always
// returned.
func (s *ShardedStore) Close() ([]ShardResult, error) {
	s.BeginDrain()
	s.wg.Wait()
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return s.results, fmt.Errorf("pmkv: store closed")
	}
	s.closed = true
	// Shards share no state, so their final drains and verifications run
	// concurrently; results land in shard order regardless.
	results := make([]ShardResult, len(s.shards))
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[sh.id] = closeShard(sh)
		}()
	}
	wg.Wait()
	s.results = results
	return s.results, firstErr(results)
}

// closeShard ends one shard, live or scripted: Close (the full persist
// drain, or the NVRAM image at the crash instant), Verify, RecoveredState
// and the checker's verdict. Cycles is read before the drain and
// Stats after it, so after a clean drain Cycles <= Stats.Cycle and after a
// crash both are the crash instant. Verify's error comes first; the
// verdict is still taken after a failed Verify, so it can be reported.
func closeShard(sh *shard) ShardResult {
	e := sh.eng
	r := ShardResult{Shard: sh.id, Crashed: e.Crashed(), Cycles: e.Now(), SimCycles: sh.stepCycles()}
	res, err := e.Close()
	r.Stats = e.Stats()
	if err != nil {
		r.Err = err
		return r
	}
	r.Report, r.Err = e.Verify(res)
	// Rebuilt even when Verify failed, so a client-side check can still
	// judge what recovery would have served; a scan has no error to return.
	r.Recovered, _ = e.RecoveredState(res)
	r.DL = e.CheckDL(res)
	if r.Err == nil && r.DL != nil {
		if err := r.DL.Err(); err != nil {
			r.Err = fmt.Errorf("pmkv: durable linearizability: %w", err)
		}
	}
	return r
}

// firstErr is the lowest-numbered shard's error, naming the shard.
func firstErr(results []ShardResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("pmkv: shard %d: %w", r.Shard, r.Err)
		}
	}
	return nil
}

// CombineFingerprints folds the shards' recovery fingerprints (in shard
// order) into one canonical store fingerprint.
func CombineFingerprints(results []ShardResult) string {
	fps := make([]string, len(results))
	for i, r := range results {
		fps[i] = r.Report.Fingerprint
	}
	return stats.MustFingerprint(fps)
}
