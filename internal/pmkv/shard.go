// Shard-parallel pmkv: the keyspace is partitioned by a stable hash
// across N independent machine instances, each owned by one worker
// goroutine with a bounded mailbox. Workers run a pipelined group
// commit — batch k+1 is translated and fed while batch k's persist
// barriers are still draining — and release client acks only when the
// shard's durable-prefix watermark covers the batch, so an ack is a
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
	// MaxBatch bounds how many mailbox requests one group commit drains
	// (default 64).
	MaxBatch int
	// DisableReadFast turns off the lock-free GET fast path. By default
	// Do/DoAsync answer a GET directly from the shard engine's checkpoint
	// — no mailbox hop, no translate, no machine time — when the session
	// has no in-flight writes on that shard (so the PR 7 snapshot
	// semantics hold: own same-batch writes visible via the fallback,
	// foreign same-batch writes never, because the checkpoint only ever
	// holds the durable prefix). The engine keeps its checkpoint either
	// way; this only decides whether GETs consult it.
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

// commitWindow bounds how many translated batches a worker feeds to the
// machine before one retire pump closes the commit window.
const commitWindow = 2

// minBatch is the floor of the adaptive batch size. Workers start there,
// double the limit when a gather fills it with requests still queued
// behind it, and halve it when they have to block for work.
func (c *ShardedConfig) minBatch() int { return min(8, c.MaxBatch) }

// ShardedSession is one client's handle across every shard: its requests
// execute in program order per shard (global cross-shard order is not
// preserved — the standard sharded-store relaxation).
type ShardedSession struct {
	ID  int
	per []*Session // per-shard engine sessions, indexed by shard
	// pending[shard] counts this session's mutations routed to the shard
	// whose durable acks have not yet been delivered. The GET fast path
	// requires it to be zero: with writes in flight the read falls back
	// to the mailbox so it observes the session's own unacked writes
	// (read-your-writes within the commit window).
	pending []atomic.Int32
}

// ShardAck answers one request routed through the sharded store. For
// mutations the ack is durability-gated: when Err is nil and Crashed is
// false, the shard's durable-prefix watermark covered this request's
// batch at ack time, so the publish — and every earlier accepted write on
// that shard — is in NVRAM. Crashed acks report the volatile response of
// a batch that was applied right as the shard lost power (durability
// unknown, judged by recovery).
type ShardAck struct {
	Resp    Response
	Shard   int
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
	// outstanding request it has routed to done (Do uses a private
	// one-slot channel; pipelined servers bound in-flight requests by the
	// queue's capacity).
	done chan<- Completion
	tag  uint64
	// span, when non-nil, is the caller-owned telemetry record the
	// pipeline stamps as the job moves through mailbox, translate,
	// retirement, and the durable watermark. A nil span costs one branch
	// per stamp site.
	span *telemetry.Span
	// pend, set for mutations, is the session's per-shard in-flight
	// write counter; deliver decrements it on a successful durable ack.
	pend *atomic.Int32
}

// deliver sends the job's completion. See shardJob.done for why this
// must never block in practice. A mutation's pending count drops only on
// a clean durable ack — crashed or errored writes leave it raised, so
// the session's GETs stay on the slow path (conservative: the fast path
// must never skip a write whose durability is unsettled).
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
	batchLim  atomic.Int64  // live adaptive batch limit
	fastHits  atomic.Uint64 // GETs served on the fast path
	fastFalls atomic.Uint64 // GETs that fell back to the mailbox
	crashedFl atomic.Bool
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
	cfg.fill()
	if cfg.Shards < 1 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("pmkv: Shards must be in 1..%d, got %d", MaxShards, cfg.Shards)
	}
	s := &ShardedStore{cfg: cfg, readFast: !cfg.DisableReadFast}
	for i := 0; i < cfg.Shards; i++ {
		eng, err := New(cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("pmkv: shard %d: %w", i, err)
		}
		sh := &shard{
			id:   i,
			eng:  eng,
			mail: make(chan shardJob, cfg.Mailbox),
			open: true,
		}
		sh.batchLim.Store(int64(cfg.minBatch()))
		s.shards = append(s.shards, sh)
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go func(sh *shard) {
			defer s.wg.Done()
			s.runShard(sh)
		}(sh)
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
		pending: make([]atomic.Int32, len(s.shards)),
	}
	s.sessions++
	for i, sh := range s.shards {
		sess.per[i] = sh.eng.NewSession()
	}
	return sess
}

// Do routes one request to its key's shard and blocks until the shard
// acks it (for mutations: until the publish is durable, the shard
// crashed, or the store refused the request). It is DoAsync with a
// private one-slot completion queue; callers that want telemetry spans,
// pipelining, or a reused queue call DoAsync directly.
func (s *ShardedStore) Do(sess *ShardedSession, op Op, key string, value []byte) ShardAck {
	done := make(chan Completion, 1)
	shard, err := s.DoAsync(sess, op, key, value, nil, 0, done)
	if err != nil {
		return ShardAck{Shard: shard, Err: err}
	}
	return (<-done).Ack
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
	id := ShardOf(key, len(s.shards))
	span.Stamp(telemetry.StageShardRoute)
	sh := s.shards[id]
	if op == Get && s.readFast {
		if sess.pending[id].Load() == 0 && !s.draining.Load() && !sh.crashedFl.Load() {
			// The engine's checkpoint holds exactly the durable prefix:
			// pending==0 means every one of this session's writes here is
			// acked, and the watermark folds a batch's records before the
			// worker releases its acks, so the session's own writes are
			// present and any missing foreign write is unacked (free to
			// linearize after this read). Absence is therefore an
			// authoritative not-found.
			val, found, rec := sh.eng.ReadCommitted(key)
			sh.eng.ObserveFastRead(sess.per[id].ID, key, rec)
			sh.fastHits.Add(1)
			span.Stamp(telemetry.StageDurable)
			done <- Completion{Tag: tag, Ack: ShardAck{
				Resp:    Response{Found: found, Value: val},
				Shard:   id,
				Durable: sh.eng.Committed(),
				Fast:    true,
			}}
			return id, nil
		}
		sh.fastFalls.Add(1)
	}
	j := shardJob{
		req:  Request{Sess: sess.per[id], Op: op, Key: key, Value: value},
		done: done,
		tag:  tag,
		span: span,
	}
	if op != Get {
		sess.pending[id].Add(1)
		j.pend = &sess.pending[id]
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

// pendingBatch is one group commit in flight: after SubmitAppend its
// volatile responses are known (fed, awaiting retirement); after the
// retire pump its durability ack is gated on the durable-prefix watermark.
type pendingBatch struct {
	jobs   []shardJob
	resps  []Response
	target int // RecordCount after this batch's SubmitAppend
}

// shardWorker is runShard's per-goroutine state: the bounded in-flight
// pipeline, the adaptive batch limit, and the slice pools that keep the
// steady-state commit path free of allocations.
type shardWorker struct {
	s  *ShardedStore
	sh *shard

	open bool
	// fed holds batches translated and fed to the machine but not yet
	// retired; pending holds retired batches whose acks await the
	// watermark. Feeding batch k+1 while batch k's persist traffic
	// drains is the pipeline.
	fed     []pendingBatch
	pending []pendingBatch

	// limit is the adaptive batch size in [minBatch, MaxBatch].
	limit int

	// dry records that the persist machinery has nothing scheduled while
	// acks are still gated: durability cannot advance until new work
	// arrives, so the worker blocks instead of spinning on the mailbox.
	dry bool

	reqs     []Request // reusable SubmitAppend argument (the engine copies what it keeps)
	jobFree  [][]shardJob
	respFree [][]Response
}

// runShard is the shard's worker: the engine's single writer. Each pass
// gathers a batch, translates and feeds it, and either goes straight
// back for the next batch (window room and requests still queued — the
// pump is deferred so translate overlaps the previous batches' persist
// traffic) or pumps retirement and releases whatever acks the watermark
// now covers.
func (s *ShardedStore) runShard(sh *shard) {
	w := &shardWorker{s: s, sh: sh, open: true, limit: int(sh.batchLim.Load())}
	for w.open || len(w.fed)+len(w.pending) > 0 {
		batch := w.gather()
		if len(batch) == 0 {
			w.putJobs(batch)
		} else if !w.submit(batch) {
			continue
		}
		if w.open && len(w.fed) > 0 && len(w.fed) < commitWindow && len(sh.mail) > 0 {
			continue // pipeline: translate the next batch before pumping
		}
		if len(w.fed) > 0 && !w.pump() {
			continue
		}
		w.release()
	}
}

// gather drains up to limit requests from the mailbox without blocking —
// unless the worker has nothing in flight (or the machinery is dry with
// acks gated, so only new work can advance durability), in which case it
// blocks for the first request. Blocking shrinks the adaptive limit;
// filling it with requests still queued grows it.
func (w *shardWorker) gather() []shardJob {
	sh := w.sh
	batch := w.takeJobs()
	if w.open && (len(w.fed)+len(w.pending) == 0 || w.dry) {
		j, ok := <-sh.mail
		if !ok {
			w.open = false
			return batch
		}
		j.span.Stamp(telemetry.StageDequeue)
		batch = append(batch, j)
		w.setLimit(w.limit / 2)
	}
	for w.open && len(batch) < w.limit {
		select {
		case j, ok := <-sh.mail:
			if !ok {
				w.open = false
				return batch
			}
			j.span.Stamp(telemetry.StageDequeue)
			batch = append(batch, j)
		default:
			return batch
		}
	}
	if len(batch) == w.limit && len(sh.mail) > 0 {
		w.setLimit(w.limit * 2)
	}
	return batch
}

// setLimit moves the adaptive batch limit, clamped to its bounds,
// publishing changes to the live gauge.
func (w *shardWorker) setLimit(l int) {
	l = min(max(l, w.s.cfg.minBatch()), w.s.cfg.MaxBatch)
	if l != w.limit {
		w.limit = l
		w.sh.batchLim.Store(int64(l))
	}
}

// submit translates and feeds one batch. No simulated time passes: the
// machine only schedules the ops, so earlier batches' persist traffic
// keeps draining underneath. Reports false when the batch was refused
// and the main loop should re-evaluate from the top.
func (w *shardWorker) submit(batch []shardJob) bool {
	sh := w.sh
	w.reqs = w.reqs[:0]
	for i := range batch {
		w.reqs = append(w.reqs, batch[i].req)
	}
	resps, err := sh.eng.SubmitAppend(w.takeResps(), w.reqs)
	switch {
	case err == nil:
		cycle := int64(sh.eng.Now())
		for i := range batch {
			batch[i].span.StampAt(telemetry.StageTranslate, cycle)
		}
		sh.batchHist.Observe(uint64(len(batch)))
		sh.batches.Add(1)
		sh.batchOps.Add(uint64(len(batch)))
		w.fed = append(w.fed, pendingBatch{jobs: batch, resps: resps, target: sh.eng.RecordCount()})
		w.dry = false
		return true
	case err == ErrCrashed:
		// The machine lost power before this batch could be fed (SubmitAppend
		// refuses wholesale once crashed): its clients see the error, and
		// everything in flight gets crashed acks.
		w.crashFlush()
		for i := range batch {
			batch[i].deliver(ShardAck{Shard: sh.id, Err: ErrCrashed})
		}
		w.putJobs(batch)
		return false
	default:
		for i := range batch {
			batch[i].deliver(ShardAck{Shard: sh.id, Err: err})
		}
		w.putJobs(batch)
		return false
	}
}

// pump retires everything fed since the last pump: one PumpRetire closes
// the commit window for every in-flight batch at once — the engine first
// feeds each core the one barrier its newest publish still owes, so the
// batches fed since the last pump share that barrier and "retired" means
// every fed publish sits in a closed epoch — and their acks move to the
// watermark gate. Reports false on a crash (pipeline state was flushed).
func (w *shardWorker) pump() bool {
	sh := w.sh
	err := sh.eng.PumpRetire()
	switch {
	case err == nil:
		cycle := int64(sh.eng.Now())
		for _, p := range w.fed {
			for i := range p.jobs {
				p.jobs[i].span.StampAt(telemetry.StageSubmit, cycle)
			}
		}
		w.pending = append(w.pending, w.fed...)
		w.fed = w.fed[:0]
		return true
	case err == ErrCrashed:
		// The machine lost power mid-retire. The fed batches were applied:
		// their clients get volatile responses flagged crashed — recovery,
		// not the watermark, now judges durability.
		w.crashFlush()
		return false
	default:
		for _, p := range w.fed {
			for i := range p.jobs {
				p.jobs[i].deliver(ShardAck{Shard: sh.id, Err: err})
			}
			w.recycle(p)
		}
		w.fed = w.fed[:0]
		return true
	}
}

// release delivers acks for retired batches the durable watermark
// covers. With requests queued behind it the watermark is only polled
// (and a crash surfaced there is routed to the flush, where the pre-v2
// busy path dropped the error and waited for durability that could
// never come); with an idle mailbox one BatchGap of simulated time
// advances per call, so the worker re-polls the mailbox between gap
// steps instead of going blind inside a blocking WaitDurable loop.
func (w *shardWorker) release() {
	sh := w.sh
	if len(w.pending) == 0 {
		return
	}
	var durable int
	var dry bool
	var err error
	if len(sh.mail) > 0 {
		durable, _, err = sh.eng.DurableWatermark()
	} else {
		durable, dry, err = sh.eng.StepDurable(w.pending[len(w.pending)-1].target)
	}
	switch {
	case err == ErrCrashed:
		w.crashFlush()
		return
	case err != nil:
		for _, p := range w.pending {
			for i := range p.jobs {
				p.jobs[i].deliver(ShardAck{Shard: sh.id, Err: err})
			}
			w.recycle(p)
		}
		w.pending = w.pending[:0]
		return
	}
	// The watermark call above folded the newly durable records into the
	// engine's checkpoint BEFORE any ack below is delivered: a client that
	// has received a durable ack must find that write on the fast path (the
	// atomic bucket store happens-before the ack's channel send, which
	// happens-before the client's next request).
	cycle := int64(sh.eng.Now())
	for len(w.pending) > 0 && w.pending[0].target <= durable {
		p := w.pending[0]
		n := copy(w.pending, w.pending[1:])
		w.pending[n] = pendingBatch{}
		w.pending = w.pending[:n]
		// These acks promise durability: record the obligation so the
		// checker can hold the crash image to it.
		sh.eng.DL().AckDurable(p.target)
		for i := range p.jobs {
			p.jobs[i].span.StampAt(telemetry.StageDurable, cycle)
			p.jobs[i].deliver(ShardAck{Resp: p.resps[i], Shard: sh.id, Durable: durable})
		}
		w.recycle(p)
	}
	if len(w.pending) == 0 {
		w.dry = false
		return
	}
	if !w.open && sh.eng.Quiesced() {
		// Mailbox closed and the machinery ran dry with acks still gated:
		// only Close's final drain persists the rest. Ack now — Close runs
		// the full drain before the recovery snapshot, so durability still
		// precedes the snapshot (and the acks remain checker obligations).
		for _, p := range w.pending {
			sh.eng.DL().AckDurable(p.target)
			for i := range p.jobs {
				p.jobs[i].span.StampAt(telemetry.StageDurable, cycle)
				p.jobs[i].deliver(ShardAck{Resp: p.resps[i], Shard: sh.id, Durable: durable})
			}
			w.recycle(p)
		}
		w.pending = w.pending[:0]
		return
	}
	w.dry = dry
}

// crashFlush delivers crashed acks for everything in flight — retired
// batches still gated and fed batches whose retirement raced the power
// loss — then fires OnCrash once.
func (w *shardWorker) crashFlush() {
	sh := w.sh
	cycle := int64(sh.eng.Now())
	for _, list := range [2][]pendingBatch{w.pending, w.fed} {
		for _, p := range list {
			for i := range p.jobs {
				p.jobs[i].span.StampAt(telemetry.StageDurable, cycle)
				p.jobs[i].deliver(ShardAck{Resp: p.resps[i], Shard: sh.id, Crashed: true})
			}
			w.recycle(p)
		}
	}
	w.pending = w.pending[:0]
	w.fed = w.fed[:0]
	if sh.crashedFl.CompareAndSwap(false, true) && w.s.cfg.OnCrash != nil {
		w.s.cfg.OnCrash(sh.id)
	}
}

// takeJobs pops a pooled gather buffer (capacity MaxBatch).
func (w *shardWorker) takeJobs() []shardJob {
	if n := len(w.jobFree); n > 0 {
		b := w.jobFree[n-1]
		w.jobFree = w.jobFree[:n-1]
		return b
	}
	return make([]shardJob, 0, w.s.cfg.MaxBatch)
}

// putJobs clears a job slice (dropping the completion-channel, span, and
// request-value references its slots pin) and returns it to the pool.
func (w *shardWorker) putJobs(jobs []shardJob) {
	for i := range jobs {
		jobs[i] = shardJob{}
	}
	w.jobFree = append(w.jobFree, jobs[:0])
}

// takeResps pops a pooled response buffer for SubmitAppend.
func (w *shardWorker) takeResps() []Response {
	if n := len(w.respFree); n > 0 {
		b := w.respFree[n-1]
		w.respFree = w.respFree[:n-1]
		return b
	}
	return make([]Response, 0, w.s.cfg.MaxBatch)
}

// recycle returns a delivered batch's slices to the pools.
func (w *shardWorker) recycle(p pendingBatch) {
	w.putJobs(p.jobs)
	for i := range p.resps {
		p.resps[i] = Response{}
	}
	w.respFree = append(w.respFree, p.resps[:0])
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
	BatchLimit int     `json:"batch_limit"` // live adaptive batch limit
	// Durable is the durable watermark as the worker last advanced it (a
	// snapshot reads it, never moves it); Total the publishes issued.
	Durable int  `json:"durable_publishes"`
	Total   int  `json:"total_publishes"`
	Crashed bool `json:"crashed,omitempty"`
	// FastHits / FastFallbacks count GETs answered on the lock-free fast
	// path vs routed through the mailbox while the fast path was on.
	FastHits      uint64 `json:"read_fast_hits"`
	FastFallbacks uint64 `json:"read_fallbacks"`
	// Retention is what the shard's engine holds and has released; its
	// Folded count is also the watermark the fast path's checkpoint covers.
	Retention
	// BatchSizes is the group-commit size distribution.
	BatchSizes hist.Hist `json:"batch_sizes"`
	// Counters are the shard machine's own counts, in simulated cycles;
	// Counters.Cycle is the shard's clock.
	Counters machine.Counters `json:"counters"`
}

// Metrics snapshots every shard. It only reads: one Engine.Stats per
// shard, which takes the engine lock once and leaves the watermark, the
// tail and the machine's history to the worker.
func (s *ShardedStore) Metrics() []ShardMetrics {
	out := make([]ShardMetrics, len(s.shards))
	for i, sh := range s.shards {
		st := sh.eng.Stats()
		m := ShardMetrics{
			Shard:         i,
			QueueDepth:    len(sh.mail),
			MailboxCap:    s.cfg.Mailbox,
			Batches:       sh.batches.Load(),
			BatchLimit:    int(sh.batchLim.Load()),
			Durable:       st.Folded,
			Total:         st.Folded + st.Retained,
			Crashed:       sh.crashedFl.Load(),
			FastHits:      sh.fastHits.Load(),
			FastFallbacks: sh.fastFalls.Load(),
			Retention:     st.Retention,
			BatchSizes:    sh.batchHist.Snapshot(),
			Counters:      st.Counters,
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
	Shard     int
	Crashed   bool
	Cycles    sim.Cycle
	Report    *Report
	Recovered map[string][]byte
	// DL is the durable-linearizability verdict (nil unless the shard
	// engine ran with Config.Check).
	DL *dlcheck.Verdict
	// Stats is the engine's final snapshot, taken after it closed: Retained
	// is the tail recovery walked, Folded what the checkpoint already
	// covered, and the counters include the closing drain.
	Stats EngineStats
	Err   error
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
		go func(sh *shard) {
			defer wg.Done()
			r := ShardResult{Shard: sh.id, Crashed: sh.eng.Crashed(), Cycles: sh.eng.Now()}
			res, err := sh.eng.Close()
			r.Stats = sh.eng.Stats()
			if err != nil {
				r.Err = err
			} else {
				r.Report, r.Err = sh.eng.Verify(res)
				if r.Err == nil {
					r.Recovered, r.Err = sh.eng.RecoveredState(res)
				}
				r.DL = sh.eng.CheckDL(res)
				if r.Err == nil && r.DL != nil {
					r.Err = r.DL.Err()
				}
			}
			results[sh.id] = r
		}(sh)
	}
	wg.Wait()
	var firstErr error
	for i := range results {
		if results[i].Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("pmkv: shard %d: %w", results[i].Shard, results[i].Err)
		}
	}
	s.results = results
	return s.results, firstErr
}

// CombineFingerprints folds per-shard recovery fingerprints (in shard
// order) into one canonical store fingerprint.
func CombineFingerprints(fps []string) string {
	return stats.MustFingerprint(fps)
}

// MergeRecovered unions per-shard recovered states. Shards partition the
// keyspace, so the maps are disjoint.
func MergeRecovered(results []ShardResult) map[string][]byte {
	out := make(map[string][]byte)
	for _, r := range results {
		for k, v := range r.Recovered {
			out[k] = v
		}
	}
	return out
}
