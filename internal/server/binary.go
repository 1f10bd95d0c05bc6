// The pipelined binary connection path. Each connection splits into two
// goroutines mirroring the shard workers' own pipelining: the reader
// decodes frames and dispatches their ops asynchronously (DoAsync), the
// writer drains a shared completion queue, assembles responses the
// moment their last subop acks — out of order across requests — and
// flushes them in batches. A window semaphore bounds in-flight subops to
// the completion queue's capacity, so shard workers never block
// delivering an ack; that invariant is what lets one connection overlap
// hundreds of persists the way the paper's epochs overlap barriers.

package server

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
	"persistbarriers/internal/telemetry"
)

// binFlushThreshold forces a mid-queue flush once this many response
// bytes are buffered; otherwise the writer flushes whenever the
// completion queue runs dry.
const binFlushThreshold = 64 << 10

// binRec tracks one in-flight request frame. The reader fully
// initializes a record before dispatching any of its subops; after that
// only the writer touches it (through completions), so records need no
// lock. Slots recycle through binConn.free.
type binRec struct {
	id        uint64
	op        proto.Opcode
	multi     bool
	remaining uint32
	results   []proto.Result
	errMsg    string
	crashed   bool
	fast      bool // every subop served from the read index
	shard     int  // subop 0's shard (-1: never routed)
	durable   int
	key0      string // subop 0's key, for the tracer (copied: frames reuse their buffer)
	traced    bool
}

// binConn is one pipelined connection's shared state.
type binConn struct {
	s    *Server
	conn net.Conn
	sess *pmkv.ShardedSession

	// tokens holds the free window slots, one per in-flight subop: the
	// reader takes one before each dispatch (or synthetic completion),
	// the writer returns one per completion received. Outstanding subops
	// therefore never exceed cap(done), which is what guarantees the
	// shard workers' unconditional completion sends cannot block.
	tokens chan struct{}
	done   chan pmkv.Completion
	free   chan uint32 // recycled record slots
	recs   []binRec
	spans  []telemetry.Span // parallel to recs; stamped only when tracing
}

// binTag packs a record slot and subop index into a completion tag.
func binTag(rec uint32, sub int) uint64 { return uint64(rec)<<32 | uint64(uint32(sub)) }

// handle runs one connection's reader side and owns its teardown: by
// the time it returns, every dispatched op has completed, the writer has
// flushed (or discarded) every response, and the connection is closed
// and untracked. A bad magic, the first frame's included, ends the
// connection like any framing error.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	win := s.opts.Window
	bc := &binConn{
		s:      s,
		conn:   conn,
		sess:   s.store.NewSession(),
		tokens: make(chan struct{}, win),
		done:   make(chan pmkv.Completion, win),
		free:   make(chan uint32, win),
		recs:   make([]binRec, win),
	}
	for i := 0; i < win; i++ {
		bc.tokens <- struct{}{}
		bc.free <- uint32(i)
	}
	if s.tracer.Enabled() {
		bc.spans = make([]telemetry.Span, win)
	}
	writerDone := make(chan struct{})
	go bc.writeLoop(writerDone)

	fr := proto.NewFrameReader(bufio.NewReaderSize(conn, 64<<10))
	var req proto.Request
	for {
		s.armReadDeadline(conn)
		magic, payload, err := fr.Next()
		if err != nil || magic != proto.FrameRequest {
			break
		}
		if err := proto.ParseRequest(payload, &req); err != nil {
			// Framing is suspect past a parse error: the connection is
			// done.
			break
		}
		bc.dispatch(&req)
	}

	// Teardown: reclaiming the whole window proves every dispatched
	// subop's completion has been received by the writer; closing done
	// then lets the writer flush its last responses and exit.
	for i := 0; i < win; i++ {
		<-bc.tokens
	}
	close(bc.done)
	<-writerDone
}

// dispatch routes one decoded frame. It acquires one window slot per
// subop and one record, fully initializes the record, then feeds the
// shard mailboxes; any synchronous refusal (draining, bad key) becomes a
// synthetic completion so the writer's accounting never forks.
func (bc *binConn) dispatch(req *proto.Request) {
	n := len(req.Keys)
	if n > len(bc.recs) {
		// More subops than the window could ever complete: answer without
		// dispatching (the reader takes the frame's slots as one).
		bc.reject(req, fmt.Sprintf("frame ops %d exceed window %d", n, len(bc.recs)))
		return
	}
	for _, k := range req.Keys {
		if len(k) == 0 {
			bc.reject(req, "missing key")
			return
		}
	}
	for i := 0; i < n; i++ {
		<-bc.tokens
	}
	ri := <-bc.free
	rec := &bc.recs[ri]
	rec.init(req, n)
	// Everything the writer reads off a completion — including the
	// trace routing below — must be in place before the first DoAsync:
	// the moment it returns, the shard worker may already have delivered
	// the completion and the writer may be reading this record.
	var span *telemetry.Span
	if bc.spans != nil {
		span = &bc.spans[ri]
		span.Reset()
		span.Stamp(telemetry.StageConnRead)
		rec.key0 = string(req.Keys[0])
		rec.shard = pmkv.ShardOf(rec.key0, bc.s.store.Shards())
		rec.traced = true
	}
	refused := false
	for i := 0; i < n; i++ {
		if refused {
			bc.synthesize(ri, i, pmkv.ErrDraining)
			continue
		}
		op := pmkv.Get
		switch req.Op {
		case proto.OpPut, proto.OpMSet:
			op = pmkv.Put
		case proto.OpDel:
			op = pmkv.Delete
		}
		// The frame buffer is reused by the next read while these ops are
		// still in shard mailboxes: key and value must be copied out. (The
		// key copy doubles as the engine's string key; puts need the value
		// copy regardless.)
		key := string(req.Keys[i])
		var val []byte
		if req.Vals[i] != nil {
			val = append([]byte(nil), req.Vals[i]...)
		}
		sp := span
		if i > 0 {
			sp = nil // one span per frame; subop 0 carries it
		}
		_, err := bc.s.store.DoAsync(bc.sess, op, key, val, sp, binTag(ri, i), bc.done)
		if err != nil {
			bc.synthesize(ri, i, err)
			if err == pmkv.ErrDraining {
				refused = true // fail the frame's remaining ops fast
			}
		}
	}
}

func (r *binRec) init(req *proto.Request, n int) {
	r.id = req.ID
	r.op = req.Op
	r.multi = req.Op.Multi()
	r.remaining = uint32(n)
	if cap(r.results) < n {
		r.results = make([]proto.Result, n)
	}
	r.results = r.results[:n]
	for i := range r.results {
		r.results[i] = proto.Result{}
	}
	r.errMsg = ""
	r.crashed = false
	r.fast = true
	r.shard = -1
	r.durable = 0
	r.key0 = ""
	r.traced = false
}

// reject answers a frame that was never dispatched. The reader holds one
// window slot for it, so the synthetic completion cannot overrun done.
func (bc *binConn) reject(req *proto.Request, msg string) {
	<-bc.tokens
	ri := <-bc.free
	bc.recs[ri].init(req, 1)
	bc.synthesize(ri, 0, fmt.Errorf("%s", msg))
}

// synthesize delivers a reader-side completion for a subop that never
// reached a shard. The reader holds the subop's window slot, which is
// exactly the free done capacity the send consumes.
func (bc *binConn) synthesize(ri uint32, sub int, err error) {
	bc.done <- pmkv.Completion{Tag: binTag(ri, sub), Ack: pmkv.ShardAck{Shard: -1, Err: err}}
}

// apply folds one subop's ack into its record.
func (bc *binConn) apply(rec *binRec, sub int, ack pmkv.ShardAck) {
	switch {
	case ack.Err == pmkv.ErrDraining:
		if rec.errMsg == "" {
			rec.errMsg = "draining"
		}
	case ack.Err != nil:
		if rec.errMsg == "" {
			rec.errMsg = ack.Err.Error()
		}
	default:
		r := &rec.results[sub]
		r.Found = ack.Resp.Found
		r.Value = ack.Resp.Value
		r.HasValue = len(ack.Resp.Value) > 0
		if ack.Crashed {
			rec.crashed = true
		}
		if !ack.Fast {
			rec.fast = false
		}
		if sub == 0 {
			rec.durable = ack.Durable
		}
	}
}

// writeLoop drains completions and writes responses. A response is
// encoded the moment its frame's last subop completes — out of order
// across frames — and buffered; the buffer flushes when the completion
// queue runs dry (nothing to piggyback on) or past binFlushThreshold.
// A flush failure (stalled or gone client) flips the connection into
// discard mode: completions keep draining and window slots keep
// recycling so the shard workers and the reader's teardown never wedge
// on a dead peer — the PR 3 drain guarantee, extended to pipelining.
func (bc *binConn) writeLoop(writerDone chan struct{}) {
	defer close(writerDone)
	wbuf := make([]byte, 0, 16<<10)
	var resp proto.Response
	var unflushed []uint32 // records encoded into wbuf
	discard := false

	flush := func() {
		if len(wbuf) > 0 && !discard {
			bc.conn.SetWriteDeadline(time.Now().Add(bc.s.opts.WriteTimeout))
			if _, err := bc.conn.Write(wbuf); err != nil {
				discard = true
				bc.conn.Close() // unblock the reader too
			}
		}
		for _, ri := range unflushed {
			rec := &bc.recs[ri]
			if rec.traced && !discard {
				served := rec.errMsg == ""
				get := rec.op == proto.OpGet || rec.op == proto.OpMGet
				bc.s.complete(rec.shard, &bc.spans[ri], get && served, rec.fast, telemetry.Meta{
					Op:      rec.op.String(),
					Sess:    bc.sess.ID,
					Key:     rec.key0,
					Durable: rec.durable,
					Crashed: rec.crashed,
					OK:      served,
				})
			}
			bc.free <- ri
		}
		unflushed = unflushed[:0]
		wbuf = wbuf[:0]
	}

	for {
		var c pmkv.Completion
		var ok bool
		select {
		case c, ok = <-bc.done:
		default:
			flush()
			c, ok = <-bc.done
		}
		if !ok {
			flush()
			return
		}
		ri, sub := uint32(c.Tag>>32), int(uint32(c.Tag))
		rec := &bc.recs[ri]
		bc.apply(rec, sub, c.Ack)
		rec.remaining--
		bc.tokens <- struct{}{}
		if rec.remaining == 0 {
			resp.ID = rec.id
			resp.Multi = rec.multi
			resp.Err = rec.errMsg
			resp.Crashed = rec.crashed
			resp.OK = rec.errMsg == ""
			resp.Results = rec.results
			wbuf = proto.AppendResponse(wbuf, &resp)
			unflushed = append(unflushed, ri)
			if len(wbuf) >= binFlushThreshold {
				flush()
			}
		}
	}
}
