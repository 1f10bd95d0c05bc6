// The pipelined binary connection path. Each connection splits into two
// goroutines mirroring the shard workers' own pipelining: the reader
// decodes frames and dispatches each one's op asynchronously (DoAsync),
// the writer drains a shared completion queue, encodes each response the
// moment its op acks — out of order across requests — and flushes them
// in batches. The window is the connection's records: a request holds
// one from dispatch until its response is flushed, so outstanding ops
// never exceed the completion queue's capacity and shard workers never
// block delivering an ack; that invariant is what lets one connection
// overlap hundreds of persists the way the paper's epochs overlap
// barriers.

package server

import (
	"bufio"
	"errors"
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

// errMissingKey answers a request with an empty key.
var errMissingKey = errors.New("missing key")

// binRec tracks one in-flight request. The reader fully initializes a
// record before dispatching its op; after that only the writer touches
// it (through its completion), so records need no lock. A record's slot
// is its completion tag, and returns to binConn.free once the response
// is flushed.
type binRec struct {
	id      uint64
	op      proto.Opcode
	result  proto.Result
	errMsg  string
	crashed bool
	fast    bool // served from the read index
	shard   int  // -1: never routed
	durable int
	key     string // for the tracer (copied: frames reuse their buffer)
	traced  bool
}

// binConn is one pipelined connection's shared state.
type binConn struct {
	s    *Server
	conn net.Conn
	sess *pmkv.ShardedSession

	// free holds the window: the reader takes a record before each
	// dispatch (or synthetic completion), the writer returns it once the
	// response is flushed. A record outlives its completion, so
	// outstanding completions never exceed cap(done), which is what
	// guarantees the shard workers' unconditional completion sends cannot
	// block.
	free  chan uint32
	done  chan pmkv.Completion
	recs  []binRec
	spans []telemetry.Span // parallel to recs; stamped only when tracing
}

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
		s:    s,
		conn: conn,
		sess: s.store.NewSession(),
		free: make(chan uint32, win),
		done: make(chan pmkv.Completion, win),
		recs: make([]binRec, win),
	}
	for i := 0; i < win; i++ {
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

	// Teardown: reclaiming the whole window proves every dispatched op's
	// response has been flushed or discarded; closing done then lets the
	// writer exit.
	for i := 0; i < win; i++ {
		<-bc.free
	}
	close(bc.done)
	<-writerDone
}

// dispatch routes one decoded request. It takes a record, fully
// initializes it, then feeds the op to its shard's mailbox; any
// synchronous refusal (draining, bad key) becomes a synthetic completion
// so the writer's accounting never forks.
func (bc *binConn) dispatch(req *proto.Request) {
	ri := <-bc.free
	rec := &bc.recs[ri]
	*rec = binRec{id: req.ID, op: req.Op, fast: true, shard: -1}
	if len(req.Key) == 0 {
		bc.synthesize(ri, errMissingKey)
		return
	}
	// The frame buffer is reused by the next read while the op is still
	// in a shard mailbox: key and value must be copied out. (The key copy
	// doubles as the engine's string key; puts need the value copy
	// regardless.)
	key := string(req.Key)
	var val []byte
	if req.Value != nil {
		val = append([]byte(nil), req.Value...)
	}
	op := pmkv.Get
	switch req.Op {
	case proto.OpPut:
		op = pmkv.Put
	case proto.OpDel:
		op = pmkv.Delete
	}
	// Everything the writer reads off the completion — including the
	// trace routing below — must be in place before DoAsync: the moment
	// it returns, the shard worker may already have delivered the
	// completion and the writer may be reading this record.
	var span *telemetry.Span
	if bc.spans != nil {
		span = &bc.spans[ri]
		span.Reset()
		span.Stamp(telemetry.StageConnRead)
		rec.key = key
		rec.shard = pmkv.ShardOf(key, bc.s.store.Shards())
		rec.traced = true
	}
	if _, err := bc.s.store.DoAsync(bc.sess, op, key, val, span, uint64(ri), bc.done); err != nil {
		bc.synthesize(ri, err)
	}
}

// synthesize delivers a reader-side completion for an op that never
// reached a shard. The reader holds the op's record, which is exactly
// the free done capacity the send consumes.
func (bc *binConn) synthesize(ri uint32, err error) {
	bc.done <- pmkv.Completion{Tag: uint64(ri), Ack: pmkv.ShardAck{Err: err}}
}

// apply folds the op's ack into its record.
func (bc *binConn) apply(rec *binRec, ack pmkv.ShardAck) {
	switch {
	case ack.Err == pmkv.ErrDraining:
		rec.errMsg = "draining"
	case ack.Err != nil:
		rec.errMsg = ack.Err.Error()
	default:
		rec.result = proto.Result{Found: ack.Resp.Found, HasValue: len(ack.Resp.Value) > 0, Value: ack.Resp.Value}
		rec.crashed = ack.Crashed
		rec.fast = ack.Fast
		rec.durable = ack.Durable
	}
}

// writeLoop drains completions and writes responses. A response is
// encoded the moment its op completes — out of order across requests —
// and buffered; the buffer flushes when the completion queue runs dry
// (nothing to piggyback on) or past binFlushThreshold. A flush failure
// (stalled or gone client) flips the connection into discard mode:
// completions keep draining and records keep recycling so the shard
// workers and the reader's teardown never wedge on a dead peer — the
// PR 3 drain guarantee, extended to pipelining.
func (bc *binConn) writeLoop(writerDone chan struct{}) {
	defer close(writerDone)
	wbuf := make([]byte, 0, 16<<10)
	resp := proto.Response{Results: make([]proto.Result, 1)}
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
				bc.s.complete(rec.shard, &bc.spans[ri], rec.op == proto.OpGet && served, rec.fast, telemetry.Meta{
					Op:      rec.op.String(),
					Sess:    bc.sess.ID,
					Key:     rec.key,
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
		ri := uint32(c.Tag)
		rec := &bc.recs[ri]
		bc.apply(rec, c.Ack)
		resp.ID = rec.id
		resp.Err = rec.errMsg
		resp.Crashed = rec.crashed
		resp.OK = rec.errMsg == ""
		resp.Results[0] = rec.result
		wbuf = proto.AppendResponse(wbuf, &resp)
		unflushed = append(unflushed, ri)
		if len(wbuf) >= binFlushThreshold {
			flush()
		}
	}
}
