// Package server is pmkvd as a library: it serves the pmkv sharded
// store over TCP and produces the verified drain report. cmd/pmkvd is
// flag parsing around it; tests, fuzzers and benchmarks start one
// in-process through the same few calls.
//
// Two wire protocols share the port, auto-detected per connection from
// its first byte. A 0xB1 byte opens the pipelined binary protocol
// (internal/proto): length-prefixed frames with client-chosen request
// ids, up to Options.Window requests in flight per connection, responses
// written out of order the moment each op's shard acks it, batched into
// single socket writes. Anything else is the JSON line protocol
// (proto.LineRequest), one request in flight at a time.
//
// A server's life is New, Serve (or ServeConn per connection), then
// Close. BeginDrain — called on a signal, or by the server itself when a
// shard hits its crash instant — stops accepting and quiesces every
// shard mailbox: requests racing the drain are either committed before
// the final barrier or refused with "draining", never applied after the
// recovery snapshot. Close waits out every connection, drains and
// verifies every shard (the crash image where one lost power) and
// returns the Report.
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
	"persistbarriers/internal/telemetry"
)

// Options carries everything that shapes a server besides the store
// config itself.
type Options struct {
	// Window is the binary protocol's pipeline depth per connection
	// (default 128).
	Window int
	// MaxConns is the accept limit (0 = unlimited).
	MaxConns int
	// ConnTimeout, when > 0, is the rolling read idle deadline: a
	// connection that sends nothing for this long is dropped.
	ConnTimeout time.Duration
	// WriteTimeout bounds each response flush so a client that stops
	// reading cannot pin the drain (default 5s).
	WriteTimeout time.Duration
	// Tracing attaches the stage tracer and flight recorder: /metrics and
	// /statz carry the stage breakdown, and Close cross-checks acked
	// watermarks against the recovered durable prefix.
	Tracing bool
	// FlightPath is where Close writes the flight-recorder dump ("" = not
	// written). Setting it implies Tracing.
	FlightPath string
}

// Server glues the listener, the per-connection readers, and the sharded
// store whose workers own all engine forward progress.
type Server struct {
	store  *pmkv.ShardedStore
	tracer *telemetry.Tracer // nil when tracing is off; nil-safe throughout
	opts   Options

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]bool
	draining bool

	wg sync.WaitGroup // one per served connection
}

// New builds the tracer and the sharded store. cfg.OnCrash is the
// server's to set.
func New(cfg pmkv.ShardedConfig, opts Options) (*Server, error) {
	if opts.Window <= 0 {
		opts.Window = 128
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 5 * time.Second
	}
	s := &Server{opts: opts, conns: make(map[net.Conn]bool)}
	if opts.Tracing || opts.FlightPath != "" {
		s.tracer = telemetry.New(cfg.Shards)
	}
	// OnCrash runs on the crashing shard's worker goroutine; the drain must
	// start elsewhere (BeginDrain waits on producers only workers unblock).
	cfg.OnCrash = func(shard int) {
		fmt.Fprintf(os.Stderr, "pmkvd: shard %d lost power, draining...\n", shard)
		go s.BeginDrain()
	}
	store, err := pmkv.NewSharded(cfg)
	if err != nil {
		return nil, err
	}
	s.store = store
	return s, nil
}

// Serve accepts on ln until the drain begins (BeginDrain closes ln), then
// returns nil; it returns the accept error if ln fails first. The caller
// follows it with Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.isDraining() {
		ln.Close()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		s.ServeConn(conn)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ServeConn serves one connection on its own goroutine, which Close waits
// for. A connection arriving while the server drains, or beyond
// Options.MaxConns, is closed unserved.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	admit := !s.draining && (s.opts.MaxConns <= 0 || len(s.conns) < s.opts.MaxConns)
	if admit {
		s.conns[conn] = true
		s.wg.Add(1) // under mu, so it cannot race Close's Wait past the draining flag
	}
	s.mu.Unlock()
	if !admit {
		conn.Close()
		return
	}
	go func() {
		defer s.wg.Done()
		s.handle(conn)
	}()
}

// BeginDrain stops accepting, quiesces every shard mailbox, and unblocks
// connection readers; it is idempotent. Ordering matters: the store drain
// comes first, so a request that races it is either already in a mailbox
// (committed and acked before the final barrier) or refused with
// ErrDraining — and the readers are then unblocked with an immediate
// deadline rather than a close, so in-flight responses (the crashed-batch
// replies in particular) are still written before each handler returns.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.store.BeginDrain()
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
}

// handle runs one connection, auto-detecting its protocol from the
// first byte: the binary request magic (0xB1, high bit set) opens the
// pipelined path; anything else — a JSON line starts with '{' or
// whitespace, all < 0x80 — falls through to the line protocol.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	s.armReadDeadline(conn)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == proto.FrameRequest {
		s.handleBinary(conn, br)
		return
	}
	s.handleJSON(conn, br)
}

// armReadDeadline (re)arms the rolling idle deadline, then re-checks the
// drain flag: BeginDrain's immediate deadline must win the race against
// a reader extending its own, or a drain could stall for a full idle
// period.
func (s *Server) armReadDeadline(conn net.Conn) {
	if s.opts.ConnTimeout <= 0 {
		return
	}
	conn.SetReadDeadline(time.Now().Add(s.opts.ConnTimeout))
	if s.isDraining() {
		conn.SetReadDeadline(time.Now())
	}
}

// handleJSON runs one JSON-line connection: a session whose operations
// execute in program order on each shard, one request in flight at a
// time. This is the debug and differential-oracle protocol (the binary
// protocol is the fast one), so it encodes with encoding/json.
func (s *Server) handleJSON(conn net.Conn, br *bufio.Reader) {
	sess := s.store.NewSession()
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	w := bufio.NewWriterSize(conn, 32<<10)
	enc := json.NewEncoder(w)
	// One request in flight, so one completion slot serves every op.
	done := make(chan pmkv.Completion, 1)
	// One span per connection, reused for every request: the stamp/fold
	// path stays allocation-free (enforced by telemetry's AllocsPerRun
	// guards), so tracing costs a few clock reads per op.
	var span *telemetry.Span
	if s.tracer.Enabled() {
		span = new(telemetry.Span)
	}
	for {
		s.armReadDeadline(conn)
		if !sc.Scan() {
			return
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		span.Reset()
		span.Stamp(telemetry.StageConnRead)
		var req proto.LineRequest
		var reply any
		ack := pmkv.ShardAck{Shard: -1}
		if err := json.Unmarshal(line, &req); err != nil {
			reply = proto.LineResponse{Error: "bad request: " + err.Error()}
		} else if req.Op == "stats" {
			reply = s.statsReply()
		} else {
			reply, ack = s.dispatch(sess, req, span, done)
		}
		if err := enc.Encode(reply); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if span != nil && ack.Shard >= 0 && ack.Err == nil {
			s.complete(ack.Shard, span, req.Op == "get", ack.Fast, telemetry.Meta{
				Op:      req.Op,
				Sess:    sess.ID,
				Key:     req.Key,
				Durable: ack.Durable,
				Crashed: ack.Crashed,
				OK:      true,
			})
		}
	}
}

// complete stamps a traced op's ack as written and folds its span into
// the tracer; a served GET also lands in its read-path histogram.
func (s *Server) complete(shard int, span *telemetry.Span, servedGet, fast bool, m telemetry.Meta) {
	span.Stamp(telemetry.StageAckWritten)
	if servedGet {
		if d := span.Wall[telemetry.StageAckWritten] - span.Wall[telemetry.StageConnRead]; d > 0 {
			s.tracer.ObserveReadPath(shard, fast, uint64(d))
		}
	}
	s.tracer.Complete(shard, span, m)
}

// dispatch routes one data operation to its shard, waits for the ack on
// the connection's completion slot, and shapes the reply. The returned
// ack's Shard is -1 when the request never reached a shard (unknown op,
// missing key), so the caller knows not to trace it.
func (s *Server) dispatch(sess *pmkv.ShardedSession, req proto.LineRequest, span *telemetry.Span, done chan pmkv.Completion) (proto.LineResponse, pmkv.ShardAck) {
	none := pmkv.ShardAck{Shard: -1}
	var op pmkv.Op
	switch req.Op {
	case "get":
		op = pmkv.Get
	case "put":
		op = pmkv.Put
	case "del":
		op = pmkv.Delete
	default:
		return proto.LineResponse{Error: fmt.Sprintf("unknown op %q", req.Op)}, none
	}
	if req.Key == "" {
		return proto.LineResponse{Error: "missing key"}, none
	}
	shard, err := s.store.DoAsync(sess, op, req.Key, []byte(req.Value), span, 0, done)
	ack := pmkv.ShardAck{Shard: shard, Err: err}
	if err == nil {
		ack = (<-done).Ack
	}
	switch {
	case ack.Err == pmkv.ErrDraining:
		return proto.LineResponse{Error: "draining"}, ack
	case ack.Err != nil:
		return proto.LineResponse{Error: ack.Err.Error()}, ack
	}
	return proto.LineResponse{OK: true, Found: ack.Resp.Found, Value: string(ack.Resp.Value), Crashed: ack.Crashed}, ack
}

// statsReply is the stats reply (aggregate + per-shard, plus the stage
// breakdown when tracing is on), pre-marshaled so a value encoding/json
// rejects becomes an error line instead of a dropped connection.
func (s *Server) statsReply() any {
	line, err := json.Marshal(s.Statz())
	if err != nil {
		return proto.LineResponse{Error: "stats: " + err.Error()}
	}
	return json.RawMessage(line)
}
