// Package server is pmkvd as a library: it serves the pmkv sharded
// store over TCP and produces the verified drain report. cmd/pmkvd is
// flag parsing around it; tests, fuzzers and benchmarks start one
// in-process through the same few calls.
//
// The wire protocol is the pipelined binary one (internal/proto):
// length-prefixed frames with client-chosen request ids, up to
// Options.Window requests in flight per connection, responses written
// out of order the moment each op's shard acks it, batched into single
// socket writes. A connection that does not open with a request frame is
// closed unanswered.
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
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"persistbarriers/internal/pmkv"
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
