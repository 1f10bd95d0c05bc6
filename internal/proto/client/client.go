// Package client is the pipelined side of pmkvd's binary wire protocol:
// a connection handle that keeps up to Window request frames in flight,
// batches their encodings into single socket writes, and matches the
// server's out-of-order responses back to callers by request id. The
// caller chooses ids (monotonic per connection) and receives completions
// on a reader-goroutine callback, so a load generator can drive one
// connection at pipeline depth W with two goroutines and zero per-op
// channel traffic.
//
// Concurrency contract: one goroutine submits (Get/Put/Del/MGet/MSet/
// Flush/Wait/Close); the handler runs on the client's internal reader
// goroutine and must not call submit methods. The handler's *Response is
// reused — copy anything that must outlive the call.
package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"persistbarriers/internal/proto"
)

// flushThreshold is the write-buffer size that forces a flush on the
// next submit, bounding batching latency by buffered bytes rather than
// time (a blocked window is the other flush trigger).
const flushThreshold = 32 << 10

// Handler receives one completed request on the reader goroutine.
// submitNS and sendNS are client-clock timestamps (see Client.NowNS):
// when the op entered the client, and when its frame was flushed to the
// socket — their gap is the client-side queueing delay that open-loop
// load generation must separate from service time. For transport
// failures the response is synthetic: Err is non-empty and ID still
// identifies the op.
type Handler func(resp *proto.Response, submitNS, sendNS int64)

// Options configures a Client.
type Options struct {
	// Window bounds in-flight request frames (default 64). A submit past
	// the window flushes buffered frames and blocks for a completion.
	Window int
	// OnComplete is required: every submitted frame produces exactly one
	// call, real or synthetic.
	OnComplete Handler
}

type opTimes struct {
	submitNS int64
	sendNS   int64
}

// Client is one pipelined connection. See the package comment for the
// goroutine contract.
type Client struct {
	conn  net.Conn
	h     Handler
	win   int
	epoch time.Time

	// tokens holds the free window slots: submit takes one, completion
	// (real or synthetic) returns it.
	tokens chan struct{}

	mu     sync.Mutex
	wbuf   []byte   // frames encoded but not yet written
	unsent []uint64 // ids of those frames, for send stamping
	times  map[uint64]opTimes
	err    error // first transport failure; sticky
	spare  []byte

	readerDone chan struct{}
}

// New wraps conn. The client owns the connection until Close.
func New(conn net.Conn, opts Options) (*Client, error) {
	if opts.OnComplete == nil {
		return nil, fmt.Errorf("proto client: OnComplete is required")
	}
	if opts.Window <= 0 {
		opts.Window = 64
	}
	c := &Client{
		conn:       conn,
		h:          opts.OnComplete,
		win:        opts.Window,
		epoch:      time.Now(),
		tokens:     make(chan struct{}, opts.Window),
		times:      make(map[uint64]opTimes, opts.Window),
		readerDone: make(chan struct{}),
	}
	for i := 0; i < opts.Window; i++ {
		c.tokens <- struct{}{}
	}
	go c.readLoop()
	return c, nil
}

// NowNS is the client clock: monotonic nanoseconds since New. Handlers
// subtract submitNS/sendNS from it for latencies.
func (c *Client) NowNS() int64 { return int64(time.Since(c.epoch)) }

// Window reports the configured pipeline depth.
func (c *Client) Window() int { return c.win }

// Get submits a GET for key under id.
func (c *Client) Get(id uint64, key []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return c.submit(id, func(dst []byte) []byte { return proto.AppendGet(dst, id, key) })
}

// Put submits a PUT.
func (c *Client) Put(id uint64, key, value []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := checkValue(value); err != nil {
		return err
	}
	return c.submit(id, func(dst []byte) []byte { return proto.AppendPut(dst, id, key, value) })
}

// Del submits a DEL.
func (c *Client) Del(id uint64, key []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return c.submit(id, func(dst []byte) []byte { return proto.AppendDel(dst, id, key) })
}

// MGet submits one MGET frame over keys: one window slot, one response
// carrying len(keys) results.
func (c *Client) MGet(id uint64, keys [][]byte) error {
	if err := checkMulti(keys, nil); err != nil {
		return err
	}
	return c.submit(id, func(dst []byte) []byte { return proto.AppendMGet(dst, id, keys) })
}

// MSet submits one MSET frame over parallel keys/vals.
func (c *Client) MSet(id uint64, keys, vals [][]byte) error {
	if len(vals) != len(keys) {
		return fmt.Errorf("proto client: MSET of %d keys and %d values", len(keys), len(vals))
	}
	if err := checkMulti(keys, vals); err != nil {
		return err
	}
	return c.submit(id, func(dst []byte) []byte { return proto.AppendMSet(dst, id, keys, vals) })
}

// The encoders write a key's length as a u16 and a multi frame's op count
// as a u16, so past the wire limits a length wraps and the frame desyncs;
// the server then drops the whole connection, every request in flight
// with it. The checks below refuse such a request before it is encoded,
// taking no window slot.

func checkKey(key []byte) error {
	if len(key) > proto.MaxKey {
		return fmt.Errorf("proto client: %w: key of %d bytes (max %d)", proto.ErrLimits, len(key), proto.MaxKey)
	}
	return nil
}

func checkValue(value []byte) error {
	if len(value) > proto.MaxValue {
		return fmt.Errorf("proto client: %w: value of %d bytes (max %d)", proto.ErrLimits, len(value), proto.MaxValue)
	}
	return nil
}

// checkMulti bounds an MGET (vals nil) or MSET: 1 to MaxOpsPerFrame ops,
// every key and value within its limit, the frame within MaxPayload.
func checkMulti(keys, vals [][]byte) error {
	switch n := len(keys); {
	case n == 0:
		return fmt.Errorf("proto client: %w", proto.ErrEmptyMulti)
	case n > proto.MaxOpsPerFrame:
		return fmt.Errorf("proto client: %w: %d ops per frame (max %d)", proto.ErrLimits, n, proto.MaxOpsPerFrame)
	}
	size := 8 + 1 + 2 // id, opcode, op count
	for i, k := range keys {
		if err := checkKey(k); err != nil {
			return err
		}
		size += 2 + len(k)
		if vals != nil {
			if err := checkValue(vals[i]); err != nil {
				return err
			}
			size += 4 + len(vals[i])
		}
	}
	if size > proto.MaxPayload {
		return fmt.Errorf("proto client: %w: %d bytes", proto.ErrFrameSize, size)
	}
	return nil
}

// submit acquires a window slot and encodes one frame. When the window
// is full it flushes first — otherwise the frames this submit is waiting
// on might still be sitting unsent in wbuf, a self-deadlock.
func (c *Client) submit(id uint64, enc func([]byte) []byte) error {
	select {
	case <-c.tokens:
	default:
		if err := c.Flush(); err != nil {
			return err
		}
		<-c.tokens
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.tokens <- struct{}{}
		return err
	}
	if _, dup := c.times[id]; dup {
		c.mu.Unlock()
		c.tokens <- struct{}{}
		return fmt.Errorf("proto client: id %d already in flight", id)
	}
	c.times[id] = opTimes{submitNS: c.NowNS()}
	c.wbuf = enc(c.wbuf)
	c.unsent = append(c.unsent, id)
	full := len(c.wbuf) >= flushThreshold
	c.mu.Unlock()
	if full {
		return c.Flush()
	}
	return nil
}

// Flush writes every buffered frame in one socket write and stamps
// their send times. The write runs outside the lock so a slow socket
// never stalls the reader's id matching (which the server's own write
// progress may depend on).
func (c *Client) Flush() error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if len(c.wbuf) == 0 {
		c.mu.Unlock()
		return nil
	}
	now := c.NowNS()
	for _, id := range c.unsent {
		t := c.times[id]
		t.sendNS = now
		c.times[id] = t
	}
	c.unsent = c.unsent[:0]
	buf := c.wbuf
	c.wbuf = c.spare[:0]
	c.mu.Unlock()
	_, err := c.conn.Write(buf)
	c.spare = buf // single-submitter: no concurrent flush
	if err != nil {
		c.fail(fmt.Errorf("proto client: write: %w", err))
		return err
	}
	return nil
}

// Wait flushes and blocks until every in-flight request has completed
// (its handler has returned). It then reports the connection's sticky
// error, if any — synthetic completions count as completed, so Wait
// returns even after a transport failure.
func (c *Client) Wait() error {
	// A failed flush has already synthesized completions for everything
	// in flight, so the token sweep below still terminates.
	c.Flush()
	for i := 0; i < c.win; i++ {
		<-c.tokens
	}
	for i := 0; i < c.win; i++ {
		c.tokens <- struct{}{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close flushes, closes the connection, and waits for the reader to
// deliver or synthesize every outstanding completion.
func (c *Client) Close() error {
	err := c.Wait()
	c.conn.Close()
	<-c.readerDone
	return err
}

// fail records the first transport error and synthesizes an error
// completion for every op still in flight, returning their window slots
// so Wait and blocked submits make progress.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	orphans := make([]uint64, 0, len(c.times))
	for id := range c.times {
		orphans = append(orphans, id)
	}
	stamps := make([]opTimes, len(orphans))
	for i, id := range orphans {
		stamps[i] = c.times[id]
		delete(c.times, id)
	}
	msg := c.err.Error()
	c.mu.Unlock()
	resp := proto.Response{Err: msg}
	for i, id := range orphans {
		resp.ID = id
		c.h(&resp, stamps[i].submitNS, stamps[i].sendNS)
		c.tokens <- struct{}{}
	}
}

// readLoop drains response frames and dispatches completions by id.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	fr := proto.NewFrameReader(bufio.NewReaderSize(c.conn, 64<<10))
	var resp proto.Response
	for {
		magic, payload, err := fr.Next()
		if err != nil {
			c.fail(fmt.Errorf("proto client: read: %w", err))
			return
		}
		if magic != proto.FrameResponse {
			c.fail(fmt.Errorf("proto client: request magic 0x%02x from server", magic))
			return
		}
		if err := proto.ParseResponse(payload, &resp); err != nil {
			c.fail(fmt.Errorf("proto client: parse: %w", err))
			return
		}
		c.mu.Lock()
		t, ok := c.times[resp.ID]
		delete(c.times, resp.ID)
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("proto client: response for unknown id %d", resp.ID))
			return
		}
		c.h(&resp, t.submitNS, t.sendNS)
		c.tokens <- struct{}{}
	}
}
