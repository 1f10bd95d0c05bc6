package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"persistbarriers/internal/proto"
)

// stubServer reads request frames off conn and answers them in batches,
// reversed — deliberately out of order — echoing each op's key as a
// found value. It exits, closing conn as pmkvd would, on a read or
// parse error.
func stubServer(t *testing.T, conn net.Conn, batch int) {
	t.Helper()
	defer conn.Close()
	fr := proto.NewFrameReader(bufio.NewReader(conn))
	var req proto.Request
	var pending []proto.Response
	var out []byte
	flush := func() {
		for i := len(pending) - 1; i >= 0; i-- {
			out = proto.AppendResponse(out[:0], &pending[i])
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
		pending = pending[:0]
	}
	for {
		magic, payload, err := fr.Next()
		if err != nil {
			flush()
			return
		}
		if magic != proto.FrameRequest {
			t.Errorf("stub server: magic 0x%02x", magic)
			return
		}
		if err := proto.ParseRequest(payload, &req); err != nil {
			t.Errorf("stub server: parse: %v", err)
			return
		}
		v := append([]byte(nil), req.Key...)
		resp := proto.Response{ID: req.ID, OK: true, Results: []proto.Result{{Found: true, HasValue: true, Value: v}}}
		pending = append(pending, resp)
		if len(pending) >= batch {
			flush()
		}
	}
}

// TestPipelinedOutOfOrder drives more ops than the window through a
// server that responds in reverse batch order: every completion must
// match its id, carry the right echoed value, and stamp submit<=send.
func TestPipelinedOutOfOrder(t *testing.T) {
	cc, sc := net.Pipe()
	go stubServer(t, sc, 4)

	type got struct {
		val       string
		err       string
		submit    int64
		send      int64
		completed int64
	}
	var mu sync.Mutex
	results := make(map[uint64]got)

	var c *Client
	var err error
	c, err = New(cc, Options{
		Window: 8,
		OnComplete: func(resp *proto.Response, submitNS, sendNS int64) {
			g := got{submit: submitNS, send: sendNS, completed: c.NowNS(), err: resp.Err}
			if resp.Err == "" {
				g.val = string(resp.Results[0].Value)
			}
			mu.Lock()
			results[resp.ID] = g
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const ops = 64
	for id := uint64(0); id < ops; id++ {
		key := []byte(fmt.Sprintf("key-%d", id))
		if err := c.Get(id, key); err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(results) != ops {
		t.Fatalf("completions: %d, want %d", len(results), ops)
	}
	for id := uint64(0); id < ops; id++ {
		g, ok := results[id]
		if !ok {
			t.Fatalf("id %d never completed", id)
		}
		if g.err != "" {
			t.Fatalf("id %d error: %s", id, g.err)
		}
		if want := fmt.Sprintf("key-%d", id); g.val != want {
			t.Fatalf("id %d value %q, want %q (out-of-order mismatch)", id, g.val, want)
		}
		if g.submit > g.send || g.send > g.completed {
			t.Fatalf("id %d timestamps out of order: submit=%d send=%d completed=%d", id, g.submit, g.send, g.completed)
		}
	}
	cc.Close()
}

// TestDuplicateIDRefused: reusing an in-flight id is a caller bug the
// client reports rather than silently corrupting response matching.
func TestDuplicateIDRefused(t *testing.T) {
	cc, sc := net.Pipe()
	// Server that never answers, keeping id 7 in flight.
	go func() {
		buf := make([]byte, 1024)
		for {
			if _, err := sc.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := New(cc, Options{Window: 4, OnComplete: func(*proto.Response, int64, int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Get(7, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := c.Get(7, []byte("k")); err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("duplicate id err = %v", err)
	}
	cc.Close()
	<-c.readerDone
}

// TestTransportFailureSynthesizesCompletions: when the connection dies
// with requests in flight, every one of them completes with an error
// response and Wait returns instead of deadlocking.
func TestTransportFailureSynthesizesCompletions(t *testing.T) {
	cc, sc := net.Pipe()
	// Server reads two frames, then drops the connection.
	ready := make(chan struct{})
	go func() {
		fr := proto.NewFrameReader(bufio.NewReader(sc))
		for i := 0; i < 2; i++ {
			if _, _, err := fr.Next(); err != nil {
				break
			}
		}
		sc.Close()
		close(ready)
	}()

	var mu sync.Mutex
	errs := make(map[uint64]string)
	c, err := New(cc, Options{
		Window: 4,
		OnComplete: func(resp *proto.Response, _, _ int64) {
			mu.Lock()
			errs[resp.ID] = resp.Err
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 2; id++ {
		if err := c.Put(id, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("Put(%d): %v", id, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	<-ready
	if err := c.Wait(); err == nil {
		t.Fatal("Wait returned nil after transport failure")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 2 {
		t.Fatalf("completions: %d, want 2", len(errs))
	}
	for id, e := range errs {
		if e == "" {
			t.Fatalf("id %d completed without error after connection loss", id)
		}
	}
	// The window is whole again: further submits fail fast, not hang.
	if err := c.Get(9, []byte("k")); err == nil {
		t.Fatal("submit after failure did not error")
	}
}

// TestWireLimitsRefused: a request the frame cannot carry — a key whose
// length wraps the u16 field, an oversized value — is refused before encoding, takes no window slot and leaves
// the connection in sync: a key of exactly MaxKey bytes still round-trips.
func TestWireLimitsRefused(t *testing.T) {
	cc, sc := net.Pipe()
	go stubServer(t, sc, 1)
	var mu sync.Mutex
	echoed := map[uint64]int{}
	c, err := New(cc, Options{
		Window: 1,
		OnComplete: func(resp *proto.Response, _, _ int64) {
			mu.Lock()
			defer mu.Unlock()
			if resp.Err != "" {
				t.Errorf("id %d: %s", resp.ID, resp.Err)
				return
			}
			echoed[resp.ID] = len(resp.Results[0].Value)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, proto.MaxKey+1)
	k, v := []byte("k"), []byte("v")
	for _, bad := range []struct {
		name string
		want error
		call func() error
	}{
		{"get long key", proto.ErrLimits, func() error { return c.Get(1, long) }},
		{"put long key", proto.ErrLimits, func() error { return c.Put(1, long, v) }},
		{"put long value", proto.ErrLimits, func() error { return c.Put(1, k, make([]byte, proto.MaxValue+1)) }},
		{"del long key", proto.ErrLimits, func() error { return c.Del(1, long) }},
	} {
		if err := bad.call(); !errors.Is(err, bad.want) {
			t.Errorf("%s: err %v, want %v", bad.name, err, bad.want)
		}
	}
	// The window holds one frame, so had any refusal taken the slot this
	// would block; had any been sent, the stub's parse would have failed.
	if err := c.Get(2, long[:proto.MaxKey]); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(echoed) != 1 || echoed[2] != proto.MaxKey {
		t.Fatalf("completions %v, want id 2 echoing a %d-byte key", echoed, proto.MaxKey)
	}
	cc.Close()
}
