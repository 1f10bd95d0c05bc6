package server_test

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
	"persistbarriers/internal/proto/client"
	"persistbarriers/internal/server"
)

// testServer is a server serving in-process on a loopback listener.
type testServer struct {
	*server.Server
	addr   string
	served chan error // Serve's result
}

// startTestServer is the one way tests, benchmarks and the fuzzer get a
// server: built by server.New, serving on an ephemeral loopback port.
func startTestServer(tb testing.TB, cfg pmkv.ShardedConfig, opts server.Options) *testServer {
	tb.Helper()
	s, err := server.New(cfg, opts)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	ts := &testServer{Server: s, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { ts.served <- s.Serve(ln) }()
	return ts
}

// dial opens a client connection over loopback TCP.
func (ts *testServer) dial(tb testing.TB) net.Conn {
	tb.Helper()
	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		tb.Fatal(err)
	}
	return conn
}

// drain begins the drain, waits for Serve and Close, and returns the
// verified report; any failure or a drain that hangs fails the test.
func (ts *testServer) drain(tb testing.TB) *server.Report {
	tb.Helper()
	ts.BeginDrain()
	type closed struct {
		rep *server.Report
		err error
	}
	done := make(chan closed, 1)
	go func() {
		err := <-ts.served
		rep, cerr := ts.Close()
		if cerr != nil {
			err = cerr
		}
		done <- closed{rep, err}
	}()
	select {
	case c := <-done:
		if c.err != nil {
			tb.Fatalf("drain: %v", c.err)
		}
		return c.rep
	case <-time.After(30 * time.Second):
		tb.Fatal("server did not finish draining")
		return nil
	}
}

// TestBinaryProtocolRoundTrip drives pipelined puts/gets/dels through a
// live server and checks every response, then drains cleanly.
func TestBinaryProtocolRoundTrip(t *testing.T) {
	ts := startTestServer(t, pmkv.ShardedConfig{Shards: 2}, server.Options{Window: 16})
	conn := ts.dial(t)
	type reply struct {
		errMsg  string
		results []proto.Result
	}
	var mu sync.Mutex
	replies := make(map[uint64]reply)
	c, err := client.New(conn, client.Options{
		Window: 16,
		OnComplete: func(resp *proto.Response, _, _ int64) {
			r := reply{errMsg: resp.Err}
			for _, res := range resp.Results {
				res.Value = append([]byte(nil), res.Value...)
				r.results = append(r.results, res)
			}
			mu.Lock()
			replies[resp.ID] = r
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 40
	id := uint64(0)
	for i := 0; i < n; i++ {
		if err := c.Put(id, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		id++
	}
	getBase := id
	for i := 0; i < n; i++ {
		if err := c.Get(id, []byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
		id++
	}
	missID := id
	if err := c.Get(id, []byte("no-such")); err != nil {
		t.Fatal(err)
	}
	id++
	delID := id
	if err := c.Del(id, []byte("k0")); err != nil {
		t.Fatal(err)
	}
	id++
	badID := id
	if err := c.Get(id, []byte("")); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	mu.Lock()
	for i := 0; i < n; i++ {
		r := replies[getBase+uint64(i)]
		if r.errMsg != "" || len(r.results) != 1 || !r.results[0].Found ||
			string(r.results[0].Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get k%d: %+v", i, r)
		}
	}
	if r := replies[missID]; r.errMsg != "" || len(r.results) != 1 || r.results[0].Found {
		t.Fatalf("get no-such: %+v", r)
	}
	if r := replies[delID]; r.errMsg != "" || !r.results[0].Found {
		t.Fatalf("del: %+v", r)
	}
	if r := replies[badID]; !strings.Contains(r.errMsg, "missing key") {
		t.Fatalf("empty-key reply: %+v (want missing key error)", r)
	}
	mu.Unlock()

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ts.drain(t)
}

// TestNonFrameConnectionClosed: a connection that does not open with a
// request frame it can parse — a JSON object, or a well-framed request
// with the retired MGET (4) or MSET (5) opcode — is closed with no reply
// and nothing applied, while a binary connection on the same server is
// served, and the drain is clean.
func TestNonFrameConnectionClosed(t *testing.T) {
	ts := startTestServer(t, pmkv.ShardedConfig{Shards: 1}, server.Options{Window: 8})

	// retired frames a one-op request under opcode op: id 1, then the
	// op count, key and (for MSET) value the retired bodies carried.
	retired := func(op byte) []byte {
		payload := binary.LittleEndian.AppendUint64(nil, 1)
		payload = append(payload, op, 1, 0, 6, 0)
		payload = append(payload, "shared"...)
		if op == 5 {
			payload = append(payload, 1, 0, 0, 0, 'v')
		}
		frame := binary.LittleEndian.AppendUint32([]byte{proto.FrameRequest}, uint32(len(payload)))
		return append(frame, payload...)
	}
	for _, tc := range []struct {
		name  string
		input []byte
	}{
		{"json", []byte("{\"op\":\"put\",\"key\":\"shared\",\"value\":\"v\"}\n")},
		{"mget opcode", retired(4)},
		{"mset opcode", retired(5)},
	} {
		jc := ts.dial(t)
		if _, err := jc.Write(tc.input); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		jc.SetReadDeadline(time.Now().Add(5 * time.Second))
		// Closed is EOF, or a reset if the close beat the server's read of
		// the whole input; a timeout means the server kept the connection.
		n, err := jc.Read(make([]byte, 64))
		var ne net.Error
		if n != 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s: read %d bytes, %v; want closed with no reply", tc.name, n, err)
		}
		jc.Close()
	}

	got := make(chan string, 2)
	c, err := client.New(ts.dial(t), client.Options{
		Window: 8,
		OnComplete: func(resp *proto.Response, _, _ int64) {
			switch {
			case resp.Err != "":
				got <- "error: " + resp.Err
			case resp.ID == 2:
				got <- fmt.Sprintf("found=%v", resp.Results[0].Found)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, []byte("other"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Get(2, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != "found=false" {
		t.Fatalf("binary get of the closed connections' key = %q, want not found", v)
	}
	c.Close()

	if rep := ts.drain(t); rep.Crashed || rep.Shards[0].TotalPublishes != 1 {
		t.Fatalf("drain: crashed %v, %d publishes; want clean with the binary put alone", rep.Crashed, rep.Shards[0].TotalPublishes)
	}
}

// TestDrainWithStalledPipelinedClient is the PR 3 drain-unblock
// regression extended to the binary path: a client with a full pipeline
// of in-flight writes stops reading responses entirely; the drain must
// still complete (write deadline flips the writer to discard mode,
// completions keep recycling the window, the reader unblocks via read
// deadline) with the store's invariants intact.
func TestDrainWithStalledPipelinedClient(t *testing.T) {
	ts := startTestServer(t, pmkv.ShardedConfig{Shards: 2},
		server.Options{Window: 8, WriteTimeout: 200 * time.Millisecond})

	// Seed a value big enough that a handful of pipelined GET responses
	// overflow any socket buffer, wedging the server's writer mid-flush.
	seed := ts.dial(t)
	big := make([]byte, 512<<10)
	for i := range big {
		big[i] = byte(i)
	}
	sc, err := client.New(seed, client.Options{Window: 2, OnComplete: func(*proto.Response, int64, int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Put(1, []byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	conn := ts.dial(t)
	// Raw frames, bypassing the client library: pipeline GETs for the big
	// value and never read a single response byte.
	var buf []byte
	for i := 0; i < 64; i++ {
		buf = proto.AppendGet(buf, uint64(i), []byte("big"))
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to dispatch and wedge its writer (64 x
	// 512KB of responses cannot fit any socket buffer), then drain. The
	// server must not wait on us.
	time.Sleep(300 * time.Millisecond)
	ts.drain(t)
	conn.Close()
}

// TestMaxConnsLimit: connections beyond -maxconns are refused (closed
// immediately), and slots free up when a connection ends.
func TestMaxConnsLimit(t *testing.T) {
	ts := startTestServer(t, pmkv.ShardedConfig{Shards: 1},
		server.Options{Window: 4, MaxConns: 2})
	dial := func() net.Conn { return ts.dial(t) }
	// ping proves the server kept the connection: a refused conn is
	// closed without a response.
	ping := func(c net.Conn, want bool) bool {
		t.Helper()
		c.Write(proto.AppendGet(nil, 1, []byte("x")))
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, _, err := proto.NewFrameReader(bufio.NewReader(c)).Next()
		return (err == nil) == want
	}

	c1, c2 := dial(), dial()
	if !ping(c1, true) || !ping(c2, true) {
		t.Fatal("connections under the limit were not served")
	}
	// The third connection must be refused. Acceptance races tracking, so
	// allow the refusal to surface on the first read.
	c3 := dial()
	if !ping(c3, false) {
		t.Fatal("connection beyond -maxconns was served")
	}
	c3.Close()
	// Freeing a slot readmits new connections.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	admitted := false
	for time.Now().Before(deadline) {
		c4 := dial()
		if ping(c4, true) {
			admitted = true
			c4.Close()
			break
		}
		c4.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !admitted {
		t.Fatal("slot was not freed after a connection closed")
	}
	c2.Close()

	ts.drain(t)
}

// TestReadIdleTimeout: with -conn-timeout set, a silent connection is
// dropped and the server can drain without waiting on it.
func TestReadIdleTimeout(t *testing.T) {
	ts := startTestServer(t, pmkv.ShardedConfig{Shards: 1},
		server.Options{Window: 4, ConnTimeout: 150 * time.Millisecond})

	conn := ts.dial(t)
	// Say nothing. The server should hang up on us.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection was not dropped")
	}
	conn.Close()

	ts.drain(t)
}
