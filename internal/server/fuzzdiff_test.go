package server_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
	"persistbarriers/internal/proto/client"
	"persistbarriers/internal/server"
)

// diffOp is one single-op request of a differential-fuzz case.
type diffOp struct {
	kind byte // 0 get, 1 put, 2 del
	key  int
	val  int
}

// decodeDiffCase is a total decoder from fuzz bytes to a bounded op
// stream over a small keyspace: every input is a valid case, so the
// fuzzer explores semantics rather than parse failures. Each 3-byte
// group is one op, or for kinds 3 and 4 a run of up to maxRun GETs or
// PUTs over consecutive keys.
func decodeDiffCase(data []byte) []diffOp {
	const (
		maxGroups = 24
		keyspace  = 8
		valspace  = 16
		maxRun    = 4
	)
	var ops []diffOp
	for i, g := 0, 0; i+2 < len(data) && g < maxGroups; i, g = i+3, g+1 {
		kind, n := data[i]%5, 1
		if kind >= 3 {
			kind, n = kind-3, 1+int(data[i+1]>>4)%maxRun
		}
		for j := 0; j < n; j++ {
			ops = append(ops, diffOp{kind: kind, key: (int(data[i+1]) + j) % keyspace, val: (int(data[i+2]) + j) % valspace})
		}
	}
	return ops
}

// diffOutcome is one op's observable result.
type diffOutcome struct {
	Found bool
	Value string
	Err   string
}

// diffServer is one in-process server and the client end of a net.Pipe
// connection handed to its ServeConn, so the fuzzed ops cross no socket.
type diffServer struct {
	ts   *testServer
	conn net.Conn
}

func newDiffServer(t testing.TB, disableFast bool) *diffServer {
	t.Helper()
	ts := startTestServer(t, pmkv.ShardedConfig{
		Shards:          2,
		Engine:          pmkv.Config{Machine: pmkv.SmallMachine(), Buckets: 16, Check: true},
		MaxBatch:        8,
		DisableReadFast: disableFast,
	}, server.Options{Window: 8})
	sc, cc := net.Pipe()
	ts.ServeConn(sc)
	return &diffServer{ts: ts, conn: cc}
}

// finish drains the server and returns the combined recovered-state
// fingerprint, failing the test on any invariant or checker violation.
func (d *diffServer) finish(t testing.TB) string {
	t.Helper()
	d.conn.Close()
	rep := d.ts.drain(t)
	if rep.DL == nil {
		t.Fatal("checker was on but no verdict")
	}
	if err := rep.DL.Err(); err != nil {
		t.Fatalf("durable linearizability: %v", err)
	}
	return rep.Fingerprint
}

func diffKey(i int) string { return fmt.Sprintf("k%d", i) }
func diffVal(i int) string { return fmt.Sprintf("v%d", i) }

// runFrames drives ops through one client connection with window frames
// in flight and returns their outcomes in submission order.
func runFrames(t testing.TB, conn net.Conn, ops []diffOp, window int) []diffOutcome {
	t.Helper()
	var mu sync.Mutex
	byID := make(map[uint64]diffOutcome)
	c, err := client.New(conn, client.Options{
		Window: window,
		OnComplete: func(resp *proto.Response, _, _ int64) {
			out := diffOutcome{Err: resp.Err}
			if resp.Err == "" {
				out.Found, out.Value = resp.Results[0].Found, string(resp.Results[0].Value)
			}
			mu.Lock()
			byID[resp.ID] = out
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, op := range ops {
		key := []byte(diffKey(op.key))
		var err error
		switch op.kind {
		case 0:
			err = c.Get(uint64(id), key)
		case 1:
			err = c.Put(uint64(id), key, []byte(diffVal(op.val)))
		case 2:
			err = c.Del(uint64(id), key)
		}
		if err != nil {
			t.Fatalf("window %d: submit %d: %v", window, id, err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("window %d: wait: %v", window, err)
	}
	out := make([]diffOutcome, len(ops))
	for id := range ops {
		o, ok := byID[uint64(id)]
		if !ok {
			t.Fatalf("window %d: op %d: no response", window, id)
		}
		out[id] = o
	}
	return out
}

// FuzzPipelinedVsSerial is the differential fuzz over how a connection
// pipelines its ops: the same op stream runs through a one-in-flight
// connection (window 1) on one server and a pipelined connection of up
// to 8 frames in flight on another (identical engine configs, checker
// on). Both must produce identical per-op outcomes,
// identical recovered-state fingerprints after a clean drain, and clean
// durable-linearizability verdicts. The GET read fast path is toggled
// independently per side from the input bytes, so the fuzzer also pins
// fast-vs-mailbox equivalence: a session with no pending writes must
// observe the same answers whichever path serves its reads. Crash
// instants are excluded by design — batching differences change
// simulated crash timing — so this target pins semantic equivalence of
// serial and pipelined submission, while the dlcheck fuzzer covers crashes.
func FuzzPipelinedVsSerial(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0})                            // put k0; get k0
	f.Add([]byte{4, 0x35, 7, 3, 0x21, 1, 2, 0, 0})             // put run; get run; del
	f.Add([]byte{1, 1, 1, 1, 1, 2, 2, 1, 0, 0, 1, 0})          // overwrite then delete then read
	f.Add(bytes.Repeat([]byte{3, 0x75, 9}, 8))                 // get-run storm
	f.Add([]byte{0, 3, 0, 1, 3, 3, 0, 3, 0, 2, 3, 0, 0, 3, 0}) // read-heavy, toggles flipped
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeDiffCase(data)
		// Fold the input into per-side fast-path toggles: all four on/off
		// combinations appear across the corpus, including asymmetric ones
		// where only one side serves reads from the index.
		var fold byte
		for _, b := range data {
			fold ^= b
		}

		ss := newDiffServer(t, fold&1 != 0)
		serialOut := runFrames(t, ss.conn, ops, 1)
		serialFP := ss.finish(t)

		ps := newDiffServer(t, fold&2 != 0)
		pipeOut := runFrames(t, ps.conn, ops, 8)
		pipeFP := ps.finish(t)

		for i := range serialOut {
			if serialOut[i] != pipeOut[i] {
				t.Fatalf("op %d diverged: serial %+v, pipelined %+v", i, serialOut[i], pipeOut[i])
			}
		}
		if serialFP != pipeFP {
			t.Fatalf("recovered fingerprints diverged: serial %.16s, pipelined %.16s", serialFP, pipeFP)
		}
	})
}
