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

// diffOp is one operation of a differential-fuzz case. Multi groups
// (MGET/MSET) run as one frame on the pipelined side but as single-op
// frames on the serial side.
type diffOp struct {
	kind byte // 0 get, 1 put, 2 del, 3 mget, 4 mset
	keys []int
	vals []int
}

// decodeDiffCase is a total decoder from fuzz bytes to a bounded op
// stream over a small keyspace: every input is a valid case, so the
// fuzzer explores semantics rather than parse failures.
func decodeDiffCase(data []byte) []diffOp {
	const (
		maxOps   = 24
		keyspace = 8
		valspace = 16
		maxMulti = 4
	)
	var ops []diffOp
	for i := 0; i+2 < len(data) && len(ops) < maxOps; i += 3 {
		op := diffOp{kind: data[i] % 5}
		n := 1
		if op.kind >= 3 {
			n = 1 + int(data[i+1]>>4)%maxMulti
		}
		for j := 0; j < n; j++ {
			op.keys = append(op.keys, (int(data[i+1])+j)%keyspace)
			op.vals = append(op.vals, (int(data[i+2])+j)%valspace)
		}
		ops = append(ops, op)
	}
	return ops
}

// diffOutcome is one op's observable result, however it was framed.
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

// serialize splits every multi group into single-op GETs or PUTs.
func serialize(ops []diffOp) []diffOp {
	var out []diffOp
	for _, op := range ops {
		kind := op.kind
		switch kind {
		case 3:
			kind = 0
		case 4:
			kind = 1
		}
		for j := range op.keys {
			out = append(out, diffOp{kind: kind, keys: op.keys[j : j+1], vals: op.vals[j : j+1]})
		}
	}
	return out
}

// runFrames drives ops through one client connection with window frames
// in flight, one frame per op, and flattens the responses back to
// per-key outcomes in submission order.
func runFrames(t testing.TB, conn net.Conn, ops []diffOp, window int) []diffOutcome {
	t.Helper()
	var mu sync.Mutex
	byID := make(map[uint64][]diffOutcome)
	c, err := client.New(conn, client.Options{
		Window: window,
		OnComplete: func(resp *proto.Response, _, _ int64) {
			var outs []diffOutcome
			if resp.Err != "" {
				outs = append(outs, diffOutcome{Err: resp.Err})
			} else {
				for _, r := range resp.Results {
					outs = append(outs, diffOutcome{Found: r.Found, Value: string(r.Value)})
				}
			}
			mu.Lock()
			byID[resp.ID] = outs
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, op := range ops {
		keys := make([][]byte, len(op.keys))
		vals := make([][]byte, len(op.keys))
		for j := range op.keys {
			keys[j] = []byte(diffKey(op.keys[j]))
			vals[j] = []byte(diffVal(op.vals[j]))
		}
		var err error
		switch op.kind {
		case 0:
			err = c.Get(uint64(id), keys[0])
		case 1:
			err = c.Put(uint64(id), keys[0], vals[0])
		case 2:
			err = c.Del(uint64(id), keys[0])
		case 3:
			err = c.MGet(uint64(id), keys)
		case 4:
			err = c.MSet(uint64(id), keys, vals)
		}
		if err != nil {
			t.Fatalf("window %d: submit %d: %v", window, id, err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("window %d: wait: %v", window, err)
	}
	var out []diffOutcome
	for id, op := range ops {
		outs := byID[uint64(id)]
		if len(outs) != len(op.keys) {
			t.Fatalf("window %d: op %d: %d outcomes for %d subops", window, id, len(outs), len(op.keys))
		}
		out = append(out, outs...)
	}
	return out
}

// FuzzPipelinedVsSerial is the differential fuzz over how a connection
// frames its ops: the same op stream runs through a one-in-flight
// connection of single-op frames on one server and a pipelined
// connection of up to 8 frames in flight, multi groups as MGET/MSET, on
// another (identical engine configs, checker on). Both must produce identical per-op outcomes,
// identical recovered-state fingerprints after a clean drain, and clean
// durable-linearizability verdicts. The GET read fast path is toggled
// independently per side from the input bytes, so the fuzzer also pins
// fast-vs-mailbox equivalence: a session with no pending writes must
// observe the same answers whichever path serves its reads. Crash
// instants are excluded by design — batching differences change
// simulated crash timing — so this target pins semantic equivalence of
// serial and pipelined framing, while the dlcheck fuzzer covers crashes.
func FuzzPipelinedVsSerial(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0})                            // put k0; get k0
	f.Add([]byte{4, 0x35, 7, 3, 0x21, 1, 2, 0, 0})             // mset; mget; del
	f.Add([]byte{1, 1, 1, 1, 1, 2, 2, 1, 0, 0, 1, 0})          // overwrite then delete then read
	f.Add(bytes.Repeat([]byte{3, 0x75, 9}, 8))                 // mget storm
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
		serialOut := runFrames(t, ss.conn, serialize(ops), 1)
		serialFP := ss.finish(t)

		ps := newDiffServer(t, fold&2 != 0)
		pipeOut := runFrames(t, ps.conn, ops, 8)
		pipeFP := ps.finish(t)

		if len(serialOut) != len(pipeOut) {
			t.Fatalf("outcome counts differ: serial %d, pipelined %d", len(serialOut), len(pipeOut))
		}
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
