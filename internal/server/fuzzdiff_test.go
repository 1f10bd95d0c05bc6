package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
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
// (MGET/MSET) run as one binary frame but as individual JSON lines.
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

// diffOutcome is one op's observable result, protocol-independent.
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
func jsonOp(kind byte) string {
	switch kind {
	case 1, 4:
		return "put"
	case 2:
		return "del"
	default:
		return "get"
	}
}

// runJSON drives the ops over the JSON line protocol, one at a time,
// splitting multi groups into individual requests.
func runJSON(t testing.TB, conn net.Conn, ops []diffOp) []diffOutcome {
	t.Helper()
	br := bufio.NewReader(conn)
	var out []diffOutcome
	for _, op := range ops {
		for j := range op.keys {
			req := fmt.Sprintf("{\"op\":%q,\"key\":%q,\"value\":%q}\n",
				jsonOp(op.kind), diffKey(op.keys[j]), diffVal(op.vals[j]))
			if op.kind != 1 && op.kind != 4 {
				req = fmt.Sprintf("{\"op\":%q,\"key\":%q}\n", jsonOp(op.kind), diffKey(op.keys[j]))
			}
			if _, err := conn.Write([]byte(req)); err != nil {
				t.Fatalf("json write: %v", err)
			}
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("json read: %v", err)
			}
			var resp proto.LineResponse
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatalf("json resp %q: %v", line, err)
			}
			out = append(out, diffOutcome{Found: resp.Found, Value: resp.Value, Err: resp.Error})
		}
	}
	return out
}

// runBinary drives the same ops over the pipelined binary protocol —
// multi groups as single MGET/MSET frames — and flattens responses back
// to per-op outcomes in submission order.
func runBinary(t testing.TB, conn net.Conn, ops []diffOp) []diffOutcome {
	t.Helper()
	var mu sync.Mutex
	byID := make(map[uint64][]diffOutcome)
	c, err := client.New(conn, client.Options{
		Window: 8,
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
			t.Fatalf("binary submit %d: %v", id, err)
		}
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("binary wait: %v", err)
	}
	var out []diffOutcome
	for id, op := range ops {
		outs := byID[uint64(id)]
		if len(outs) != len(op.keys) {
			t.Fatalf("binary op %d: %d outcomes for %d subops", id, len(outs), len(op.keys))
		}
		out = append(out, outs...)
	}
	return out
}

// FuzzProtoVsJSON is the differential fuzz over the two wire protocols:
// the same op stream runs through a JSON-line connection on one server
// and a pipelined binary connection on another (identical engine
// configs, checker on). Both must produce identical per-op outcomes,
// identical recovered-state fingerprints after a clean drain, and clean
// durable-linearizability verdicts. The GET read fast path is toggled
// independently per side from the input bytes, so the fuzzer also pins
// fast-vs-mailbox equivalence: a session with no pending writes must
// observe the same answers whichever path serves its reads. Crash
// instants are excluded by design — batching differences change
// simulated crash timing — so this target pins semantic equivalence of
// the transports, while the dlcheck fuzzer covers crashes.
func FuzzProtoVsJSON(f *testing.F) {
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
		// where only one transport serves reads from the index.
		var fold byte
		for _, b := range data {
			fold ^= b
		}

		js := newDiffServer(t, fold&1 != 0)
		jsonOut := runJSON(t, js.conn, ops)
		jsonFP := js.finish(t)

		bs := newDiffServer(t, fold&2 != 0)
		binOut := runBinary(t, bs.conn, ops)
		binFP := bs.finish(t)

		if len(jsonOut) != len(binOut) {
			t.Fatalf("outcome counts differ: json %d, binary %d", len(jsonOut), len(binOut))
		}
		for i := range jsonOut {
			if jsonOut[i] != binOut[i] {
				t.Fatalf("op %d diverged: json %+v, binary %+v", i, jsonOut[i], binOut[i])
			}
		}
		if jsonFP != binFP {
			t.Fatalf("recovered fingerprints diverged: json %.16s, binary %.16s", jsonFP, binFP)
		}
	})
}
