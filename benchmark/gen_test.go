package main

import (
	"bytes"
	"math"
	"testing"
)

func TestStreamIsPureFunctionOfWorkloadSeedConn(t *testing.T) {
	gen := func(workload string, seed uint64, conn int, mix kvMix) []byte {
		return encodeOps(newKVStream(workload, seed, conn, kvConns, mix, true).take(5000))
	}
	for _, mix := range []kvMix{mixWrite, mixRead, mixPaced} {
		a, b := gen("kv-write", 7, 0, mix), gen("kv-write", 7, 0, mix)
		if !bytes.Equal(a, b) {
			t.Fatalf("mix %+v: same (workload, seed, conn) gave different streams", mix)
		}
		for name, other := range map[string][]byte{
			"seed":     gen("kv-write", 8, 0, mix),
			"conn":     gen("kv-write", 7, 1, mix),
			"workload": gen("kv-read", 7, 0, mix),
		} {
			if bytes.Equal(a, other) {
				t.Errorf("mix %+v: changing the %s did not change the stream", mix, name)
			}
		}
	}
	// The engine script is the same function with four owners.
	a, b := engineScript(3, 4000), engineScript(3, 4000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("engine script differs at op %d for one seed", i)
		}
	}
}

// TestStreamExpectationsMatchAModel replays a stream against a plain map
// and requires every GET's expected version to be what the map holds: the
// generator's bookkeeping is what the live checks trust.
func TestStreamExpectationsMatchAModel(t *testing.T) {
	for conn := 0; conn < kvConns; conn++ {
		s := newKVStream("kv-paced", 11, conn, kvConns, mixPaced, true)
		model := map[uint32]uint32{}
		for k := conn; k < keySpace; k += kvConns {
			model[uint32(k)] = 1
		}
		seen := map[[2]uint32]bool{}
		var gets, puts, dels int
		for i := 0; i < 50_000; i++ {
			op := s.next()
			if int(op.Key)%kvConns != conn {
				t.Fatalf("conn %d issued key %d, which it does not own", conn, op.Key)
			}
			switch op.Kind {
			case opGet:
				gets++
				if op.Ver != model[op.Key] {
					t.Fatalf("op %d: get key %d expects version %d, model holds %d", i, op.Key, op.Ver, model[op.Key])
				}
			case opPut:
				puts++
				if seen[[2]uint32{op.Key, op.Ver}] || op.Ver <= 1 {
					t.Fatalf("op %d: put key %d reuses version %d", i, op.Key, op.Ver)
				}
				seen[[2]uint32{op.Key, op.Ver}] = true
				model[op.Key] = op.Ver
			case opDel:
				dels++
				model[op.Key] = 0
			}
		}
		total := float64(gets + puts + dels)
		for name, got := range map[string][2]float64{
			"get": {float64(gets) / total, 0.70}, "put": {float64(puts) / total, 0.25}, "del": {float64(dels) / total, 0.05},
		} {
			if math.Abs(got[0]-got[1]) > 0.01 {
				t.Errorf("conn %d: %s share %.3f, want %.2f", conn, name, got[0], got[1])
			}
		}
	}
}

func TestZipfIsSkewedAndUniformIsNot(t *testing.T) {
	count := func(mix kvMix) (top float64) {
		s := newKVStream("kv-read", 5, 0, kvConns, mix, true)
		hits := make([]int, keySpace)
		const n = 100_000
		for i := 0; i < n; i++ {
			hits[s.next().Key]++
		}
		return float64(hits[0]) / n // rank 0 of conn 0 is key 0
	}
	if top := count(mixRead); top < 0.15 {
		t.Errorf("Zipf 1.2: hottest key drew %.3f of ops, want a clear head (>= 0.15)", top)
	}
	if top := count(mixWrite); top > 0.005 {
		t.Errorf("uniform: key 0 drew %.4f of ops, want about 1/%d", top, keySpace/kvConns)
	}
}

func TestValueRoundTripAndPlantedCorruption(t *testing.T) {
	val := appendValue(nil, 1234, 56)
	if len(val) != valueBytes || len(appendKey(nil, 1234)) != keyBytes {
		t.Fatalf("sizes: value %d key %d", len(val), len(appendKey(nil, 1234)))
	}
	get := kvOp{Kind: opGet, Key: 1234, Ver: 56}
	if err := checkGet(get, true, val); err != nil {
		t.Fatalf("clean value rejected: %v", err)
	}
	planted := map[string]func() (kvOp, bool, []byte){
		"another key's value":      func() (kvOp, bool, []byte) { return get, true, appendValue(nil, 1235, 56) },
		"an older version":         func() (kvOp, bool, []byte) { return get, true, appendValue(nil, 1234, 55) },
		"a version never issued":   func() (kvOp, bool, []byte) { return get, true, appendValue(nil, 1234, 0) },
		"a key outside the space":  func() (kvOp, bool, []byte) { return get, true, appendValue(nil, keySpace, 56) },
		"a truncated value":        func() (kvOp, bool, []byte) { return get, true, val[:40] },
		"a flipped filler byte":    func() (kvOp, bool, []byte) { v := append([]byte(nil), val...); v[40] ^= 1; return get, true, v },
		"stale bytes, new version": func() (kvOp, bool, []byte) { v := appendValue(nil, 1234, 55); v[8] = 56; return get, true, v },
		"not found but live":       func() (kvOp, bool, []byte) { return get, false, nil },
		"found but deleted":        func() (kvOp, bool, []byte) { return kvOp{Kind: opGet, Key: 1234}, true, val },
	}
	for name, plant := range planted {
		op, found, v := plant()
		if err := checkGet(op, found, v); err == nil {
			t.Errorf("checkGet accepted %s", name)
		}
	}
	if err := checkGet(kvOp{Kind: opGet, Key: 9}, false, nil); err != nil {
		t.Errorf("not-found for a deleted key rejected: %v", err)
	}
}
