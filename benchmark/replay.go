package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
)

// In-process replay: the ops a kv-* workload generates, put through one
// layer at a time with nothing else running — the wire codec alone, then
// the sharded store alone. Their costs, subtracted from what the live
// client saw, are what the server and the wire add (server.overhead_us).

// replayOps interleaves the connections' streams the way the live run
// issues them, n ops in all.
func replayOps(workload string, seed uint64, mix kvMix, n int) []kvOp {
	streams := make([]*kvStream, kvConns)
	for i := range streams {
		streams[i] = newKVStream(workload, seed, i, kvConns, mix, true)
	}
	ops := make([]kvOp, n)
	for i := range ops {
		ops[i] = streams[i%kvConns].next()
	}
	return ops
}

// replayChunk is how many ops one replay span covers; a span per op
// would cost more than the calls it times.
const replayChunk = 1000

func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// protoReplay encodes every request, decodes it as the server would,
// encodes the reply the server would send and decodes that as the client
// would, timing the four steps separately.
func protoReplay(ms metricSet, ops []kvOp, keys [][]byte, tr *tracer) error {
	n := len(ops)
	root := tr.begin("replay.proto", -1, -1)
	m0, _ := mallocs()

	var encReq, decReq, encResp, decResp time.Duration
	var wire int
	var val, reqBuf, respBuf []byte
	var req proto.Request
	var resp proto.Response
	reply := proto.Response{OK: true, Results: make([]proto.Result, 1)}
	var rtErr error
	timed := func(name string, at int, acc *time.Duration, f func()) {
		s := tr.begin(name, root, int64(at))
		t0 := time.Now()
		f()
		*acc += time.Since(t0)
		tr.end(s)
	}
	for at := 0; at < n; at += replayChunk {
		chunk := ops[at:min(at+replayChunk, n)]

		reqBuf = reqBuf[:0]
		timed("proto.enc_req", at, &encReq, func() {
			for i, op := range chunk {
				id := uint64(at + i)
				switch op.Kind {
				case opGet:
					reqBuf = proto.AppendGet(reqBuf, id, keys[op.Key])
				case opPut:
					val = appendValue(val[:0], op.Key, op.Ver)
					reqBuf = proto.AppendPut(reqBuf, id, keys[op.Key], val)
				default:
					reqBuf = proto.AppendDel(reqBuf, id, keys[op.Key])
				}
			}
		})
		wire += len(reqBuf)

		fr := proto.NewFrameReader(bufio.NewReader(bytes.NewReader(reqBuf)))
		timed("proto.dec_req", at, &decReq, func() {
			for range chunk {
				_, payload, err := fr.Next()
				if err == nil {
					err = proto.ParseRequest(payload, &req)
				}
				if err != nil && rtErr == nil {
					rtErr = fmt.Errorf("request did not round-trip: %w", err)
				}
			}
		})

		// The reply pmkvd sends: GETs and PUTs carry the value, DELs only
		// the found bit.
		respBuf = respBuf[:0]
		timed("proto.enc_resp", at, &encResp, func() {
			for i, op := range chunk {
				reply.ID = uint64(at + i)
				r := &reply.Results[0]
				*r = proto.Result{Found: op.Kind != opGet || op.Ver != 0}
				if op.Kind != opDel && r.Found {
					val = appendValue(val[:0], op.Key, op.Ver)
					r.HasValue, r.Value = true, val
				}
				respBuf = proto.AppendResponse(respBuf, &reply)
			}
		})
		wire += len(respBuf)

		fr = proto.NewFrameReader(bufio.NewReader(bytes.NewReader(respBuf)))
		timed("proto.dec_resp", at, &decResp, func() {
			for range chunk {
				_, payload, err := fr.Next()
				if err == nil {
					err = proto.ParseResponse(payload, &resp)
				}
				if err != nil && rtErr == nil {
					rtErr = fmt.Errorf("response did not round-trip: %w", err)
				}
			}
		})
	}
	m1, _ := mallocs()
	tr.end(root)

	per := func(d time.Duration) float64 { return float64(d) / float64(n) }
	ms["proto.enc_req_ns"] = per(encReq)
	ms["proto.dec_req_ns"] = per(decReq)
	ms["proto.enc_resp_ns"] = per(encResp)
	ms["proto.dec_resp_ns"] = per(decResp)
	ms["proto.allocs_per_op"] = float64(m1-m0) / float64(n)
	ms["proto.wire_bytes_per_op"] = float64(wire) / float64(n)
	return rtErr
}

// shardStoreConfig is the store pmkvd builds from serverFlags.
func shardStoreConfig() pmkv.ShardedConfig {
	mc := pmkv.SmallMachine()
	mc.Cores = 4
	return pmkv.ShardedConfig{Shards: 2, Engine: pmkv.Config{Machine: mc, Buckets: 64}}
}

// shardTotals sums the store's read-path and batching counters.
func shardTotals(store *pmkv.ShardedStore) (hits, falls, batches, batchOps float64) {
	for _, m := range store.Metrics() {
		hits += float64(m.FastHits)
		falls += float64(m.FastFallbacks)
		batches += float64(m.Batches)
		batchOps += m.AvgBatch * float64(m.Batches)
	}
	return
}

// shardReplay drives a ShardedStore directly from one goroutine, two
// sessions of window 64 like the live connections, and checks every GET.
// It returns the all-op median latency in us and any mismatches.
func shardReplay(ms metricSet, ops []kvOp, keys [][]byte, tr *tracer) (float64, []string, error) {
	store, err := pmkv.NewSharded(shardStoreConfig())
	if err != nil {
		return 0, nil, err
	}
	sess := []*pmkv.ShardedSession{store.NewSession(), store.NewSession()}
	skeys := make([]string, len(keys))
	for i, k := range keys {
		skeys[i] = string(k)
	}
	done := make(chan pmkv.Completion, kvConns*kvWindow)
	var errs []string

	// Preload, outside the measurement.
	outstanding := 0
	for k := 0; k < keySpace; k++ {
		if outstanding == cap(done) {
			<-done
			outstanding--
		}
		if _, err := store.DoAsync(sess[k%kvConns], pmkv.Put, skeys[k], appendValue(nil, uint32(k), 1), nil, 0, done); err != nil {
			return 0, nil, err
		}
		outstanding++
	}
	for ; outstanding > 0; outstanding-- {
		<-done
	}

	hits0, falls0, batches0, batchOps0 := shardTotals(store)
	root := tr.begin("replay.shard", -1, -1)
	issuedAt := make([]int64, len(ops))
	var getUS, putUS, allUS []float64
	inflight := [kvConns]int{}
	depthMax := 0
	reap := func(c pmkv.Completion) {
		i := int(c.Tag)
		us := float64(time.Now().UnixNano()-issuedAt[i]) / 1e3
		op := ops[i]
		inflight[i%kvConns]--
		allUS = append(allUS, us)
		switch {
		case c.Ack.Err != nil:
			errs = append(errs, fmt.Sprintf("op %d: %v", i, c.Ack.Err))
		case c.Ack.Crashed:
			errs = append(errs, fmt.Sprintf("op %d: crashed", i))
		case op.Kind == opGet:
			getUS = append(getUS, us)
			if err := checkGet(op, c.Ack.Resp.Found, c.Ack.Resp.Value); err != nil {
				errs = append(errs, err.Error())
			}
		default:
			putUS = append(putUS, us)
		}
	}
	m0, _ := mallocs()
	t0 := time.Now()
	chunkSpan := -1
	for i, op := range ops {
		if i%replayChunk == 0 {
			tr.end(chunkSpan)
			chunkSpan = tr.begin("shard.do_async", root, int64(i))
		}
		if i%4096 == 0 {
			for _, m := range store.Metrics() {
				depthMax = max(depthMax, m.QueueDepth)
			}
		}
		s := i % kvConns
		for inflight[s] == kvWindow {
			reap(<-done)
		}
		kind, val := pmkv.Get, []byte(nil)
		switch op.Kind {
		case opPut:
			kind, val = pmkv.Put, appendValue(nil, op.Key, op.Ver)
		case opDel:
			kind = pmkv.Delete
		}
		issuedAt[i] = time.Now().UnixNano()
		inflight[s]++
		if _, err := store.DoAsync(sess[s], kind, skeys[op.Key], val, nil, uint64(i), done); err != nil {
			return 0, nil, err
		}
		// Take what has already completed, so latency is read close to
		// when the ack arrived rather than when the window next fills.
		for more := true; more; {
			select {
			case c := <-done:
				reap(c)
			default:
				more = false
			}
		}
	}
	for inflight[0]+inflight[1] > 0 {
		reap(<-done)
	}
	wall := time.Since(t0)
	tr.end(chunkSpan)
	m1, _ := mallocs()
	tr.end(root)

	hits, falls, batches, batchOps := shardTotals(store)
	hits, falls, batches, batchOps = hits-hits0, falls-falls0, batches-batches0, batchOps-batchOps0
	s := tr.begin("shard.close", -1, -1)
	results, err := store.Close()
	tr.end(s)
	if err != nil {
		errs = append(errs, "store close: "+err.Error())
	}
	for _, r := range results {
		if r.Report != nil && r.Report.DurablePublishes != r.Report.TotalPublishes {
			errs = append(errs, fmt.Sprintf("shard %d: %d of %d publishes durable after a clean close", r.Shard, r.Report.DurablePublishes, r.Report.TotalPublishes))
		}
	}

	sort.Float64s(getUS)
	sort.Float64s(putUS)
	sort.Float64s(allUS)
	n := float64(len(ops))
	ms["shard.ops_per_s"] = n / wall.Seconds()
	ms["shard.get_p50_us"] = percentile(getUS, 50)
	ms["shard.put_p50_us"] = percentile(putUS, 50)
	ms["shard.fast_hit_frac"] = ratio(hits, hits+falls)
	ms["shard.avg_batch"] = ratio(batchOps, batches)
	ms["shard.batches"] = batches
	ms["shard.queue_depth_max"] = float64(depthMax)
	ms["shard.allocs_per_op"] = float64(m1-m0) / n
	if len(errs) > 5 {
		errs = append(errs[:5], fmt.Sprintf("... and %d more", len(errs)-5))
	}
	return percentile(allUS, 50), errs, nil
}
