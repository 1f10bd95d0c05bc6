// Deterministic scripted driver: a Script routed through the shard router
// into each shard's steps, which that shard's worker takes as its live
// loop would, and each shard then ended through closeShard, as
// ShardedStore.Close ends a live shard. Shard engines never observe each
// other's timing, so running them on parallel goroutines (or under any
// sweep -j setting) yields the same per-shard fingerprints as running them
// serially. A single-shard run feeds shard 0 every op of every batch — the
// batch sequence the 201 fingerprints in testdata/fpdump.golden were
// captured from.
package pmkv

import (
	"fmt"
	"sync"
)

// ScriptedOp is one scripted request: the session that issues it, the op,
// its key and, for a Put, its value.
type ScriptedOp struct {
	Sess  int
	Op    Op
	Key   string
	Value []byte
}

// Script is a materialised load, one batch per round. Each shard's worker
// runs a round as Submit, Pump, one Gap and Poll (Script.steps), so a
// batch is one commit window.
type Script [][]ScriptedOp

// sessions is the number of sessions the script names: one past the
// highest session index any op carries.
func (s Script) sessions() int {
	n := 0
	for _, batch := range s {
		for _, op := range batch {
			n = max(n, op.Sess+1)
		}
	}
	return n
}

// stepKind names what a shard worker does to its engine. The live loop, a
// script and benchmark/engine.go's loop are all words over these four.
type stepKind uint8

const (
	stepSubmit stepKind = iota // SubmitAppend: translate and feed a batch
	stepPump                   // PumpRetire: close the window, run until it retired
	stepGap                    // background persists, until the oldest batch is durable
	stepPoll                   // durableWatermark, then ack what it covers
)

type step struct {
	kind  stepKind
	batch []ScriptedOp // stepSubmit
}

// steps splits the script into each shard's steps: per round, a Submit of
// the round's ops the shard owns, Pump, one Gap and Poll. A round with no
// op routed to a shard still pumps and gaps there, so every shard's clock
// advances through the same per-round cadence and crash instants land in
// comparable execution phases across shards.
func (s Script) steps(shards int) [][]step {
	out := make([][]step, shards)
	for _, batch := range s {
		owned := [][]ScriptedOp{batch}
		if shards > 1 {
			owned = make([][]ScriptedOp, shards)
			for _, op := range batch {
				i := ShardOf(op.Key, shards)
				owned[i] = append(owned[i], op)
			}
		}
		for i := range out {
			out[i] = append(out[i], step{kind: stepSubmit, batch: owned[i]}, step{kind: stepPump}, step{kind: stepGap}, step{kind: stepPoll})
		}
	}
	return out
}

// RunShardedScript drives fresh shard engines through the script. The
// crash instant (cfg.Engine.CrashAt) fans out: every shard loses power at
// that cycle of its own clock; shards that finish the script first simply
// drain clean. Each shard is closed, verified, and its recovered state
// reconstructed; the per-shard results are returned in shard order, and
// the error is the lowest-numbered shard's.
func RunShardedScript(cfg ShardedConfig, script Script) ([]ShardResult, error) {
	s, err := newStore(cfg, nil)
	if err != nil {
		return nil, err
	}
	return s.run(script.steps(len(s.shards)), script.sessions())
}

// run has every shard's worker take its steps, then ends each shard.
// Sessions are opened first, in order, so every shard binds session i to
// the same core slot a single engine would.
func (s *ShardedStore) run(steps [][]step, sessions int) ([]ShardResult, error) {
	sess := make([]*ShardedSession, sessions)
	for i := range sess {
		sess[i] = s.NewSession()
	}
	results := make([]ShardResult, len(s.shards))
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &shardWorker{s: s, sh: sh}
			if err := w.runSteps(steps[sh.id], sess); err != nil {
				results[sh.id] = ShardResult{Shard: sh.id, SimCycles: sh.stepCycles(), Err: err}
				return
			}
			results[sh.id] = closeShard(sh)
			results[sh.id].history = w.history
		}()
	}
	wg.Wait()
	return results, firstErr(results)
}

// clientOp is one scripted request as its client saw it: what it asked,
// the step it was submitted at (inv) and the step after which its
// completion had arrived (ret), and the completion itself.
type clientOp struct {
	op       ScriptedOp
	inv, ret int
	ack      ShardAck
}

// runSteps is the worker taking its steps from a script. After a crash
// every later batch is refused, as the live worker refuses what reaches
// it then; what is still in flight when the script ends is acked as at
// shutdown, since Close's drain persists it before the recovery snapshot.
// The script's requests are the worker's clients: each must complete
// exactly once, and an engine error one receives fails the run. What each
// was told, and when, is kept in w.history, in submission order.
func (w *shardWorker) runSteps(steps []step, sessions []*ShardedSession) error {
	ops := 0
	for _, st := range steps {
		ops += len(st.batch)
	}
	// Room for every completion twice over: a duplicate must land in the
	// queue, not wedge the worker.
	done := make(chan Completion, 2*ops)
	completed := make([]int, ops)
	var err error
	collect := func(at int) {
		for len(done) > 0 {
			c := <-done
			if completed[c.Tag]++; completed[c.Tag] == 1 {
				w.history[c.Tag].ret, w.history[c.Tag].ack = at, c.Ack
			}
			if e := c.Ack.Err; e != nil && e != ErrCrashed && err == nil {
				err = fmt.Errorf("pmkv: scripted request %d: %w", c.Tag, e)
			}
		}
	}
	w.history = make([]clientOp, 0, ops)
	for at, st := range steps {
		switch st.kind {
		case stepSubmit:
			if len(st.batch) == 0 {
				continue
			}
			jobs := w.jobs.take(len(st.batch))
			for _, op := range st.batch {
				req := Request{Sess: sessions[op.Sess].per[w.sh.id], Op: op.Op, Key: op.Key, Value: op.Value}
				jobs = append(jobs, shardJob{req: req, done: done, tag: uint64(len(w.history))})
				w.history = append(w.history, clientOp{op: op, inv: at})
			}
			w.submit(jobs)
		case stepPump:
			w.pump()
		case stepGap:
			w.gap()
		case stepPoll:
			w.poll()
		}
		collect(at)
	}
	w.ackOldest(len(w.pending), ShardAck{Durable: w.sh.eng.committed()})
	collect(len(steps))
	for i, n := range completed {
		if n != 1 {
			return fmt.Errorf("pmkv: scripted request %d completed %d times", i, n)
		}
	}
	return err
}
