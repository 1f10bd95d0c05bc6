// Deterministic scripted driver: a Script routed through the shard router,
// with each shard's engine driven batch by batch and then ended through
// closeShard, as ShardedStore.Close ends a live shard. Shard engines never
// observe each other's timing, so running them on parallel goroutines (or
// under any sweep -j setting) yields the same per-shard fingerprints as
// running them serially. A single-shard run feeds shard 0 every op of
// every batch — the batch sequence the 201 fingerprints in
// testdata/fpdump.golden were captured from.
package pmkv

import (
	"fmt"
	"sync"
)

// RunShardedScript drives fresh shard engines through the script. The
// crash instant (cfg.Engine.CrashAt) fans out: every shard loses power at
// that cycle of its own clock; shards that finish the script first simply
// drain clean. Each shard is closed, verified, and its recovered state
// reconstructed; the per-shard results are returned in shard order, and
// the error is the lowest-numbered shard's.
func RunShardedScript(cfg ShardedConfig, script Script) ([]ShardResult, error) {
	cfg.fill()
	if cfg.Shards < 1 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("pmkv: Shards must be in 1..%d, got %d", MaxShards, cfg.Shards)
	}
	engines := make([]*Engine, cfg.Shards)
	for i := range engines {
		eng, err := New(cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("pmkv: shard %d: %w", i, err)
		}
		engines[i] = eng
	}
	return runScript(engines, script)
}

// runScript is RunShardedScript on engines the caller built, one per
// shard; tests use it to plant a bug in an engine or attach a probe.
func runScript(engines []*Engine, script Script) ([]ShardResult, error) {
	// Session-major creation so every shard binds session i to the same
	// core slot a single engine would.
	sessions := make([][]*Session, script.sessions())
	for i := range sessions {
		sessions[i] = make([]*Session, len(engines))
		for s, e := range engines {
			sessions[i][s] = e.NewSession()
		}
	}
	results := make([]ShardResult, len(engines))
	var wg sync.WaitGroup
	for s, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[s] = runShardScript(e, s, len(engines), sessions, script)
		}()
	}
	wg.Wait()
	return results, firstErr(results)
}

// runShardScript applies the batches one shard owns, then ends the shard.
// A batch with no op routed here still Applies empty, so the shard's clock
// advances through the same per-batch gap cadence and crash instants land
// in comparable execution phases across shards.
func runShardScript(e *Engine, shard, shards int, sessions [][]*Session, script Script) ShardResult {
	reqs := make([]Request, 0, len(sessions))
	for _, batch := range script {
		reqs = reqs[:0]
		for _, op := range batch {
			if ShardOf(op.Key, shards) == shard {
				reqs = append(reqs, Request{Sess: sessions[op.Sess][shard], Op: op.Op, Key: op.Key, Value: op.Value})
			}
		}
		if _, err := e.Apply(reqs); err == ErrCrashed {
			break
		} else if err != nil {
			return ShardResult{Shard: shard, Err: err}
		}
	}
	return closeShard(shard, e)
}
