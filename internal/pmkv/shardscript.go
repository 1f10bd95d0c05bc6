// Deterministic scripted driver: the ScriptSpec request stream routed
// through the shard router, with each shard's engine driven round by
// round. Shard engines never observe each other's timing, so running
// them on parallel goroutines (or under any sweep -j setting) yields the
// same per-shard fingerprints as running them serially. A single-shard
// run feeds shard 0 every op of every round — the batch sequence the
// 201 fingerprints in testdata/fpdump.golden were captured from.
package pmkv

import (
	"fmt"
	"sync"
)

// ShardedRunResult is the outcome of one scripted sharded run.
type ShardedRunResult struct {
	// PerShard holds each shard's RunResult (crash status, cycles, rounds
	// applied, verification report, recovered state), indexed by shard.
	PerShard []*RunResult
	// Crashed reports whether any shard hit its crash instant.
	Crashed bool
	// Fingerprint is the canonical combination of the per-shard recovery
	// fingerprints (in shard order).
	Fingerprint string
	// Recovered is the union of per-shard recovered states (shards
	// partition the keyspace, so the merge is disjoint).
	Recovered map[string][]byte
}

// DurablePublishes sums the per-shard durable publish counts.
func (r *ShardedRunResult) DurablePublishes() int {
	n := 0
	for _, s := range r.PerShard {
		n += s.Report.DurablePublishes
	}
	return n
}

// TotalPublishes sums the per-shard retired publish counts.
func (r *ShardedRunResult) TotalPublishes() int {
	n := 0
	for _, s := range r.PerShard {
		n += s.Report.TotalPublishes
	}
	return n
}

// RunShardedScript drives fresh shard engines through the scripted load.
// The crash instant (cfg.Engine.CrashAt) fans out: every shard loses
// power at that cycle of its own clock; shards that finish the script
// first simply drain clean. Each shard is closed, verified, and its
// recovered state reconstructed; any invariant violation is returned as
// an error (lowest shard index wins, deterministically).
func RunShardedScript(cfg ShardedConfig, spec ScriptSpec) (*ShardedRunResult, error) {
	cfg.fill()
	spec.fill()
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
	// Session-major creation so every shard binds session i to the same
	// core slot a single engine would.
	sessions := make([][]*Session, spec.Sessions)
	for i := range sessions {
		sessions[i] = make([]*Session, cfg.Shards)
		for s := range engines {
			sessions[i][s] = engines[s].NewSession()
		}
	}
	rounds := genScript(spec)

	out := &ShardedRunResult{PerShard: make([]*RunResult, cfg.Shards)}
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for s := range engines {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			out.PerShard[s], errs[s] = runShardScript(engines[s], s, cfg.Shards, sessions, rounds)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return out, fmt.Errorf("pmkv: shard %d: %w", s, err)
		}
	}
	fps := make([]string, cfg.Shards)
	for s, r := range out.PerShard {
		fps[s] = r.Report.Fingerprint
		out.Crashed = out.Crashed || r.Crashed
	}
	out.Fingerprint = CombineFingerprints(fps)
	out.Recovered = make(map[string][]byte)
	for _, r := range out.PerShard {
		for k, v := range r.Recovered {
			out.Recovered[k] = v
		}
	}
	return out, nil
}

// runShardScript replays the rounds owned by one shard on its engine.
// Rounds with no op routed here still Apply an empty batch, so the
// shard's clock advances through the same per-round gap cadence and
// crash instants land in comparable execution phases across shards.
func runShardScript(e *Engine, shard, shards int, sessions [][]*Session, rounds [][]scriptOp) (*RunResult, error) {
	out := &RunResult{}
	batch := make([]Request, 0, len(sessions))
	for _, round := range rounds {
		batch = batch[:0]
		for i, op := range round {
			if ShardOf(op.key, shards) != shard {
				continue
			}
			batch = append(batch, Request{Sess: sessions[i][shard], Op: op.op, Key: op.key, Value: op.value})
		}
		_, err := e.Apply(batch)
		if err == ErrCrashed {
			out.Crashed = true
			break
		}
		if err != nil {
			return out, err
		}
		out.RoundsApplied++
	}
	res, err := e.Close()
	if err != nil {
		return out, err
	}
	out.Cycles = e.Now()
	rep, err := e.Verify(res)
	out.Report = rep
	if err != nil {
		return out, err
	}
	out.Recovered, err = e.RecoveredState(res)
	if err != nil {
		return out, err
	}
	out.DL = e.CheckDL(res)
	if out.DL != nil {
		if err := out.DL.Err(); err != nil {
			return out, fmt.Errorf("pmkv: durable linearizability: %w", err)
		}
	}
	return out, nil
}
