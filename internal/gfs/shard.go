package gfs

import (
	"fmt"
	"math/rand"
	"sort"

	"dcmodel/internal/par"
	"dcmodel/internal/prand"
	"dcmodel/internal/trace"
)

// Sharded simulation: the client population is partitioned into shards,
// each shard driving its own replica of the configured cluster — the
// "multiple instances of the model" scaling route the paper describes for
// multi-server scenarios. Shard s simulates its share of the requests with
// an independent rand stream derived from the top-level seed via SplitMix64
// (prand.Derive(seed, s)); shard traces are merged by arrival time with a
// deterministic tie-break and request IDs reassigned in merge order.
//
// Because every shard's randomness, hardware state and request quota are
// fixed functions of (cfg, rc, shards, seed) — never of the worker count —
// a parallel run is byte-identical to a serial (workers=1) run of the same
// decomposition. Workers only bounds how many shards execute concurrently.

// shardQuota splits total into counts: base everywhere plus one extra for
// the first total%shards shards.
func shardQuota(total, shards int) []int {
	out := make([]int, shards)
	base, extra := total/shards, total%shards
	for s := range out {
		out[s] = base
		if s < extra {
			out[s]++
		}
	}
	return out
}

// mergeShards flattens per-shard traces (ordered by shard index) into one
// trace sorted by arrival, breaking ties by shard index then per-shard
// order, and reassigns request IDs densely in merge order. Server IDs are
// offset so shard s's servers occupy [s*serversPerShard, (s+1)*serversPerShard).
func mergeShards(shards []*trace.Trace, serversPerShard int) *trace.Trace {
	total := 0
	for _, tr := range shards {
		if tr != nil {
			total += tr.Len()
		}
	}
	merged := &trace.Trace{Requests: make([]trace.Request, 0, total)}
	for s, tr := range shards {
		if tr == nil {
			continue
		}
		for _, req := range tr.Requests {
			req.Server += s * serversPerShard
			merged.Requests = append(merged.Requests, req)
		}
	}
	// Within a shard requests are already in issue order; a stable sort on
	// arrival therefore keeps the (shard, local order) tie-break.
	sort.SliceStable(merged.Requests, func(i, j int) bool {
		return merged.Requests[i].Arrival < merged.Requests[j].Arrival
	})
	for i := range merged.Requests {
		merged.Requests[i].ID = int64(i)
	}
	return merged
}

// SimulateSharded runs rc across `shards` independent cluster partitions on
// up to `workers` goroutines (workers<=0 = GOMAXPROCS, 1 = serial) and
// returns the merged trace. rc.Requests is the total across all shards;
// each shard's client partition drives its own instance of rc.Arrivals, so
// the merged stream is the superposition of `shards` independent arrival
// processes. The output depends only on (cfg, rc, shards, seed).
func SimulateSharded(cfg Config, rc RunConfig, shards, workers int, seed int64) (*trace.Trace, error) {
	if shards < 1 {
		return nil, fmt.Errorf("gfs: need >= 1 shard, got %d", shards)
	}
	if rc.Requests < shards {
		return nil, fmt.Errorf("gfs: %d requests cannot cover %d shards", rc.Requests, shards)
	}
	rcs := make([]RunConfig, shards)
	for s, n := range shardQuota(rc.Requests, shards) {
		rcs[s] = rc
		rcs[s].Requests = n
	}
	return SimulateMulti(cfg, rcs, workers, seed)
}

// SimulateMulti is the heterogeneous sibling of SimulateSharded: partition
// s runs its own RunConfig rcs[s] (its own mix, arrival process, request
// count) against an independent instance of the configured cluster, and
// the partition traces merge exactly like shards. The spec engine uses
// this to compose multi-client scenarios.
func SimulateMulti(cfg Config, rcs []RunConfig, workers int, seed int64) (*trace.Trace, error) {
	if len(rcs) == 0 {
		return nil, fmt.Errorf("gfs: need >= 1 run config")
	}
	return simulatePartitions(cfg, len(rcs), workers, seed, func(c *Cluster, s int, r *rand.Rand) (*trace.Trace, error) {
		rc := rcs[s]
		rc.FaultStream = uint64(s)
		return c.Run(rc, r)
	})
}

// SimulateShardedClosed is the closed-loop counterpart of SimulateSharded:
// rc.Users and rc.Requests are totals, partitioned across the shards (every
// shard keeps at least one user; shards is capped at rc.Users).
func SimulateShardedClosed(cfg Config, rc ClosedRunConfig, shards, workers int, seed int64) (*trace.Trace, error) {
	if shards < 1 {
		return nil, fmt.Errorf("gfs: need >= 1 shard, got %d", shards)
	}
	if rc.Users < 1 {
		return nil, fmt.Errorf("gfs: closed run needs >= 1 user, got %d", rc.Users)
	}
	if shards > rc.Users {
		shards = rc.Users
	}
	if rc.Requests < shards {
		return nil, fmt.Errorf("gfs: %d requests cannot cover %d shards", rc.Requests, shards)
	}
	users := shardQuota(rc.Users, shards)
	quota := shardQuota(rc.Requests, shards)
	return simulatePartitions(cfg, shards, workers, seed, func(c *Cluster, s int, r *rand.Rand) (*trace.Trace, error) {
		src := rc
		src.Users, src.Requests, src.FaultStream = users[s], quota[s], uint64(s)
		return c.RunClosed(src, r)
	})
}

// simulatePartitions runs `parts` partitions on up to `workers` goroutines
// and merges their traces. Partition s runs on a cluster of its own with
// the rand stream prand.New(seed, s); run sets its fault stream to s. Every
// partition's draws and failure history are thus keyed by its index, never
// by the worker count, so the merged trace is the same for any workers.
func simulatePartitions(cfg Config, parts, workers int, seed int64, run func(c *Cluster, s int, r *rand.Rand) (*trace.Trace, error)) (*trace.Trace, error) {
	traces := make([]*trace.Trace, parts)
	err := par.Do(parts, workers, func(s int) error {
		cluster, err := NewCluster(cfg)
		if err == nil {
			traces[s], err = run(cluster, s, prand.New(seed, uint64(s)))
		}
		if err != nil {
			return fmt.Errorf("gfs: partition %d: %w", s, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeShards(traces, cfg.Chunkservers), nil
}
