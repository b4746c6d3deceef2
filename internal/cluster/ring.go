// Package cluster scales the serving daemon past one process: a
// coordinator/worker topology deliberately mirroring the paper's own GFS
// master/chunkserver structure. The coordinator fronts /v1/ingest,
// consistent-hash-routes request streams, whole trace-v2 blocks at a time,
// to N window shards over HTTP, and each worker trains its shard online
// with markov.Accumulator sufficient statistics. Because every model
// statistic is an exactly mergeable count (markov.Accumulator.Merge sums
// integer-valued transition counts), the coordinator can assemble a global
// model that is byte-identical regardless of routing interleaving and worker
// count — the cluster's determinism contract — and replicate it to every
// worker so any node answers /v1/synthesize and /v1/characterize.
//
// Failure handling mirrors the single-node daemon's breaker: a worker
// that stops answering (or is killed by an armed internal/fault schedule)
// is marked down, its hash ranges fall clockwise to the survivors, and
// the requests it had absorbed are re-replicated from the coordinator's
// routing log — so a mid-run kill loses nothing. After a cooldown the
// next delivery is the half-open probe; a rejoining worker is reset
// before it is routed to again, keeping the exactly-once accounting.
package cluster

import (
	"fmt"
	"sort"

	"dcmodel/internal/prand"
)

// DefaultVNodes is the default virtual-node count per worker: enough that
// removing one worker spreads its load across all survivors instead of
// dumping it on a single clockwise neighbor.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over worker indices 0..workers-1. Each
// worker owns vnodes points on the ring; a key is owned by the worker of
// the first point clockwise from the key's hash. The ring is immutable
// after construction — membership changes are expressed at lookup time
// with an exclusion predicate, so "worker down" re-routes exactly the
// dead worker's ranges (the consistent-hashing property) without
// rebuilding anything.
type Ring struct {
	hashes  []uint64 // sorted vnode positions
	owners  []int    // owners[i] is the worker owning hashes[i]
	workers int
}

// NewRing builds a ring of `workers` workers with `vnodes` virtual nodes
// each (0 selects DefaultVNodes).
func NewRing(workers, vnodes int) (*Ring, error) {
	if workers < 1 {
		return nil, fmt.Errorf("cluster: ring needs >= 1 worker, got %d", workers)
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: ring needs >= 1 vnode per worker, got %d", vnodes)
	}
	r := &Ring{
		hashes:  make([]uint64, 0, workers*vnodes),
		owners:  make([]int, 0, workers*vnodes),
		workers: workers,
	}
	type point struct {
		h uint64
		w int
	}
	pts := make([]point, 0, workers*vnodes)
	for w := 0; w < workers; w++ {
		base := prand.Mix(uint64(w) + 1)
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{h: prand.Mix(base + uint64(v)), w: w})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].w < pts[j].w // deterministic collision order
	})
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.owners = append(r.owners, p.w)
	}
	return r, nil
}

// Owner returns the worker owning key: the worker of the first vnode at
// or clockwise after the key's position.
func (r *Ring) Owner(key uint64) int {
	return r.owners[r.firstAt(key)]
}

// OwnerExcluding returns the owner of key among workers for which
// excluded reports false, walking clockwise past vnodes of excluded
// workers — the dead-worker re-route. It returns -1 when every worker is
// excluded.
func (r *Ring) OwnerExcluding(key uint64, excluded func(worker int) bool) int {
	start := r.firstAt(key)
	n := len(r.hashes)
	for i := 0; i < n; i++ {
		w := r.owners[(start+i)%n]
		if !excluded(w) {
			return w
		}
	}
	return -1
}

// firstAt returns the index of the first vnode at or after key, wrapping
// past the top of the hash space.
func (r *Ring) firstAt(key uint64) int {
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= key })
	if i == len(r.hashes) {
		return 0
	}
	return i
}

// Key maps a request identity to its ring position. Class participates so
// two client streams replaying the same dense ID space spread
// differently; the SplitMix64 finalizer disperses the dense IDs.
func Key(id int64, class string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(class); i++ {
		h = (h ^ uint64(class[i])) * fnvPrime
	}
	return prand.Mix(h ^ prand.Mix(uint64(id)))
}
