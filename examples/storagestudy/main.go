// Storagestudy: the paper's §5 applicability case — "the storage model
// used in KOOZA has been effectively applied in storage system studies
// like SSD caching ... evaluation".
//
// The experiment sizes an SSD cache for a GFS-like object store WITHOUT
// access to the original application: an in-breadth storage model is
// trained on the original I/O trace, a synthetic I/O stream is generated
// from it, and both streams are run through the same SSD-cache simulator
// across a sweep of cache sizes. The study succeeds if the synthetic
// stream reproduces the original's hit-rate curve and therefore leads to
// the same provisioning decision (the smallest cache reaching the target
// hit rate).
//
// Run with: go run ./examples/storagestudy
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"dcmodel"
	"dcmodel/internal/inbreadth"
)

// ssdCache is a simple LRU block cache over LBNs.
type ssdCache struct {
	capacity int
	index    map[int64]*lruNode
	head     *lruNode // most recent
	tail     *lruNode // least recent
}

type lruNode struct {
	lbn        int64
	prev, next *lruNode
}

func newSSDCache(capacityBlocks int) *ssdCache {
	return &ssdCache{capacity: capacityBlocks, index: make(map[int64]*lruNode)}
}

// access touches one block and reports whether it hit.
func (c *ssdCache) access(lbn int64) bool {
	if n, ok := c.index[lbn]; ok {
		c.moveToFront(n)
		return true
	}
	n := &lruNode{lbn: lbn}
	c.index[lbn] = n
	c.pushFront(n)
	if len(c.index) > c.capacity {
		evict := c.tail
		c.unlink(evict)
		delete(c.index, evict.lbn)
	}
	return false
}

func (c *ssdCache) pushFront(n *lruNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *ssdCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *ssdCache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// hitRate runs an I/O stream through a cache of the given size and returns
// the block-level hit rate.
func hitRate(ios []inbreadth.IOEvent, capacityBlocks int) float64 {
	cache := newSSDCache(capacityBlocks)
	var hits, total int64
	for _, io := range ios {
		blocks := (io.Bytes + 4095) / 4096
		for b := int64(0); b < blocks; b++ {
			total++
			if cache.access(io.LBN + b) {
				hits++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func main() {
	log.SetFlags(0)

	// Original application: a skewed-popularity object store.
	cfg := dcmodel.DefaultGFSConfig()
	cfg.Files = 8
	cfg.PopularitySkew = 1.1
	cfg.SegmentBytes = 256 << 10 // hot/cold 256 KiB segments
	cfg.SegmentSkew = 1.0
	tr, err := dcmodel.Simulate(cfg, dcmodel.GFSRun{
		RunConfig: dcmodel.RunConfig{Mix: dcmodel.WebMix(), Requests: 12000, Seed: 1},
		Rate:      50,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Model the storage behavior without the application.
	model, err := inbreadth.Train(tr, inbreadth.Options{StorageRegions: 64})
	if err != nil {
		log.Fatal(err)
	}
	orig := inbreadth.IOStreamFromTrace(tr)
	synth := model.GenerateIOStream(len(orig), rand.New(rand.NewSource(2)))

	// Sweep SSD cache sizes and compare hit-rate curves.
	const targetHitRate = 0.5
	sizesMiB := []int{64, 128, 256, 512, 1024, 2048, 4096}
	fmt.Println("SSD cache sizing study (LRU block cache, 4 KiB blocks)")
	fmt.Printf("%-12s | %-12s | %-12s | %-8s\n", "Cache MiB", "orig hit%", "synth hit%", "diff")
	origPick, synthPick := -1, -1
	for _, mib := range sizesMiB {
		blocks := mib * 256 // 4 KiB blocks per MiB
		ho := hitRate(orig, blocks)
		hs := hitRate(synth, blocks)
		fmt.Printf("%-12d | %11.1f%% | %11.1f%% | %7.1f%%\n", mib, 100*ho, 100*hs, 100*math.Abs(ho-hs))
		if origPick < 0 && ho >= targetHitRate {
			origPick = mib
		}
		if synthPick < 0 && hs >= targetHitRate {
			synthPick = mib
		}
	}
	fmt.Printf("\nprovisioning decision (smallest cache with >= %.0f%% hit rate):\n", 100*targetHitRate)
	fmt.Printf("  using the original trace:  %d MiB\n", origPick)
	fmt.Printf("  using the synthetic model: %d MiB\n", synthPick)
	if origPick == synthPick && origPick > 0 {
		fmt.Println("  => the model-driven study reaches the same design decision")
	} else {
		fmt.Println("  => WARNING: decisions diverge; the model needs more detail")
	}
}
