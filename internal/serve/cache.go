package serve

import (
	"container/list"
	"sync"
)

// cacheBudget is how many bytes of answers one generation keeps. query-mix's
// whole distinct answer set is 4.41 MB: three models, each answering
// n=1000 on the 8192-request chat window in binary (about 94 KB), csv
// (515 KB), json (700 KB) and replayed binary (145 KB), plus about 1 KB of
// characterize and provision answers. 16 MiB keeps all of it.
const cacheBudget = 16 << 20

// genCache is the one memo of a generation: what its read path derived from
// it, by key. Every entry is computed once, by the first request to ask for
// it; requests asking while it is computed wait for it. Each entry is charged
// its size in bytes, and the entries kept never add up to more than the
// budget.
//
// An entry is on probation until it is asked for a second time: to make room
// for a new one, probation entries are evicted, oldest first. An entry that
// has been hit once is kept for the rest of the generation, so a stream of
// one-shot keys cannot push out a key that is asked for again and again. A
// value that does not fit beside the entries that have been hit is answered
// and not kept. Entries charged nothing — models and twins, whose keys the
// code fixes — are never evicted. Nothing is invalidated by hand: a retrain
// brings a new generation with a cache of its own.
type genCache struct {
	mu sync.Mutex
	// budget is cacheBudget, except in tests that shrink it.
	budget  int
	entries map[any]*cacheEntry
	// probation holds the kept entries never hit, oldest first.
	probation list.List
	// kept is the bytes charged to the kept entries, onProbation those of
	// the entries in probation.
	kept, onProbation int
	// onJoin, when set (tests only, before the generation is queried), is
	// called with the key of each get that finds its entry already there.
	onJoin func(key any)
}

// cacheEntry is one key's value, computed once.
type cacheEntry struct {
	key  any
	once sync.Once
	val  any
	size int
	hit  bool
	// onProbation is the entry's element of the probation list, while it
	// is in it.
	onProbation *list.Element
}

// get returns the value c keeps for key — waiting for it, if it is still
// being computed — or compute's, which c keeps if compute says to and it
// fits. hit reports whether this caller found the entry.
func (c *genCache) get(key any, compute func() (v any, size int, keep bool)) (v any, hit bool) {
	c.mu.Lock()
	e := c.entries[key]
	if hit = e != nil; hit {
		e.hit = true
		if e.onProbation != nil {
			c.probation.Remove(e.onProbation)
			e.onProbation, c.onProbation = nil, c.onProbation-e.size
		}
	} else {
		if c.entries == nil {
			c.entries = make(map[any]*cacheEntry)
		}
		e = &cacheEntry{key: key}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if hit && c.onJoin != nil {
		c.onJoin(key)
	}
	e.once.Do(func() {
		v, size, keep := compute()
		e.val = v
		c.admit(e, size, keep)
	})
	return e.val, hit
}

// admit keeps e, charged size, evicting probation entries to make room, or
// drops it when keep is false or it does not fit beside the entries hit. A
// dropped value goes to the requests already waiting on it and to no later
// one.
func (c *genCache) admit(e *cacheEntry, size int, keep bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !keep || c.kept-c.onProbation+size > c.budget {
		delete(c.entries, e.key)
		return
	}
	for c.kept+size > c.budget {
		old := c.probation.Remove(c.probation.Front()).(*cacheEntry)
		delete(c.entries, old.key)
		c.kept, c.onProbation = c.kept-old.size, c.onProbation-old.size
	}
	e.size = size
	c.kept += size
	if !e.hit && size > 0 {
		e.onProbation = c.probation.PushBack(e)
		c.onProbation += size
	}
}

// entryBytes is what keeping an answer costs besides its body: the map
// slot, the boxed key and answer, the entry and its probation element. It
// keeps a flood of tiny answers from holding many times the budget.
const entryBytes = 256

// answer is get for an encoded answer, charged its body and entryBytes.
func (c *genCache) answer(key any, compute func() (a answer, keep bool)) (a answer, hit bool) {
	v, hit := c.get(key, func() (any, int, bool) {
		a, keep := compute()
		return a, len(a.body) + entryBytes, keep
	})
	return v.(answer), hit
}

// built is get for a model or a twin, charged nothing: a value built from
// the generation by the first caller to ask and by nobody after. A failure is
// kept like a value, since the build would fail again.
func built[V any](c *genCache, key any, build func() (V, error)) (V, error) {
	type result struct {
		v   V
		err error
	}
	r, _ := c.get(key, func() (any, int, bool) {
		v, err := build()
		return result{v, err}, 0, true
	})
	return r.(result).v, r.(result).err
}
