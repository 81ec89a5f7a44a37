package serve

import "container/list"

// cacheBudget bounds the result cache: the sum of the cached line
// lengths, in bytes.
const cacheBudget = 64 << 20

// resultCache is the scheduler's result cache: a least-recently-used
// map from cache key to a clean run's JSONL lines, held under a byte
// budget. Evicting an entry is always safe, because a miss re-runs the
// sweep to the same bytes; eviction changes latency, never output. The
// cache has no lock of its own: the owning Scheduler's mu guards it.
type resultCache struct {
	budget  int64 // the byte budget; cacheBudget outside tests
	size    int64 // the sum of every entry's line lengths
	lru     *list.List
	entries map[string]*list.Element
}

// cacheEntry is one cached run; lines are shared with the job records
// that ran or hit it and are never mutated.
type cacheEntry struct {
	key   string
	lines [][]byte
	size  int64
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{budget: budget, lru: list.New(), entries: make(map[string]*list.Element)}
}

// get returns key's lines and marks the entry most recently used.
func (c *resultCache) get(key string) ([][]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).lines, true
}

// put stores a clean run's lines under key, then evicts least recently
// used entries until the cache fits its budget. It returns the number
// of entries evicted; a run larger than the whole budget evicts itself.
// A key already cached (two equal submissions that both missed) keeps
// its entry: by the determinism contract both runs wrote the same
// bytes.
func (c *resultCache) put(key string, lines [][]byte) int {
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return 0
	}
	e := &cacheEntry{key: key, lines: lines}
	for _, ln := range lines {
		e.size += int64(len(ln))
	}
	c.entries[key] = c.lru.PushFront(e)
	c.size += e.size
	evicted := 0
	for c.size > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.entries, old.key)
		c.size -= old.size
		evicted++
	}
	return evicted
}
