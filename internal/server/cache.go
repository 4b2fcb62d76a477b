package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"nucleodb"
)

// cacheKey keys the result cache: the canonical query letters
// (encode/decode normalises case and U→T) and the resolved options. The
// options are the struct itself, so every field — each /search wire name
// and every server default — is in the key by construction, except what
// newCacheKey zeroes.
type cacheKey struct {
	query string
	opts  nucleodb.SearchOptions
}

// newCacheKey zeroes the options that change how a search runs but not
// what it answers: FineWorkers, proven result-neutral by
// TestParallelFineMatchesSerial, so serial and parallel configurations
// share entries.
func newCacheKey(canonical string, opts nucleodb.SearchOptions) cacheKey {
	opts.FineWorkers = 0
	return cacheKey{query: canonical, opts: opts}
}

// resultCache is a fixed-capacity LRU over marshalled search
// responses, keyed on cacheKey. Entries are the exact JSON bytes
// written to clients, so a hit costs one map lookup and one write — no
// re-search, no re-marshal. The cache is safe for concurrent use; hits
// and misses are counted for the hit-rate the operator watches.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	order   *list.List // front = most recently used

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key  cacheKey
	body []byte
}

// newResultCache returns a cache holding up to capacity entries, or
// nil when capacity ≤ 0 (caching disabled; lookups miss, stores drop).
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		cap:     capacity,
		entries: make(map[cacheKey]*list.Element, capacity),
		order:   list.New(),
	}
}

// get returns the cached body for key and marks it most recently used.
// The returned slice is the shared cache entry itself: callers may only
// read it (every concurrent hit hands out the same backing array).
//
// The returned body is shared across concurrent hits; never mutate or append to it.
func (c *resultCache) get(key cacheKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	body := el.Value.(*cacheEntry).body
	c.mu.Unlock()
	c.hits.Add(1)
	return body, true
}

// put stores body under key, evicting the least recently used entry
// when the cache is full. body must not be mutated after the call.
func (c *resultCache) put(key cacheKey, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Entries int
	Hits    int64
	Misses  int64
}

// HitRate returns hits/(hits+misses), 0 when idle.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (c *resultCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Entries: c.Len(), Hits: c.hits.Load(), Misses: c.misses.Load()}
}
