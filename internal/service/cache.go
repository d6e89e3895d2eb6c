package service

import (
	"container/list"
	"context"
	"sync"

	"seedblast/internal/index"
)

// CacheStats reports the subject-index cache's behaviour. A Hit is any
// request that found an entry — including requests that joined an
// in-flight build (singleflight). A Miss is a request that had to
// start a build (or a disk load, see DiskLoads).
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// DiskLoads counts misses satisfied by loading a registered seeddb
	// file instead of rebuilding the index (see Service.PreloadDB).
	DiskLoads int64
	Entries   int // entries currently resident (including in-flight builds)
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cacheEntry is one cached (possibly still building) subject index.
// ready is closed when the build finishes; ix/err are immutable after
// that.
type cacheEntry struct {
	key   string
	ready chan struct{}
	ix    *index.Index
	err   error
}

// indexCache is an LRU cache of prebuilt subject indexes keyed by
// build fingerprint, with singleflight semantics: concurrent requests
// for the same key share one build, so a burst of queries against a
// cold subject bank pays for exactly one step-1 pass.
type indexCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // value type *cacheEntry
	order   *list.List               // front = most recently used
	stats   CacheStats
}

func newIndexCache(capacity int) *indexCache {
	return &indexCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the index for key, running build on a miss. The first
// caller for a key builds; concurrent callers block on that build and
// share its result. Failed builds are evicted immediately so the next
// request retries instead of caching the error. ctx only bounds the
// wait — a build in progress is never abandoned, since other waiters
// may want it.
func (c *indexCache) get(ctx context.Context, key string, build func() (*index.Index, error)) (*index.Index, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.stats.Hits++
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.ix, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	el := c.order.PushFront(e)
	c.entries[key] = el
	c.stats.Misses++
	c.evictLocked()
	c.mu.Unlock()

	e.ix, e.err = build()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if cur, ok := c.entries[key]; ok && cur == el {
			c.order.Remove(el)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, e.err
	}
	return e.ix, nil
}

// evictLocked trims the cache to capacity from the LRU end, skipping
// entries whose build is still in flight: evicting one would silently
// discard the finished index (its builder closes ready and its current
// waiters get the result, but the cache forgets it), so the very next
// request for that key would rebuild — under sustained capacity
// pressure, every time. Ready entries are evicted oldest-first; if
// every resident entry is in flight the cache temporarily exceeds
// capacity rather than throw away running work.
func (c *indexCache) evictLocked() {
	over := c.order.Len() - c.cap
	for el := c.order.Back(); el != nil && over > 0; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		select {
		case <-e.ready:
			c.order.Remove(el)
			delete(c.entries, e.key)
			c.stats.Evictions++
			over--
		default: // build in flight: keep
		}
		el = prev
	}
}

// put installs an already-built index under key (the disk pre-warm
// path). An existing entry — ready or in flight — wins: put never
// clobbers state other requests may be waiting on.
func (c *indexCache) put(key string, ix *index.Index) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &cacheEntry{key: key, ready: make(chan struct{}), ix: ix}
	close(e.ready)
	c.entries[key] = c.order.PushFront(e)
	c.evictLocked()
}

// diskLoad records a miss that was satisfied from a seeddb file.
func (c *indexCache) diskLoad() {
	c.mu.Lock()
	c.stats.DiskLoads++
	c.mu.Unlock()
}

// snapshot returns the current statistics.
func (c *indexCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.order.Len()
	return st
}
