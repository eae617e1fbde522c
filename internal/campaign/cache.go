package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Cache stores completed job results keyed by content fingerprint
// (Job.Fingerprint). Implementations must be safe for concurrent use.
//
// A returned Metrics may share its maps and Relia batch with the value
// that was stored and with every other Get of the same key: callers
// must treat it as read-only.
type Cache interface {
	// Get returns the cached metrics for key, if present. The result is
	// shared; do not mutate it.
	Get(key string) (core.Metrics, bool)
	// Put stores the metrics for key.
	Put(key string, m core.Metrics) error
}

// CountingCache wraps a Cache with hit/miss/store counters, so
// services can report cache effectiveness without instrumenting every
// call site. Safe for concurrent use when the wrapped cache is.
type CountingCache struct {
	inner              Cache
	hits, misses, puts atomic.Uint64
}

// NewCountingCache wraps inner.
func NewCountingCache(inner Cache) *CountingCache {
	return &CountingCache{inner: inner}
}

// Get implements Cache.
func (c *CountingCache) Get(key string) (core.Metrics, bool) {
	m, ok := c.inner.Get(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return m, ok
}

// Put implements Cache.
func (c *CountingCache) Put(key string, m core.Metrics) error {
	c.puts.Add(1)
	return c.inner.Put(key, m)
}

// Stats reports the lifetime hit/miss/store counts.
func (c *CountingCache) Stats() (hits, misses, puts uint64) {
	return c.hits.Load(), c.misses.Load(), c.puts.Load()
}

// tierCap bounds DiskCache's in-process tier. An entry costs about
// 1.3 KB of heap, so a full tier holds about 5.5 MB.
const tierCap = 4096

// DiskCache is a content-addressed on-disk Cache: each result lives at
// <dir>/<fp[:2]>/<fp>.json. Interrupted campaigns resume for free — on
// the next run every already-completed job is a cache hit — and
// overlapping campaigns share each other's work. Writes go through a
// temp file plus rename so concurrent writers and readers never see a
// torn entry.
//
// In front of the files sits a bounded in-process tier of decoded
// results, so a long-lived instance (mmmd, a benchmark resubmitting to
// one cache) decodes each entry at most once. A successful Put adds the
// decoded form of the bytes it wrote, after the rename; a Get that
// reads an entry from disk adds what it decoded; missing and corrupt
// entries are never added. When the tier holds tierCap entries it is
// cleared before the next insert, so its worst case is the plain disk
// path. Keys are content-addressed, so a key's value never changes
// within one build; but an entry file deleted after this instance read
// or wrote it is still served until the tier clears.
type DiskCache struct {
	dir string

	mu      sync.RWMutex
	tier    map[string]core.Metrics
	tierMax int // tierCap; lowered only by tests
}

// NewDiskCache opens (creating if needed) a disk cache rooted at dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: cache dir: %w", err)
	}
	return &DiskCache{dir: dir, tier: make(map[string]core.Metrics), tierMax: tierCap}, nil
}

// Dir returns the cache root.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(key string) string {
	if len(key) < 2 {
		key = "__" + key
	}
	return filepath.Join(c.dir, key[:2], key+".json")
}

// remember adds a decoded result to the tier, clearing the tier first
// when it is full.
func (c *DiskCache) remember(key string, m core.Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tier[key]; !ok && len(c.tier) >= c.tierMax {
		clear(c.tier)
	}
	c.tier[key] = m
}

// Get implements Cache.
func (c *DiskCache) Get(key string) (core.Metrics, bool) {
	c.mu.RLock()
	m, ok := c.tier[key]
	c.mu.RUnlock()
	if ok {
		return m, true
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return core.Metrics{}, false
	}
	// Put only ever writes a JSON object; anything else (a corrupt,
	// truncated or foreign file, or a bare null) is a miss, and the
	// rerun overwrites it.
	if !bytes.HasPrefix(data, []byte("{")) || json.Unmarshal(data, &m) != nil {
		return core.Metrics{}, false
	}
	c.remember(key, m)
	return m, true
}

// Put implements Cache.
func (c *DiskCache) Put(key string, m core.Metrics) error {
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return err
	}
	// The tier holds what the file decodes to, not m itself: a hit is
	// then exactly what a fresh instance reads (empty maps under
	// omitempty come back nil), and never aliases the caller's value.
	var stored core.Metrics
	if err := json.Unmarshal(data, &stored); err != nil {
		return err
	}
	c.remember(key, stored)
	return nil
}
