package circuits

import (
	"sync"
	"sync/atomic"
)

// Cache memoizes Prepared artifacts keyed by (unit spec, Params), so a
// campaign touching the same circuit from many lots, replicates, or
// worker goroutines builds it exactly once. Concurrent Get calls for
// the same key block on one build; distinct keys build in parallel.
//
// With a Store attached, the cache consults the on-disk artifact
// before building: a hit counts as a load (not a build), a miss builds
// and persists, and a corrupt or mismatched artifact is rebuilt
// cleanly and overwritten. The Builds/Loads counters let tests pin the
// warm-store contract ("second process: zero rebuilds").
//
// The zero value is not usable; call NewCache or NewCacheWithStore.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	builds  atomic.Int64
	loads   atomic.Int64
	store   *Store
}

type cacheKey struct {
	spec   string
	params Params
}

type cacheEntry struct {
	once sync.Once
	prep *Prepared
	err  error
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// NewCacheWithStore returns a cache backed by an on-disk Prepared
// store; a nil store degrades to NewCache.
func NewCacheWithStore(store *Store) *Cache {
	ca := NewCache()
	ca.store = store
	return ca
}

// Get returns the Prepared artifact for (spec, p), building it on first
// use. spec must be a unit spec (see Expand); a failed build is cached
// too, so a bad spec does not retry on every replicate.
func (ca *Cache) Get(spec string, p Params) (*Prepared, error) {
	key := cacheKey{spec: spec, params: p}
	ca.mu.Lock()
	e, ok := ca.entries[key]
	if !ok {
		e = &cacheEntry{}
		ca.entries[key] = e
	}
	ca.mu.Unlock()
	e.once.Do(func() {
		e.prep, e.err = ca.fill(spec, p)
	})
	return e.prep, e.err
}

// fill performs the cold path for one cache entry: store load if a
// store is attached (any store error — miss, corruption, schema skew —
// falls through to a clean rebuild), then build and persist. Invalid
// Params fail first, so a warm store cannot serve what a cold build
// would reject.
func (ca *Cache) fill(spec string, p Params) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ca.store == nil {
		ca.builds.Add(1)
		return PrepareSpec(spec, p)
	}
	c, err := Resolve(spec)
	if err != nil {
		return nil, err
	}
	if pr, err := ca.store.Load(c, p); err == nil {
		ca.loads.Add(1)
		return pr, nil
	}
	// A miss is the expected cold path; a corrupt, tampered, or
	// schema-skewed artifact is rebuilt cleanly and overwritten below.
	ca.builds.Add(1)
	pr, err := Prepare(c, p)
	if err != nil {
		return nil, err
	}
	if err := ca.store.Save(pr); err != nil {
		return nil, err
	}
	return pr, nil
}

// Builds reports how many cold preparations the cache has performed —
// the counter the exactly-once-per-campaign tests pin.
func (ca *Cache) Builds() int { return int(ca.builds.Load()) }

// Loads reports how many preparations were served from the on-disk
// store instead of being built — the counter the warm-store tests pin.
func (ca *Cache) Loads() int { return int(ca.loads.Load()) }
