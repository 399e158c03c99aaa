package replace

// KeyedLRU holds variable-size units named by key within a byte
// budget, evicting the least recently used ones: the paper's
// replacement problem for non-uniform units (segments) in a fixed
// amount of working storage, with LRU as the strategy. Keys map to
// dense page ids for the underlying LRU; the id of an evicted key is
// recycled through a free list, so the LRU's id-indexed state stays
// bounded by the most units ever resident at once, not by the number
// of keys ever seen.
//
// A KeyedLRU is not safe for concurrent use; its owner serializes
// access. Its index is built on the first Charge, so an owner that
// never charges pays one small allocation for it.
type KeyedLRU[K comparable] struct {
	budget, used int64
	lru          *LRU           // nil until the first Charge
	ids          map[K]PageID   // nil until the first Charge
	units        []keyedUnit[K] // indexed by page id
	free         []PageID
}

// keyedUnit is one resident unit: its key and the bytes charged for it.
type keyedUnit[K comparable] struct {
	key  K
	size int64
}

// NewKeyedLRU returns an empty KeyedLRU holding at most budget bytes
// (beyond the one unit most recently charged; see Charge).
func NewKeyedLRU[K comparable](budget int64) *KeyedLRU[K] {
	return &KeyedLRU[K]{budget: budget}
}

// Charge records key as resident at size bytes and most recently used
// (charging a resident key again replaces its size), then evicts least
// recently used units until the charged total is within the budget,
// calling evict with each evicted key. The key just charged is never
// evicted, so a unit larger than the whole budget stays resident
// alone until the next charge.
func (b *KeyedLRU[K]) Charge(key K, size int64, evict func(K)) {
	if b.lru == nil {
		b.lru, b.ids = NewLRU(), make(map[K]PageID)
	}
	id, ok := b.ids[key]
	if ok {
		b.used -= b.units[id].size
		b.units[id].size = size
	} else {
		if n := len(b.free); n > 0 {
			id = b.free[n-1]
			b.free = b.free[:n-1]
		} else {
			id = PageID(len(b.units))
			b.units = append(b.units, keyedUnit[K]{})
		}
		b.ids[key] = id
		b.units[id] = keyedUnit[K]{key: key, size: size}
	}
	b.used += size
	b.lru.Insert(id, 0)
	for b.used > b.budget && b.lru.Len() > 1 {
		victim, _ := b.lru.Victim(0) // never key: it is the most recent of two or more
		u := b.units[victim]
		b.lru.Remove(victim)
		delete(b.ids, u.key)
		b.units[victim] = keyedUnit[K]{}
		b.free = append(b.free, victim)
		b.used -= u.size
		evict(u.key)
	}
}

// Touch makes a resident key the most recently used. A key that is
// not resident is ignored.
func (b *KeyedLRU[K]) Touch(key K) {
	if id, ok := b.ids[key]; ok {
		b.lru.Touch(id, 0, false)
	}
}

// Used reports the bytes charged to the resident units.
func (b *KeyedLRU[K]) Used() int64 { return b.used }
