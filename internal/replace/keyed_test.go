package replace

import (
	"fmt"
	"slices"
	"testing"
)

// TestKeyedLRUEvictsLeastRecentWithinBudget: units leave in recency
// order until the budget holds, a touch or a re-charge refreshes a
// unit, and the unit just charged stays even when it alone exceeds the
// budget.
func TestKeyedLRUEvictsLeastRecentWithinBudget(t *testing.T) {
	b := NewKeyedLRU[string](10)
	var evicted []string
	evict := func(k string) { evicted = append(evicted, k) }
	b.Charge("a", 4, evict)
	b.Charge("b", 4, evict)
	b.Touch("a")
	b.Charge("c", 4, evict) // 12 > 10: b is the least recent
	b.Charge("a", 2, evict) // re-charged smaller: 6, nothing leaves
	b.Charge("d", 20, evict)
	if want := []string{"b", "c", "a"}; !slices.Equal(evicted, want) {
		t.Errorf("evicted %v, want %v", evicted, want)
	}
	if b.Used() != 20 {
		t.Errorf("Used = %d, want 20 (the oversized unit stays alone)", b.Used())
	}
	b.Touch("gone") // not resident: ignored
}

// TestKeyedLRURecyclesIDs: the page ids of evicted keys are reused, so
// the LRU's id-indexed state is bounded by the units resident at once,
// however many distinct keys pass through.
func TestKeyedLRURecyclesIDs(t *testing.T) {
	b := NewKeyedLRU[string](3)
	n := 0
	for i := 0; i < 10000; i++ {
		b.Charge(fmt.Sprint(i), 1, func(string) { n++ })
	}
	if n != 10000-3 || b.Used() != 3 {
		t.Errorf("%d evictions, %d used; want %d and 3", n, b.Used(), 10000-3)
	}
	if len(b.units) > 4 || len(b.lru.links) > 4 {
		t.Errorf("id-indexed state grew to %d units, %d links; want at most 4", len(b.units), len(b.lru.links))
	}
}
