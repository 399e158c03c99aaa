package catalog

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// valueLen is the length of the []int64 values the budget tests store:
// each one is charged valueLen × 8 bytes.
const valueLen = 128

const valueBytes = valueLen * 8

// keyValue is the value every generation of key must produce.
func keyValue(key string) []int64 {
	v := make([]int64, valueLen)
	for i := range v {
		v[i] = int64(len(key)*1000 + i + int(key[len(key)-1]))
	}
	return v
}

// used reports the bytes charged to the resident entries of c's root.
func (c *Catalog) used() int64 {
	r := c.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lru == nil {
		return 0
	}
	return r.lru.Used()
}

// TestNewAllocatesNothingMore: a battery constructs thousands of
// stores, so the budget's state is created on the first charge, not in
// New: a store costs the Catalog and its map, as it did before the
// budget.
func TestNewAllocatesNothingMore(t *testing.T) {
	var c *Catalog
	if n := testing.AllocsPerRun(1000, func() { c = New() }); n != 2 {
		t.Errorf("New allocates %v times, want 2", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c = NewStore(Options{}) }); n != 2 {
		t.Errorf("NewStore allocates %v times, want 2", n)
	}
	_ = c
}

// TestEvictionIsLRUAndCounted: over budget, the least recently used
// finished entry leaves first, a hit protects an entry, an evicted key
// regenerates an equal value, and the summary names the evictions.
func TestEvictionIsLRUAndCounted(t *testing.T) {
	c := NewBudgeted(2 * valueBytes)
	gens := map[string]int{}
	get := func(key string) []int64 {
		t.Helper()
		v, err := Get(c, key, func() ([]int64, error) { gens[key]++; return keyValue(key), nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := get("a")
	get("b")
	get("a") // a is now more recent than b
	get("c") // evicts b
	if keys := c.Keys(); !slices.Equal(keys, []string{"a", "c"}) {
		t.Fatalf("resident keys %v, want [a c]", keys)
	}
	if again := get("b"); !slices.Equal(again, keyValue("b")) || gens["b"] != 2 {
		t.Errorf("evicted b regenerated %d times, value equal %v", gens["b"], slices.Equal(again, keyValue("b")))
	}
	// b's return evicted a, the least recent; the value held stays whole.
	if !slices.Equal(a, keyValue("a")) {
		t.Error("a value held across its eviction changed")
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Generations != 4 || st.Hits != 1 {
		t.Errorf("stats %+v, want 2 evictions, 4 generations, 1 hit", st)
	}
	if got, want := st.Summary(), "4 generated, 1 hits, 0 disk hits, 0 disk writes, 2 evicted"; got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
}

// TestEvictionUnderConcurrency: with room for about two entries, many
// goroutines churning overlapping keys keep every catalog contract.
// Waiters on an in-flight key get its value, values held across their
// own eviction are unchanged, evicted keys regenerate equal values, a
// poisoned key keeps panicking, Evictions counts exactly the entries
// that left, and the charge never exceeds the budget plus the newest
// entry. Run it under -race.
func TestEvictionUnderConcurrency(t *testing.T) {
	const budget = 2*valueBytes + valueBytes/2
	c := NewBudgeted(budget)
	var okGens atomic.Int64 // successful materializations: each is charged once
	gen := func(key string) func() ([]int64, error) {
		return func() ([]int64, error) {
			okGens.Add(1)
			return keyValue(key), nil
		}
	}
	checkUsed := func() {
		if u := c.used(); u > budget+valueBytes {
			t.Errorf("charged %d bytes, over the budget %d plus one entry", u, budget)
		}
	}
	poisoned := func() (p interface{}) {
		defer func() { p = recover() }()
		Get(c, "bad", func() ([]int64, error) { panic("generator exploded") })
		return nil
	}
	if _, ok := poisoned().(*PoisonedError); !ok {
		t.Fatal("the poisoned key did not panic with *PoisonedError")
	}

	// An in-flight key whose waiters block while the churn evicts
	// around it.
	release := make(chan struct{})
	var flightWG sync.WaitGroup
	flight := make([][]int64, 9)
	hitsBefore := c.Stats().Hits
	for i := range flight {
		flightWG.Add(1)
		go func(i int) {
			defer flightWG.Done()
			v, err := Get(c, "flight", func() ([]int64, error) {
				<-release
				okGens.Add(1)
				return keyValue("flight"), nil
			})
			if err != nil {
				t.Error(err)
			}
			flight[i] = v
		}(i)
	}
	for c.Stats().Hits < hitsBefore+len(flight)-1 {
		time.Sleep(time.Millisecond)
	}

	const workers, rounds = 16, 300
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := keys[(w+i*(w%3+1))%len(keys)]
				v, err := Get(c, key, gen(key))
				if err != nil {
					t.Error(err)
					return
				}
				held := v
				if i%7 == 0 {
					// Churn other keys while holding this value.
					for _, k := range keys[:3] {
						Get(c, k, gen(k))
					}
				}
				if !slices.Equal(held, keyValue(key)) {
					t.Errorf("%s: value held across churn changed", key)
					return
				}
				if i%50 == 0 {
					checkUsed()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Stats().Evictions == 0 {
		t.Fatal("the churn evicted nothing; the budget does not bind")
	}
	close(release)
	flightWG.Wait()
	for i, v := range flight {
		if &v[0] != &flight[0][0] || !slices.Equal(v, keyValue("flight")) {
			t.Errorf("waiter %d did not get the in-flight generation's value", i)
		}
	}
	checkUsed()

	if _, ok := poisoned().(*PoisonedError); !ok {
		t.Error("after the churn the poisoned key no longer panics with *PoisonedError")
	}
	st := c.Stats()
	resident := 0
	for _, k := range c.Keys() {
		if k != "bad" {
			resident++
		}
	}
	if want := int(okGens.Load()) - resident; st.Evictions != want {
		t.Errorf("Evictions = %d, want %d (%d materialized, %d resident)", st.Evictions, want, okGens.Load(), resident)
	}
	if st.Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1 (a poisoned entry is never evicted and regenerated)", st.Poisoned)
	}
}
