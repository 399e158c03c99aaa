package catalog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dsa/internal/sim"
	"dsa/internal/trace"
	"dsa/internal/workload"
)

// TestSingleMaterializationUnderConcurrency is the core contract: many
// goroutines racing on one key trigger exactly one generation, and all
// of them see the same shared value. Run under -race this also proves
// the hand-off is properly synchronized.
func TestSingleMaterializationUnderConcurrency(t *testing.T) {
	c := New()
	var gens atomic.Int64
	const goroutines = 32
	values := make([]trace.Trace, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := Get(c, "ws@5", func() (trace.Trace, error) {
				gens.Add(1)
				return workload.WorkingSet(sim.NewRNG(5), workload.WorkingSetConfig{
					Extent: 4096, SetWords: 512, PhaseLen: 500, Phases: 4,
					LocalityProb: 0.9,
				})
			})
			if err != nil {
				t.Error(err)
				return
			}
			values[i] = tr
		}()
	}
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times, want exactly 1", n)
	}
	for i := 1; i < goroutines; i++ {
		if &values[i][0] != &values[0][0] {
			t.Fatalf("goroutine %d received a distinct copy, not the shared trace", i)
		}
	}
	st := c.Stats()
	if st.Generations != 1 || st.Hits != goroutines-1 {
		t.Errorf("stats = %+v, want 1 generation and %d hits", st, goroutines-1)
	}
}

// TestDistinctKeysMaterializeIndependently: different keys generate
// independently and keep their own values.
func TestDistinctKeysMaterializeIndependently(t *testing.T) {
	c := New()
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		want := i * 100
		got, err := Get(c, key, func() (int, error) { return want, nil })
		if err != nil || got != want {
			t.Fatalf("Get(%s) = %d, %v; want %d", key, got, err, want)
		}
	}
	keys := c.Keys()
	if len(keys) != 4 || keys[0] != "k0" || keys[3] != "k3" {
		t.Errorf("Keys = %v", keys)
	}
}

// TestPoisonedEntryRepanicsForEveryGetter: a generator panic is
// recorded once and re-raised as a *PoisonedError for the original
// caller and every later caller of the same key; other keys and the
// catalog itself stay usable.
func TestPoisonedEntryRepanicsForEveryGetter(t *testing.T) {
	c := New()
	var gens atomic.Int64
	getPoisoned := func() (recovered interface{}) {
		defer func() { recovered = recover() }()
		_, _ = Get(c, "bad@1", func() (int, error) {
			gens.Add(1)
			panic("generator exploded")
		})
		return nil
	}
	for i := 0; i < 3; i++ {
		p := getPoisoned()
		pe, ok := p.(*PoisonedError)
		if !ok {
			t.Fatalf("call %d: recovered %T (%v), want *PoisonedError", i, p, p)
		}
		if pe.Key != "bad@1" || fmt.Sprint(pe.Cause) != "generator exploded" {
			t.Errorf("call %d: poison = %+v", i, pe)
		}
	}
	if n := gens.Load(); n != 1 {
		t.Errorf("poisoned generator ran %d times, want 1 (entry stays poisoned)", n)
	}
	// An unrelated key is unaffected.
	if v, err := Get(c, "good@1", func() (string, error) { return "fine", nil }); err != nil || v != "fine" {
		t.Errorf("healthy key after poisoning: %q, %v", v, err)
	}
	if st := c.Stats(); st.Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1", st.Poisoned)
	}
}

// TestConcurrentWaitersOnPoisonedEntry: goroutines blocked on an
// in-flight generation that panics are all released with the poison —
// the sweep can never wedge on a dead generator.
func TestConcurrentWaitersOnPoisonedEntry(t *testing.T) {
	c := New()
	release := make(chan struct{})
	const waiters = 8
	var poisoned atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if _, ok := recover().(*PoisonedError); ok {
					poisoned.Add(1)
				}
			}()
			_, _ = Get(c, "slow-bad", func() (int, error) {
				<-release
				panic("late explosion")
			})
		}()
	}
	close(release)
	wg.Wait()
	if n := poisoned.Load(); n != waiters {
		t.Fatalf("%d of %d waiters saw the poison", n, waiters)
	}
}

// TestErrorsAreCachedNotPoisonous: an ordinary generator error is
// returned (not panicked) to every caller without regeneration.
func TestErrorsAreCachedNotPoisonous(t *testing.T) {
	c := New()
	var gens atomic.Int64
	boom := errors.New("bad config")
	for i := 0; i < 3; i++ {
		_, err := Get(c, "err@1", func() (int, error) {
			gens.Add(1)
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want %v", i, err, boom)
		}
	}
	if n := gens.Load(); n != 1 {
		t.Errorf("erroring generator ran %d times, want 1", n)
	}
}

// TestTypeMismatchIsAnError: reusing a key at a different type must
// fail loudly instead of handing back a corrupt value.
func TestTypeMismatchIsAnError(t *testing.T) {
	c := New()
	if _, err := Get(c, "k", func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	_, err := Get(c, "k", func() (string, error) { return "x", nil })
	if err == nil {
		t.Fatal("type-mismatched Get succeeded")
	}
}

// TestDisabledAndNilCatalogsRegenerate: Disabled() and a nil catalog
// degrade to per-call regeneration — the baseline the benchmark
// compares against.
func TestDisabledAndNilCatalogsRegenerate(t *testing.T) {
	for name, c := range map[string]*Catalog{"disabled": Disabled(), "nil": nil} {
		var gens atomic.Int64
		for i := 0; i < 5; i++ {
			v, err := Get(c, "k", func() (int, error) {
				gens.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Fatalf("%s: Get = %d, %v", name, v, err)
			}
		}
		if n := gens.Load(); n != 5 {
			t.Errorf("%s: generator ran %d times, want 5 (no sharing)", name, n)
		}
	}
}
