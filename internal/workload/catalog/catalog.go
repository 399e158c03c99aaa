// Package catalog is the workload store behind the experiment engine:
// a concurrency-safe, seed-keyed cache that materializes each named
// workload once while it is resident and hands every engine cell an
// immutable shared view of the result.
//
// Before the catalog, every cell of a machine × workload × policy sweep
// regenerated its reference string or request stream from scratch, so a
// sweep paid the (pure, deterministic) generation cost multiplied by the
// policy count. With the catalog, cells that declare the same key block
// on a single generation — singleflight semantics — and then share one
// materialized value.
//
// # Scopes
//
// A catalog is either a root store or a child scope of one. Child
// (battery → sweep) builds the scope chain: every Get on a child is
// served from — and materializes into — the chain's root, so all the
// sweeps of an experiment battery share one store, while each child
// keeps its own traffic counters. A sweep's Stats therefore report
// that sweep's hits and misses even when the bytes live battery-wide.
//
// # Budget
//
// A root store holds at most memBudget (32 MiB) of materialized
// workloads in memory. When an entry finishes materializing it is
// charged its payload size — cap × element size for a slice value, at
// least 64 bytes for anything — and least recently used finished
// entries are evicted, through replace.KeyedLRU, until the charge is
// back within the budget. A hit makes its entry the most recently
// used. The entry just charged is never evicted, nor is one still in
// flight; erroring and poisoned entries are not charged and stay
// resident, so their errors and panics repeat as before. This is
// Randell and Kuehner's replacement problem for non-uniform units —
// variable-size workloads in a fixed amount of working storage — with
// the recency strategy the experiments evaluate.
//
// Eviction only drops the store's reference. A value a running cell
// already holds stays valid, and a later Get of an evicted key
// regenerates the value byte-identically (or replays it from the disk
// layer), because a key determines its value. What eviction does
// change is sharing: a regenerated value is a new copy, and Generations
// counts the regeneration. The budget holds the largest single run
// measured (a full battery plus all three example scenarios, about
// 19 MB) with headroom, so CLI runs never evict; it bounds the memory
// of long-lived stores such as the serve daemon's, which would
// otherwise keep every seed it has ever seen. Stats.Evictions counts
// the evictions.
//
// # Keys
//
// A key names a workload *and* its derived seed (the experiments layer
// builds keys as "<name>@<seed>", with the seed re-derived through
// sim.SeedFor when a nonzero base seed is configured). Two requests with
// the same key MUST describe byte-identical generation; the catalog
// trusts the key and never compares generator functions. With the disk
// layer enabled the key must determine the value across *processes and
// runs*, not just within one sweep — embed every generation parameter
// that can vary, and bump DiskVersion when a generator's output
// changes.
//
// # The disk layer
//
// A root store built with Options.Dir persists successful
// materializations as content-addressed files (the file name is a hash
// of the key) and replays them on later misses — across sweeps,
// worker processes, and runs. The format is a versioned header plus a
// checksummed gob payload; see disk.go. The layer only ever degrades:
// a corrupt, truncated, version-skewed, or type-skewed file is logged
// and regenerated; an unwritable directory is logged once and the
// store continues memory-only; a value gob cannot encode is simply not
// persisted. No cache condition can wedge or corrupt a sweep.
//
// # Immutability contract
//
// The catalog hands out the same underlying value (typically a
// trace.Trace or request slice) to every caller. Callers MUST treat it
// as immutable: never append to it, never write through it, never hand
// it to an API that mutates its argument. Derive per-cell state (page
// strings, policy structures) into fresh storage instead. This is what
// keeps independent cells independent — the fault-containment posture
// of the engine extends to the catalog because shared values are only
// ever read.
//
// # Fault containment
//
// A generator that panics poisons only its own entry: the panic value is
// recorded and re-raised in every caller of that key (as a
// *PoisonedError), where the engine's per-job recovery turns it into a
// FAILED cell. The sweep never wedges: waiters are always released, and
// unrelated keys are unaffected. Poisoned and erroring entries are
// never written to disk.
package catalog

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"

	"dsa/internal/replace"
)

// memBudget is the bytes of materialized workloads a root store keeps
// in memory (see the package doc's Budget section).
const memBudget = 32 << 20

// Catalog is a concurrency-safe, byte-budgeted workload store that
// materializes each key once while it is resident, or a child scope of
// one (see Child). The zero value is not usable; construct with New,
// NewStore, or Disabled (which turns every Get into a plain
// regeneration for baseline comparisons).
type Catalog struct {
	disabled bool
	parent   *Catalog // nil at a root store
	disk     *disk    // root only; nil without Options.Dir

	mu      sync.Mutex
	entries map[string]*entry         // root only
	budget  int64                     // root only: memBudget, or a test's
	lru     *replace.KeyedLRU[*entry] // root only; created on the first charge
	stats   Stats
}

// Options configures a root store.
type Options struct {
	// Dir, if nonempty, enables the content-addressed disk layer in
	// that directory (created if missing). Multiple stores — including
	// ones in other processes — may share a directory concurrently:
	// writes are atomic (temp file + rename) and readers validate a
	// checksum, so they can never observe a torn entry.
	Dir string
	// Log receives diagnostics from the disk layer's degradation paths
	// (corrupt file regenerated, unwritable directory, unencodable
	// value). Nil logs to os.Stderr; a store that must be silent can
	// pass func(string, ...interface{}) {}.
	Log func(format string, args ...interface{})
}

// entry is one materialized (or in-flight, or poisoned) workload.
type entry struct {
	key  string
	done chan struct{} // closed when materialization finishes

	// Written before done is closed, read only after.
	val    interface{}
	err    error
	poison *PoisonedError
}

// Stats counts catalog traffic, for tests and progress reporting. On a
// child scope the counters reflect that scope's own traffic; every
// count also accumulates up the chain, so a root store's Stats are
// battery-wide totals.
type Stats struct {
	// Generations is the number of generator invocations — the cold
	// misses, where the work was actually done.
	Generations int
	// Hits is the number of Get calls served from an existing in-memory
	// entry (including calls that blocked on an in-flight generation).
	Hits int
	// DiskHits is the number of misses served by loading the disk
	// layer instead of running the generator.
	DiskHits int
	// DiskWrites is the number of materializations persisted to the
	// disk layer.
	DiskWrites int
	// Poisoned is the number of entries whose generator panicked.
	Poisoned int
	// Evictions is the number of materialized entries dropped from
	// memory to keep the store within its budget.
	Evictions int
}

// Summary renders the one-line cache-effectiveness report the CLIs
// print on stderr ("3 generated, 6 hits, 2 disk hits, 3 disk writes").
func (s Stats) Summary() string {
	out := fmt.Sprintf("%d generated, %d hits, %d disk hits, %d disk writes",
		s.Generations, s.Hits, s.DiskHits, s.DiskWrites)
	if s.Poisoned > 0 {
		out += fmt.Sprintf(", %d poisoned", s.Poisoned)
	}
	if s.Evictions > 0 {
		out += fmt.Sprintf(", %d evicted", s.Evictions)
	}
	return out
}

// Zero reports whether the snapshot recorded no traffic at all.
func (s Stats) Zero() bool { return s == Stats{} }

// PoisonedError is raised (as a panic value) by every Get of a key
// whose generator panicked. The engine's per-job recovery contains it
// as a FAILED cell.
type PoisonedError struct {
	// Key is the poisoned workload's key.
	Key string
	// Cause is the recovered panic value of the original generation.
	Cause interface{}
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("catalog: workload %q poisoned: %v", e.Key, e.Cause)
}

// New returns an empty in-memory root store.
func New() *Catalog { return NewStore(Options{}) }

// NewStore returns an empty root store, with the disk layer enabled
// when o.Dir is set. An unusable directory does not fail construction:
// the store logs once and serves memory-only — the cache degrades, the
// sweep never does.
func NewStore(o Options) *Catalog {
	c := &Catalog{entries: make(map[string]*entry), budget: memBudget}
	if o.Dir != "" {
		c.disk = newDisk(o.Dir, o.Log)
	}
	return c
}

// Disabled returns a catalog that never shares: every Get invokes its
// generator directly. It exists so benchmarks and ablations can compare
// per-cell regeneration against the shared catalog without changing the
// call sites.
func Disabled() *Catalog {
	return &Catalog{disabled: true}
}

// Child returns a scope whose Gets are served from (and materialize
// into) c's root store while being counted in the child's own Stats —
// the battery → sweep scope chain. Child of a nil or disabled catalog
// returns the receiver unchanged (nothing to scope).
func (c *Catalog) Child() *Catalog {
	if c == nil || c.disabled {
		return c
	}
	return &Catalog{parent: c}
}

// root walks the scope chain to the owning store.
func (c *Catalog) root() *Catalog {
	for c.parent != nil {
		c = c.parent
	}
	return c
}

// DiskBacked reports whether the owning store has a disk layer.
// Callers use it to decide whether pinning a never-shared value (a
// unique-seed trace) buys replay on a later run or just holds memory.
func (c *Catalog) DiskBacked() bool {
	return c != nil && !c.disabled && c.root().disk != nil
}

// note applies a stats mutation to c and every ancestor, so child
// scopes count their own traffic and roots accumulate battery totals.
func (c *Catalog) note(f func(*Stats)) {
	for ; c != nil; c = c.parent {
		c.mu.Lock()
		f(&c.stats)
		c.mu.Unlock()
	}
}

// Get returns the value materialized under key, generating it with gen
// once while it is resident, no matter how many goroutines ask
// concurrently. If an earlier (or concurrent) generation panicked, Get
// panics with the recorded *PoisonedError. A nil or Disabled catalog degrades to calling
// gen directly. A key reused at a different type yields an error rather
// than a corrupt value.
func Get[T any](c *Catalog, key string, gen func() (T, error)) (T, error) {
	var zero T
	if c == nil || c.disabled {
		return gen()
	}
	var cod *codec
	if c.DiskBacked() {
		// The codec is only ever consulted by the disk layer; skip
		// building its closures on the pure in-memory path.
		cod = newCodec[T]()
	}
	v, err := c.get(key, func() (interface{}, error) { return gen() }, cod)
	if err != nil {
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("catalog: key %q holds %T, requested %T", key, v, zero)
	}
	return t, nil
}

// GetOnce materializes key like Get but never pins the value in
// memory: it is served from (and written to) the disk layer when the
// store has one, and generated directly otherwise. Use it for keys
// that are requested at most once per process — a unique-seed trace
// variant — where a memory entry could only hold space, never be
// shared. Unlike Get there is no singleflight: the at-most-once
// contract is the caller's (concurrent same-key calls would generate
// twice and atomically write the same bytes twice — wasteful, not
// wrong).
func GetOnce[T any](c *Catalog, key string, gen func() (T, error)) (T, error) {
	var zero T
	if !c.DiskBacked() {
		return gen()
	}
	r := c.root()
	cod := newCodec[T]()
	if v, ok := r.disk.load(key, cod); ok {
		t, isT := v.(T)
		if !isT {
			return zero, fmt.Errorf("catalog: key %q holds %T on disk, requested %T", key, v, zero)
		}
		c.note(func(s *Stats) { s.DiskHits++ })
		return t, nil
	}
	c.note(func(s *Stats) { s.Generations++ })
	t, err := gen()
	if err != nil {
		return zero, err
	}
	if r.disk.save(key, t, cod) {
		c.note(func(s *Stats) { s.DiskWrites++ })
	}
	return t, nil
}

// get is the untyped singleflight core. codec carries the requested
// type's gob round-trip for the disk layer (nil when the caller cannot
// provide one).
func (c *Catalog) get(key string, gen func() (interface{}, error), codec *codec) (interface{}, error) {
	r := c.root()
	r.mu.Lock()
	e, ok := r.entries[key]
	if ok {
		if r.lru != nil {
			r.lru.Touch(e) // an in-flight entry is not charged yet
		}
		r.mu.Unlock()
		c.note(func(s *Stats) { s.Hits++ })
		<-e.done
	} else {
		e = &entry{key: key, done: make(chan struct{})}
		r.entries[key] = e
		r.mu.Unlock()
		r.materialize(c, key, e, gen, codec)
	}
	if e.poison != nil {
		panic(e.poison)
	}
	return e.val, e.err
}

// materialize fills one entry — from the disk layer when it has a
// valid copy, by running the generator otherwise — charges a
// successful one to the budget, then releases all waiters. The done channel is closed on every path, so a panicking
// generator can never wedge the sweep. r is the owning root; scope is
// the catalog the request arrived on, charged with the stats.
func (r *Catalog) materialize(scope *Catalog, key string, e *entry, gen func() (interface{}, error), codec *codec) {
	defer close(e.done)
	defer func() {
		if p := recover(); p != nil {
			e.poison = &PoisonedError{Key: key, Cause: p}
			scope.note(func(s *Stats) { s.Poisoned++ })
		}
	}()
	if r.disk != nil && codec != nil {
		if v, ok := r.disk.load(key, codec); ok {
			e.val = v
			scope.note(func(s *Stats) { s.DiskHits++ })
			r.charge(scope, e)
			return
		}
	}
	scope.note(func(s *Stats) { s.Generations++ })
	e.val, e.err = gen()
	if e.err != nil {
		return
	}
	if r.disk != nil && codec != nil {
		if r.disk.save(key, e.val, codec) {
			scope.note(func(s *Stats) { s.DiskWrites++ })
		}
	}
	r.charge(scope, e)
}

// charge adds a finished entry to the root's budget and evicts least
// recently used entries until the budget holds again. Eviction deletes
// only the store's map entry, and only while it still names the
// evicted entry; holders of the value keep it.
func (r *Catalog) charge(scope *Catalog, e *entry) {
	evicted := 0
	r.mu.Lock()
	if r.lru == nil {
		r.lru = replace.NewKeyedLRU[*entry](r.budget)
	}
	r.lru.Charge(e, size(e.val), func(old *entry) {
		if r.entries[old.key] == old {
			delete(r.entries, old.key)
		}
		evicted++
	})
	r.mu.Unlock()
	if evicted > 0 {
		scope.note(func(s *Stats) { s.Evictions += evicted })
	}
}

// size is the bytes a materialized value is charged: capacity times
// element size for a slice (the workloads are traces, request streams
// and page strings), and at least 64 bytes for anything.
func size(v interface{}) int64 {
	const floor = 64
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Slice {
		return floor
	}
	return max(floor, int64(rv.Cap())*int64(rv.Type().Elem().Size()))
}

// Stats returns a snapshot of the catalog's traffic counters (this
// scope's own traffic; a root's counters are battery-wide totals).
func (c *Catalog) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Keys returns the sorted keys currently resident in the owning store:
// materialized and not evicted, in flight, or poisoned.
func (c *Catalog) Keys() []string {
	if c == nil {
		return nil
	}
	r := c.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.entries))
	for k := range r.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// stderrLog is the default disk-layer diagnostic sink.
func stderrLog(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "catalog: "+format+"\n", args...)
}
