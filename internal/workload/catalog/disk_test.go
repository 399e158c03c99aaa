package catalog

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dsa/internal/sim"
	"dsa/internal/trace"
	"dsa/internal/workload"
)

// quiet collects disk-layer diagnostics instead of printing them.
type quiet struct {
	mu    sync.Mutex
	lines []string
}

func (q *quiet) logf(format string, args ...interface{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.lines = append(q.lines, fmt.Sprintf(format, args...))
}

func (q *quiet) joined() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return strings.Join(q.lines, "\n")
}

// genWS builds the reference workload the disk tests round-trip.
func genWS(seed uint64) (trace.Trace, error) {
	return workload.WorkingSet(sim.NewRNG(seed), workload.WorkingSetConfig{
		Extent: 4096, SetWords: 512, PhaseLen: 400, Phases: 3, LocalityProb: 0.9,
	})
}

// TestDiskColdWriteWarmRead is the disk layer's core contract: a cold
// store generates and persists; a fresh store on the same directory
// replays the identical value from disk without running the generator.
func TestDiskColdWriteWarmRead(t *testing.T) {
	dir := t.TempDir()
	var q quiet

	cold := NewStore(Options{Dir: dir, Log: q.logf})
	if !cold.DiskBacked() || !cold.Child().DiskBacked() {
		t.Error("disk-backed store (and its children) must report DiskBacked")
	}
	if New().DiskBacked() || Disabled().DiskBacked() || (*Catalog)(nil).DiskBacked() {
		t.Error("memory-only, disabled and nil catalogs must not report DiskBacked")
	}
	var gens atomic.Int64
	gen := func() (trace.Trace, error) { gens.Add(1); return genWS(5) }
	want, err := Get(cold, "ws@5", gen)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Generations != 1 || st.DiskWrites != 1 || st.DiskHits != 0 {
		t.Errorf("cold stats = %+v, want 1 generation + 1 disk write", st)
	}

	warm := NewStore(Options{Dir: dir, Log: q.logf})
	got, err := Get(warm, "ws@5", gen)
	if err != nil {
		t.Fatal(err)
	}
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times; the warm store should have read disk", n)
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.Generations != 0 {
		t.Errorf("warm stats = %+v, want 1 disk hit and no generations", st)
	}
	if len(got) != len(want) {
		t.Fatalf("disk round trip changed length: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("disk round trip changed ref %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if diag := q.joined(); diag != "" {
		t.Errorf("healthy round trip logged diagnostics:\n%s", diag)
	}
}

// TestDiskCorruptFileRegenerates: a flipped payload byte must fail the
// checksum, be logged, and be regenerated — never replayed as science.
func TestDiskCorruptFileRegenerates(t *testing.T) {
	dir := t.TempDir()
	var q quiet
	cold := NewStore(Options{Dir: dir, Log: q.logf})
	if _, err := Get(cold, "k", func() ([]int, error) { return []int{1, 2, 3}, nil }); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.wl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files = %v (%v), want exactly 1", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := NewStore(Options{Dir: dir, Log: q.logf})
	var gens atomic.Int64
	v, err := Get(warm, "k", func() ([]int, error) { gens.Add(1); return []int{1, 2, 3}, nil })
	if err != nil || len(v) != 3 {
		t.Fatalf("Get over corrupt file = %v, %v", v, err)
	}
	if gens.Load() != 1 {
		t.Error("corrupt file was not regenerated")
	}
	if st := warm.Stats(); st.DiskHits != 0 || st.Generations != 1 || st.DiskWrites != 1 {
		t.Errorf("stats = %+v, want regeneration + rewrite", st)
	}
	if diag := q.joined(); !strings.Contains(diag, "checksum") {
		t.Errorf("corruption not logged; diagnostics:\n%s", diag)
	}
	// The rewrite must have healed the file.
	var q2 quiet
	healed := NewStore(Options{Dir: dir, Log: q2.logf})
	if _, err := Get(healed, "k", func() ([]int, error) {
		t.Error("healed file still regenerates")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDiskVersionMismatchRegenerates: a file written at another
// DiskVersion is stale science; it must be logged and regenerated.
func TestDiskVersionMismatchRegenerates(t *testing.T) {
	dir := t.TempDir()
	var q quiet
	st := NewStore(Options{Dir: dir, Log: q.logf})
	if _, err := Get(st, "k", func() (string, error) { return "v1", nil }); err != nil {
		t.Fatal(err)
	}

	// Overwrite the entry with a doctored header claiming a future
	// version, through the layer's own raw writer.
	d := st.disk
	c := newCodec[string]()
	payload, err := c.encode("vFuture")
	if err != nil {
		t.Fatal(err)
	}
	writeWithVersion(t, d, "k", payload, c, DiskVersion+1)

	var q2 quiet
	warm := NewStore(Options{Dir: dir, Log: q2.logf})
	v, err := Get(warm, "k", func() (string, error) { return "regenerated", nil })
	if err != nil || v != "regenerated" {
		t.Fatalf("Get over version-skewed file = %q, %v", v, err)
	}
	if diag := q2.joined(); !strings.Contains(diag, "version") {
		t.Errorf("version skew not logged; diagnostics:\n%s", diag)
	}
}

// TestDiskTypeMismatchRegenerates: the same key read back at a
// different type must regenerate, not mis-decode.
func TestDiskTypeMismatchRegenerates(t *testing.T) {
	dir := t.TempDir()
	var q quiet
	if _, err := Get(NewStore(Options{Dir: dir, Log: q.logf}), "k",
		func() ([]int, error) { return []int{1}, nil }); err != nil {
		t.Fatal(err)
	}
	warm := NewStore(Options{Dir: dir, Log: q.logf})
	v, err := Get(warm, "k", func() (string, error) { return "typed", nil })
	if err != nil || v != "typed" {
		t.Fatalf("cross-type Get = %q, %v", v, err)
	}
	if diag := q.joined(); !strings.Contains(diag, "want string") {
		t.Errorf("type skew not logged; diagnostics:\n%s", diag)
	}
}

// TestDiskReadOnlyDirFallsBackToMemory: a store whose directory cannot
// be created (here: a path under a regular file, which fails for any
// uid, root included) must log once and keep serving from memory.
func TestDiskReadOnlyDirFallsBackToMemory(t *testing.T) {
	tmp := t.TempDir()
	blocker := filepath.Join(tmp, "blocker")
	if err := os.WriteFile(blocker, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	var q quiet
	st := NewStore(Options{Dir: filepath.Join(blocker, "cache"), Log: q.logf})

	var gens atomic.Int64
	for i := 0; i < 3; i++ {
		v, err := Get(st, "k", func() (int, error) { gens.Add(1); return 42, nil })
		if err != nil || v != 42 {
			t.Fatalf("Get %d = %d, %v", i, v, err)
		}
	}
	if gens.Load() != 1 {
		t.Errorf("generator ran %d times; memory layer must still singleflight", gens.Load())
	}
	if s := st.Stats(); s.Generations != 1 || s.Hits != 2 || s.DiskWrites != 0 {
		t.Errorf("stats = %+v, want memory-only traffic", s)
	}
	if diag := q.joined(); !strings.Contains(diag, "memory-only") {
		t.Errorf("degradation not logged; diagnostics:\n%s", diag)
	}
	if lines := strings.Count(q.joined(), "\n") + 1; lines > 1 {
		t.Errorf("degradation logged %d times, want once:\n%s", lines, q.joined())
	}
}

// TestDiskUnencodableValueStaysMemoryOnly: a value gob rejects (an
// unexported-field struct, like fig4's trace refs) is served from
// memory, logged once, and never poisons the store's writability.
func TestDiskUnencodableValueStaysMemoryOnly(t *testing.T) {
	type hidden struct{ x int } //nolint:unused // unexported field defeats gob by design
	dir := t.TempDir()
	var q quiet
	st := NewStore(Options{Dir: dir, Log: q.logf})
	v, err := Get(st, "opaque", func() ([]hidden, error) { return []hidden{{1}}, nil })
	if err != nil || len(v) != 1 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if !strings.Contains(q.joined(), "not disk-cacheable") {
		t.Errorf("unencodable value not logged:\n%s", q.joined())
	}
	// A later encodable key must still persist: the store stays writable.
	if _, err := Get(st, "fine", func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.DiskWrites != 1 {
		t.Errorf("stats = %+v, want the encodable key written", s)
	}
}

// TestDiskConcurrentStoresShareOneDir: many stores (standing in for
// worker processes) hammering one directory with overlapping keys must
// all see correct values, and a fresh wave of stores must then be
// served entirely from disk — the atomic-rename write discipline at
// work.
func TestDiskConcurrentStoresShareOneDir(t *testing.T) {
	dir := t.TempDir()
	var q quiet
	const stores = 4
	const keys = 6
	var wg sync.WaitGroup
	for s := 0; s < stores; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := NewStore(Options{Dir: dir, Log: q.logf})
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("ws@%d", k)
				tr, err := Get(st, key, func() (trace.Trace, error) { return genWS(uint64(k)) })
				if err != nil || len(tr) == 0 {
					t.Errorf("store: Get(%s) = %d refs, %v", key, len(tr), err)
				}
			}
		}()
	}
	wg.Wait()
	if diag := q.joined(); diag != "" {
		t.Errorf("concurrent stores logged diagnostics:\n%s", diag)
	}

	// Second wave: every key replays from disk, no generation anywhere.
	st := NewStore(Options{Dir: dir, Log: q.logf})
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("ws@%d", k)
		want, err := genWS(uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Get(st, key, func() (trace.Trace, error) {
			t.Errorf("%s regenerated on a warm directory", key)
			return nil, nil
		})
		if err != nil || len(got) != len(want) {
			t.Fatalf("warm Get(%s) = %d refs, %v; want %d", key, len(got), err, len(want))
		}
	}
	if s := st.Stats(); s.DiskHits != keys || s.Generations != 0 {
		t.Errorf("warm stats = %+v, want %d disk hits", s, keys)
	}
}

// TestGetOnceNeverPins: GetOnce round-trips through the disk layer
// without creating a memory entry — the path for unique-seed traces
// that could never be shared within a run — and degrades to a plain
// generation on a memory-only, disabled, or nil catalog.
func TestGetOnceNeverPins(t *testing.T) {
	dir := t.TempDir()
	var q quiet
	st := NewStore(Options{Dir: dir, Log: q.logf})
	var gens atomic.Int64
	gen := func() ([]int, error) { gens.Add(1); return []int{1, 2, 3}, nil }

	if v, err := GetOnce(st, "once@1", gen); err != nil || len(v) != 3 {
		t.Fatalf("cold GetOnce = %v, %v", v, err)
	}
	if len(st.Keys()) != 0 {
		t.Errorf("GetOnce pinned %d entries in memory, want 0", len(st.Keys()))
	}
	if s := st.Stats(); s.Generations != 1 || s.DiskWrites != 1 {
		t.Errorf("cold stats = %+v, want 1 generation + 1 disk write", s)
	}
	if v, err := GetOnce(st, "once@1", gen); err != nil || len(v) != 3 {
		t.Fatalf("warm GetOnce = %v, %v", v, err)
	}
	if gens.Load() != 1 {
		t.Errorf("generator ran %d times; the warm call should have read disk", gens.Load())
	}
	if s := st.Stats(); s.DiskHits != 1 || len(st.Keys()) != 0 {
		t.Errorf("warm stats = %+v (len %d), want a disk hit and still no pin", s, len(st.Keys()))
	}

	// A child scope charges its own stats and still does not pin.
	child := st.Child()
	if _, err := GetOnce(child, "once@1", gen); err != nil {
		t.Fatal(err)
	}
	if s := child.Stats(); s.DiskHits != 1 {
		t.Errorf("child stats = %+v, want the disk hit", s)
	}

	// Without a disk layer GetOnce is a plain generation.
	for name, c := range map[string]*Catalog{"memory": New(), "disabled": Disabled(), "nil": nil} {
		var n atomic.Int64
		for i := 0; i < 2; i++ {
			if v, err := GetOnce(c, "k", func() (int, error) { n.Add(1); return 7, nil }); err != nil || v != 7 {
				t.Fatalf("%s: GetOnce = %d, %v", name, v, err)
			}
		}
		if n.Load() != 2 {
			t.Errorf("%s: generator ran %d times, want 2 (no caching anywhere)", name, n.Load())
		}
		if len(c.Keys()) != 0 {
			t.Errorf("%s: GetOnce pinned entries", name)
		}
	}
}

// TestChildScopesShareRootStore pins the battery → sweep scope chain:
// two children share one materialization through the root, each child
// counts its own traffic, and the root accumulates the totals.
func TestChildScopesShareRootStore(t *testing.T) {
	root := New()
	sweepA, sweepB := root.Child(), root.Child()

	var gens atomic.Int64
	gen := func() (int, error) { gens.Add(1); return 9, nil }
	if v, err := Get(sweepA, "shared", gen); err != nil || v != 9 {
		t.Fatalf("sweepA Get = %d, %v", v, err)
	}
	if v, err := Get(sweepB, "shared", gen); err != nil || v != 9 {
		t.Fatalf("sweepB Get = %d, %v", v, err)
	}
	if gens.Load() != 1 {
		t.Fatalf("generator ran %d times across sweeps, want 1 (battery-wide share)", gens.Load())
	}

	a, b, r := sweepA.Stats(), sweepB.Stats(), root.Stats()
	if a.Generations != 1 || a.Hits != 0 {
		t.Errorf("sweepA stats = %+v, want the generation", a)
	}
	if b.Generations != 0 || b.Hits != 1 {
		t.Errorf("sweepB stats = %+v, want the cross-sweep hit", b)
	}
	if r.Generations != 1 || r.Hits != 1 {
		t.Errorf("root stats = %+v, want battery totals", r)
	}
	if n := len(root.Keys()); n != 1 {
		t.Errorf("root holds %d keys, want 1", n)
	}

	// A poisoned generation in one sweep is visible to the other —
	// same entry, same containment.
	func() {
		defer func() { recover() }()
		Get(sweepA, "bad", func() (int, error) { panic("boom") })
	}()
	var p interface{}
	func() {
		defer func() { p = recover() }()
		Get(sweepB, "bad", func() (int, error) { return 0, nil })
	}()
	if pe, ok := p.(*PoisonedError); !ok || pe.Key != "bad" {
		t.Errorf("sweepB recovered %v, want the shared poison", p)
	}

	// Child of nil and of Disabled degrade like their parents.
	var nilCat *Catalog
	if nilCat.Child() != nil {
		t.Error("Child of nil != nil")
	}
	d := Disabled()
	if d.Child() != d {
		t.Error("Child of Disabled() should be the same regenerating catalog")
	}
}

// TestStatsSummary pins the CLI cache-effectiveness line.
func TestStatsSummary(t *testing.T) {
	s := Stats{Generations: 3, Hits: 6, DiskHits: 2, DiskWrites: 3}
	if got, want := s.Summary(), "3 generated, 6 hits, 2 disk hits, 3 disk writes"; got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
	s.Poisoned = 1
	if got := s.Summary(); !strings.Contains(got, "1 poisoned") {
		t.Errorf("Summary with poison = %q", got)
	}
	if !(Stats{}).Zero() || s.Zero() {
		t.Error("Zero() misreports")
	}
}

// writeWithVersion writes a cache entry with an arbitrary header
// version, bypassing save's pinning — test scaffolding for skew.
func writeWithVersion(t *testing.T, d *disk, key string, payload []byte, c *codec, version int) {
	t.Helper()
	f, err := os.CreateTemp(d.dir, ".wl-*")
	if err != nil {
		t.Fatal(err)
	}
	hdr := diskHeader{Magic: diskMagic, Version: version, Key: key, Type: c.typeName,
		Sum: crc32.ChecksumIEEE(payload)}
	if err := writeRaw(f, hdr, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(f.Name(), d.path(key)); err != nil {
		t.Fatal(err)
	}
}
