package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsa/internal/metrics"
	"dsa/internal/workload/catalog"
)

// sweepTable runs a fixed 24-cell sweep at the given parallelism and
// renders the aggregated table. Each cell draws from its keyed RNG, so
// any leakage of scheduling order into seeding would change the text.
func sweepTable(t *testing.T, parallel int, seed uint64) string {
	t.Helper()
	eng := New(Config{Parallel: parallel, Seed: seed})
	jobs := make([]Job, 24)
	for i := range jobs {
		key := fmt.Sprintf("cell-%d", i)
		jobs[i] = Job{Key: key, Run: func(ctx context.Context, env Env) (interface{}, error) {
			// Simulated work: a small deterministic random walk.
			sum := uint64(0)
			for j := 0; j < 1000; j++ {
				sum += env.RNG.Uint64() % 1000
			}
			return RowBatch{{key, sum, env.RNG.Intn(100)}}, nil
		}}
	}
	tb := &metrics.Table{Title: "sweep", Header: []string{"cell", "sum", "draw"}}
	if _, err := eng.FillTable(context.Background(), tb, jobs); err != nil {
		t.Fatal(err)
	}
	return tb.String()
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	serial := sweepTable(t, 1, 7)
	for _, p := range []int{2, 4, 8} {
		if got := sweepTable(t, p, 7); got != serial {
			t.Errorf("parallel=%d table differs from serial:\n%s\nvs\n%s", p, got, serial)
		}
	}
}

func TestSeedChangesStreams(t *testing.T) {
	if sweepTable(t, 4, 7) == sweepTable(t, 4, 8) {
		t.Error("different base seeds produced identical sweeps")
	}
}

func TestSeedingIndependentOfOrder(t *testing.T) {
	// The same key must receive the same RNG stream regardless of its
	// position in the job slice.
	draw := func(jobs []Job, wantKey string) uint64 {
		t.Helper()
		eng := New(Config{Parallel: 4, Seed: 3})
		for _, r := range eng.Run(context.Background(), jobs) {
			if r.Key == wantKey {
				return r.Value.(uint64)
			}
		}
		t.Fatalf("key %q not found", wantKey)
		return 0
	}
	mk := func(key string) Job {
		return Job{Key: key, Run: func(ctx context.Context, env Env) (interface{}, error) {
			return env.RNG.Uint64(), nil
		}}
	}
	a := draw([]Job{mk("x"), mk("y"), mk("z")}, "y")
	b := draw([]Job{mk("z"), mk("y"), mk("x")}, "y")
	if a != b {
		t.Errorf("key-derived stream changed with submission order: %d vs %d", a, b)
	}
}

func TestPanicIsolation(t *testing.T) {
	eng := New(Config{Parallel: 4})
	jobs := make([]Job, 9)
	for i := range jobs {
		i := i
		jobs[i] = Job{Key: fmt.Sprintf("job-%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
			if i == 4 {
				panic("poisoned cell")
			}
			return RowBatch{{i, "ok", i * 10, i * 100}}, nil
		}}
	}
	tb := &metrics.Table{Header: []string{"i", "status", "x", "y"}}
	results, err := eng.FillTable(context.Background(), tb, jobs)
	if err != nil {
		t.Fatalf("contained panic still aborted the sweep: %v", err)
	}
	var panicked int
	for _, r := range results {
		if r.Panicked {
			panicked++
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Errorf("panicked cell error %T, want *PanicError", r.Err)
			} else if pe.Key != "job-4" || len(pe.Stack) == 0 {
				t.Errorf("panic error incomplete: key=%q stack=%d bytes", pe.Key, len(pe.Stack))
			}
		} else if r.Failed() {
			t.Errorf("healthy cell %s failed: %v", r.Key, r.Err)
		}
	}
	if panicked != 1 {
		t.Fatalf("panicked cells = %d, want exactly 1", panicked)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("table rows = %d, want 9 (8 ok + 1 failure marker)", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[4][1], "FAILED: poisoned cell") {
		t.Errorf("failure marker row = %v", tb.Rows[4])
	}
	// The marker must be padded to the header width so consumers
	// indexing by column never walk off a short row.
	if len(tb.Rows[4]) != len(tb.Header) {
		t.Errorf("failure row has %d columns, header has %d", len(tb.Rows[4]), len(tb.Header))
	}
}

func TestErrorAbortsTableAndCancelsRemainingCells(t *testing.T) {
	eng := New(Config{Parallel: 1})
	var ranFirst atomic.Bool
	var lateOutcome atomic.Value
	jobs := []Job{
		{Key: "ok", Run: func(ctx context.Context, env Env) (interface{}, error) {
			ranFirst.Store(true)
			return RowBatch{{"ok"}}, nil
		}},
		{Key: "bad", Run: func(ctx context.Context, env Env) (interface{}, error) {
			return nil, errors.New("broken config")
		}},
		{Key: "late", Run: func(ctx context.Context, env Env) (interface{}, error) {
			// A fatal sibling error must cancel this cell: either it is
			// never started, or its context dies promptly.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				lateOutcome.Store("ran to completion")
				return RowBatch{{"late"}}, nil
			}
		}},
	}
	tb := &metrics.Table{Header: []string{"k"}}
	results, err := eng.FillTable(context.Background(), tb, jobs)
	if err == nil || !strings.Contains(err.Error(), "broken config") {
		t.Fatalf("err = %v, want cell error", err)
	}
	if !ranFirst.Load() {
		t.Error("cell before the error did not run")
	}
	if v := lateOutcome.Load(); v != nil {
		t.Errorf("cell after fatal error %v instead of being cancelled", v)
	}
	if !errors.Is(results[2].Err, context.Canceled) {
		t.Errorf("late cell error = %v, want context.Canceled", results[2].Err)
	}
}

func TestCancellation(t *testing.T) {
	eng := New(Config{Parallel: 2})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	const n = 40
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("j%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
			once.Do(func() { close(started) })
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Millisecond):
				return "done", nil
			}
		}}
	}
	go func() {
		<-started
		cancel()
	}()
	results := eng.Run(ctx, jobs)
	if len(results) != n {
		t.Fatalf("results = %d, want %d", len(results), n)
	}
	var cancelled int
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("cancellation reached no jobs")
	}
	// Every job, cancelled or not, must be accounted for.
	for i, r := range results {
		if r.Key == "" && r.Err == nil && r.Value == nil {
			t.Errorf("job %d has no recorded outcome", i)
		}
	}
}

func TestStreamEmitsInJobOrder(t *testing.T) {
	eng := New(Config{Parallel: 8})
	const n = 50
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Key: fmt.Sprintf("j%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
			// Vary completion time so out-of-order finishes are likely.
			time.Sleep(time.Duration(env.RNG.Intn(3)) * time.Millisecond)
			return i, nil
		}}
	}
	var order []int
	eng.Stream(context.Background(), jobs, func(r Result) {
		order = append(order, r.Index)
	})
	if len(order) != n {
		t.Fatalf("emitted %d results, want %d", len(order), n)
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("emit order[%d] = %d; stream must deliver in job order", i, idx)
		}
	}
}

func TestZeroJobs(t *testing.T) {
	eng := New(Config{})
	if got := eng.Run(context.Background(), nil); len(got) != 0 {
		t.Errorf("Run(nil) = %d results", len(got))
	}
	tb := &metrics.Table{Header: []string{"x"}}
	if _, err := eng.FillTable(context.Background(), tb, nil); err != nil {
		t.Errorf("FillTable(nil) err = %v", err)
	}
}

// TestSharedCatalogMaterializesOnce: every job of a sweep asking the
// sweep catalog for the same key triggers exactly one generation, at
// any parallelism.
func TestSharedCatalogMaterializesOnce(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		eng := New(Config{Parallel: parallel, Seed: 1})
		var gens atomic.Int64
		jobs := make([]Job, 16)
		for i := range jobs {
			jobs[i] = Job{Key: fmt.Sprintf("cell-%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
				tr, err := catalog.Get(env.Catalog, "shared-workload", func() ([]int, error) {
					gens.Add(1)
					return []int{1, 2, 3}, nil
				})
				if err != nil {
					return nil, err
				}
				return len(tr), nil
			}}
		}
		results := eng.Run(context.Background(), jobs)
		for _, r := range results {
			if r.Failed() || r.Value.(int) != 3 {
				t.Fatalf("parallel=%d: cell %s = %v, %v", parallel, r.Key, r.Value, r.Err)
			}
		}
		if n := gens.Swap(0); n != 1 {
			t.Errorf("parallel=%d: shared workload generated %d times, want 1", parallel, n)
		}
	}
}

// TestPoisonedCatalogEntrySurfacesAsFailedCells: a workload generator
// that panics poisons its catalog entry; every cell that declared that
// workload becomes a FAILED row, cells on other workloads succeed, and
// the sweep completes rather than wedging.
func TestPoisonedCatalogEntrySurfacesAsFailedCells(t *testing.T) {
	eng := New(Config{Parallel: 4, Seed: 1})
	const cells = 12
	jobs := make([]Job, cells)
	for i := range jobs {
		i := i
		jobs[i] = Job{Key: fmt.Sprintf("cell-%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
			if i%2 == 0 {
				// Even cells share a workload whose generator dies.
				_, err := catalog.Get(env.Catalog, "poisoned-workload", func() (int, error) {
					panic("generator exploded")
				})
				return nil, err
			}
			v, err := catalog.Get(env.Catalog, "healthy-workload", func() (int, error) {
				return 7, nil
			})
			if err != nil {
				return nil, err
			}
			return RowBatch{{fmt.Sprintf("cell-%d", i), v}}, nil
		}}
	}
	tb := &metrics.Table{Header: []string{"cell", "value"}}
	results, err := eng.FillTable(context.Background(), tb, jobs)
	if err != nil {
		t.Fatalf("poisoned workload aborted the sweep: %v", err)
	}
	var failed, ok int
	for i, r := range results {
		if i%2 == 0 {
			if !r.Panicked {
				t.Errorf("cell %d on the poisoned workload did not fail", i)
				continue
			}
			failed++
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Errorf("cell %d error %T, want *PanicError", i, r.Err)
				continue
			}
			poison, isPoison := pe.Value.(*catalog.PoisonedError)
			if !isPoison || poison.Key != "poisoned-workload" {
				t.Errorf("cell %d panic value = %v, want PoisonedError for the workload", i, pe.Value)
			}
		} else {
			if r.Failed() {
				t.Errorf("cell %d on the healthy workload failed: %v", i, r.Err)
				continue
			}
			ok++
		}
	}
	if failed != cells/2 || ok != cells/2 {
		t.Fatalf("failed=%d ok=%d, want %d each", failed, ok, cells/2)
	}
	if len(tb.Rows) != cells {
		t.Fatalf("table rows = %d, want %d (healthy rows + FAILED markers)", len(tb.Rows), cells)
	}
	if !strings.Contains(tb.Rows[0][1], "FAILED") || !strings.Contains(tb.Rows[0][1], "poisoned") {
		t.Errorf("marker row = %v", tb.Rows[0])
	}
	// The generation was attempted once; the poison was shared.
	if st := eng.Catalog().Stats(); st.Poisoned != 1 || st.Generations != 2 {
		t.Errorf("catalog stats = %+v, want 1 poisoned of 2 generations", st)
	}
}

// TestProgressReporting: the observer sees monotone done counts ending
// at total, with failures attributed.
func TestProgressReporting(t *testing.T) {
	eng := New(Config{Parallel: 4, OnProgress: nil})
	_ = eng // the nil-observer path is exercised by every other test
	var snaps []Progress
	var mu sync.Mutex
	eng = New(Config{Parallel: 4, OnProgress: func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		snaps = append(snaps, p)
	}})
	const n = 10
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Key: fmt.Sprintf("j%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
			if i == 3 {
				return nil, errors.New("broken cell")
			}
			return i, nil
		}}
	}
	eng.Run(context.Background(), jobs)
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) != n {
		t.Fatalf("observer called %d times, want %d", len(snaps), n)
	}
	for i, p := range snaps {
		if p.Total != n {
			t.Errorf("snapshot %d: total = %d, want %d", i, p.Total, n)
		}
		if p.Done != i+1 {
			t.Errorf("snapshot %d: done = %d, want %d (serialized, monotone)", i, p.Done, i+1)
		}
		if p.Done < p.Total && p.ETA < 0 {
			t.Errorf("snapshot %d: negative ETA %v", i, p.ETA)
		}
	}
	last := snaps[n-1]
	if last.Done != n || last.Failed != 1 || last.ETA != 0 {
		t.Errorf("final snapshot = %+v, want done=%d failed=1 eta=0", last, n)
	}
	if last.String() == "" {
		t.Error("progress renders empty")
	}
}

// TestProgressTrackerETAMath pins the tracker's arithmetic directly:
// ETA is a linear extrapolation from completed cells — elapsed/done ×
// remaining — zero once the sweep is done, and Failed counts exactly
// the cells recorded as failed.
func TestProgressTrackerETAMath(t *testing.T) {
	var snaps []Progress
	p := newProgressTracker(4, func(s Progress) { snaps = append(snaps, s) })
	// Pretend the sweep started 900ms ago so elapsed is a known
	// quantity (up to scheduling jitter, bounded below by 900ms).
	p.start = time.Now().Add(-900 * time.Millisecond)

	p.record(false)
	first := snaps[0]
	if first.Total != 4 || first.Done != 1 || first.Failed != 0 {
		t.Fatalf("first snapshot = %+v, want total=4 done=1 failed=0", first)
	}
	if first.Elapsed < 900*time.Millisecond {
		t.Errorf("elapsed = %v, want >= 900ms", first.Elapsed)
	}
	// done=1 of 4: ETA = elapsed × 3. Allow generous scheduling slack
	// above the exact 2.7s.
	if first.ETA < 2700*time.Millisecond || first.ETA > 6*time.Second {
		t.Errorf("ETA at 1/4 = %v, want ~2.7s (3× elapsed)", first.ETA)
	}

	p.record(true)
	second := snaps[1]
	if second.Failed != 1 {
		t.Errorf("failed after one failure = %d, want 1", second.Failed)
	}
	// done=2 of 4: ETA = elapsed — the halfway point of a linear model.
	if second.ETA < second.Elapsed/2 || second.ETA > 2*second.Elapsed {
		t.Errorf("ETA at 2/4 = %v with elapsed %v, want ≈ elapsed", second.ETA, second.Elapsed)
	}

	p.record(false)
	p.record(false)
	final := snaps[3]
	if final.Done != 4 || final.ETA != 0 {
		t.Errorf("final snapshot = %+v, want done=4 eta=0", final)
	}
	if final.Failed != 1 {
		t.Errorf("final failed = %d, want 1", final.Failed)
	}

	// No observer: the tracker is nil and recording is a no-op.
	nilTracker := newProgressTracker(5, nil)
	if nilTracker != nil {
		t.Error("tracker without observer should be nil")
	}
	nilTracker.record(true) // must not panic
}

// TestProgressString pins the two renderings the -progress flags
// print: in-flight (with ETA) and finished (with elapsed).
func TestProgressString(t *testing.T) {
	inFlight := Progress{Total: 10, Done: 3, Failed: 1,
		Elapsed: 2 * time.Second, ETA: 1500 * time.Millisecond}
	if got, want := inFlight.String(), "3/10 cells, 1 failed, eta 1.5s"; got != want {
		t.Errorf("in-flight = %q, want %q", got, want)
	}
	done := Progress{Total: 4, Done: 4, Elapsed: 2 * time.Second}
	if got, want := done.String(), "4/4 cells, done in 2s"; got != want {
		t.Errorf("done = %q, want %q", got, want)
	}
}

// TestProgressCarriesCatalogStats: the observer's snapshots expose the
// sweep catalog's traffic, and the final snapshot's rendering appends
// the cache-effectiveness summary — the -progress surface for cache
// visibility.
func TestProgressCarriesCatalogStats(t *testing.T) {
	var mu sync.Mutex
	var last Progress
	eng := New(Config{Parallel: 2, OnProgress: func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		last = p
	}})
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("j%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
			return catalog.Get(env.Catalog, "shared", func() (int, error) { return 1, nil })
		}}
	}
	eng.Run(context.Background(), jobs)
	mu.Lock()
	defer mu.Unlock()
	if last.Catalog.Generations != 1 || last.Catalog.Hits != 3 {
		t.Errorf("final snapshot catalog = %+v, want 1 generation + 3 hits", last.Catalog)
	}
	if s := last.String(); !strings.Contains(s, "workloads: 1 generated, 3 hits") {
		t.Errorf("final rendering %q missing the catalog summary", s)
	}
}

// TestOnProgressUnderCancellation: cancelling a sweep mid-flight must
// still deliver exactly one snapshot per cell — the in-flight cells as
// they unblock and fail, the never-started cells as they are marked
// cancelled — ending with a final done=total snapshot.
func TestOnProgressUnderCancellation(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	var snaps []Progress
	eng := New(Config{Parallel: 2, OnProgress: func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		snaps = append(snaps, p)
	}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, n)
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("j%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}}
	}
	go func() {
		<-started
		<-started // both workers hold a blocked cell
		cancel()
	}()
	results := eng.Run(ctx, jobs)
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("%s succeeded despite cancellation", r.Key)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) != n {
		t.Fatalf("observer called %d times, want %d (every cell reports, cancelled or not)", len(snaps), n)
	}
	for i, p := range snaps {
		if p.Done != i+1 {
			t.Errorf("snapshot %d: done = %d, want %d (monotone under cancellation)", i, p.Done, i+1)
		}
	}
	final := snaps[n-1]
	if final.Done != n || final.Failed != n || final.ETA != 0 {
		t.Errorf("final snapshot = %+v, want done=%d failed=%d eta=0", final, n, n)
	}
}

func TestCellExecutionAllocsBounded(t *testing.T) {
	// Steady-state cell execution — scheduling, per-worker RNG reseeding,
	// result merging — should cost O(1) allocations per cell for cells
	// that allocate nothing themselves. The bound is loose enough for
	// the fixed per-run structures (results slice, worker bookkeeping)
	// and tight enough to catch a regression to per-cell RNG or map
	// allocations.
	const cells = 64
	jobs := make([]Job, cells)
	for i := range jobs {
		jobs[i] = Job{Key: "cell" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Run: func(ctx context.Context, env Env) (interface{}, error) {
				env.RNG.Uint64()
				return nil, nil
			}}
	}
	eng := New(Config{Parallel: 1})
	eng.Run(context.Background(), jobs) // warm any lazily-built state
	allocs := testing.AllocsPerRun(10, func() {
		if results := eng.Run(context.Background(), jobs); len(results) != cells {
			t.Fatal("short results")
		}
	})
	if perCell := allocs / cells; perCell > 2 {
		t.Errorf("engine allocates %.2f per cell in steady state, want <= 2", perCell)
	}
}
