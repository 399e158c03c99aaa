// Package battery is the sweep-level scheduler above internal/engine:
// where the engine fans the cells of one sweep across a worker pool,
// battery.Run fans whole sweeps of an experiment battery across a
// bounded number of concurrently running sweeps — over one shared
// executor, so workers (goroutines or dist worker processes) and their
// workload caches persist across the battery instead of being torn
// down and respawned per sweep.
//
// The battery extends the engine's three safety properties one level
// up:
//
//   - Deterministic output. Sweeps complete in whatever order
//     scheduling allows, but results are re-emitted in unit order as
//     each prefix completes, so a battery's aggregate output is
//     byte-identical to running the same sweeps serially.
//   - Fault containment. A sweep whose cells panic already surfaces as
//     FAILED rows inside its own table (the engine's contract); a unit
//     function that itself panics is recovered here and recorded as a
//     failed Result instead of sinking the battery.
//   - Bounded concurrency. Options.Parallel bounds how many sweeps are
//     in flight; the shared executor (an engine.Budget or a dist.Pool)
//     bounds how many cells run battery-wide, so the -parallel/-workers
//     budget is a total budget, not a per-sweep one.
//
// Progress is aggregated battery-wide by Tracker: sweeps done/running,
// cells done/failed/total across every started sweep, the shared
// store's traffic, and an ETA.
package battery

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dsa/internal/engine"
	"dsa/internal/workload/catalog"
)

// Unit is one schedulable sweep: a stable name (its canonical identity
// in emission order and progress reports) plus the function that runs
// it. Run receives the battery's cancellation context; a unit that
// ignores it still completes, it just cannot be interrupted.
type Unit struct {
	Name string
	Run  func(ctx context.Context) (interface{}, error)
}

// Result records the outcome of one unit.
type Result struct {
	// Name echoes the unit's name.
	Name string
	// Index is the unit's position in the submitted slice.
	Index int
	// Value is what Run returned (nil on failure).
	Value interface{}
	// Err is non-nil if the unit failed: Run returned an error, the
	// battery was cancelled before the unit started, or the unit
	// function panicked (then Err wraps the recovered value).
	Err error
	// Elapsed is the unit's observed wall-clock run time (zero for
	// units cancelled before they started). Callers may record it in a
	// CostManifest.
	Elapsed time.Duration
}

// Options configures a battery run.
type Options struct {
	// Parallel bounds how many sweeps run concurrently; <= 1 means
	// serial in declaration order, through the same ordered-emission
	// path, so bytes cannot differ.
	Parallel int
	// Tracker, if non-nil, receives sweep lifecycle events and renders
	// battery-wide progress snapshots.
	Tracker *Tracker
}

// Run executes every unit with at most o.Parallel sweeps in flight,
// feeding them in declaration order, and calls emit (when non-nil)
// once per unit in unit order, each as soon as that prefix of the
// battery has completed — so tables stream out in canonical order no
// matter which sweep finishes first. It returns the full result slice
// indexed like units. Cancellation marks every unit not yet started
// with ctx.Err(); units already running finish (their own engines
// decide how they react to ctx).
func Run(ctx context.Context, units []Unit, o Options, emit func(Result)) []Result {
	results := make([]Result, len(units))
	if len(units) == 0 {
		return results
	}
	width := o.Parallel
	if width < 1 {
		width = 1
	}
	if width > len(units) {
		width = len(units)
	}

	done := make(chan int, len(units))
	var mergeWG sync.WaitGroup
	if emit != nil {
		mergeWG.Add(1)
		go func() {
			defer mergeWG.Done()
			// Emit in unit order — the engine.Stream discipline, one
			// level up.
			engine.MergeOrdered(done, func(i int) { emit(results[i]) })
		}()
	}

	feed := make(chan int)
	var wg sync.WaitGroup
	finish := func(i int, r Result) {
		results[i] = r
		o.Tracker.sweepDone(units[i].Name, r.Err != nil)
		done <- i
	}
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				o.Tracker.sweepStarted(units[i].Name)
				finish(i, runUnit(ctx, i, units[i]))
			}
		}()
	}
	for i := range units {
		select {
		case feed <- i:
		case <-ctx.Done():
			// Mark this and all remaining units cancelled; workers drain
			// nothing further. These units never started, so account them
			// as skipped rather than as a running sweep finishing.
			for j := i; j < len(units); j++ {
				o.Tracker.sweepSkipped(units[j].Name)
				results[j] = Result{Name: units[j].Name, Index: j, Err: ctx.Err()}
				done <- j
			}
			close(feed)
			wg.Wait()
			close(done)
			mergeWG.Wait()
			return results
		}
	}
	close(feed)
	wg.Wait()
	close(done)
	mergeWG.Wait()
	return results
}

// runUnit executes one unit with panic containment: a sweep function
// that dies becomes a failed Result, and the rest of the battery
// completes — the engine's per-cell posture applied per sweep.
func runUnit(ctx context.Context, index int, u Unit) (res Result) {
	res = Result{Name: u.Name, Index: index}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			stack := make([]byte, 8192)
			stack = stack[:runtime.Stack(stack, false)]
			res.Value = nil
			res.Err = fmt.Errorf("battery: sweep %q panicked: %v\n%s", u.Name, p, stack)
		}
	}()
	res.Value, res.Err = u.Run(ctx)
	return res
}

// NewPool returns a battery-wide in-process cell executor with n cell
// slots (n <= 0 means GOMAXPROCS): tenant "" of a fresh engine.Budget.
func NewPool(n int) engine.Executor { return engine.NewBudget(n, 0).Executor("") }

// Progress is a battery-wide snapshot, delivered to the Tracker's
// observer whenever a sweep starts or finishes and after every cell of
// every running sweep.
type Progress struct {
	// Sweeps is the number of units in the battery.
	Sweeps int
	// SweepsDone is the number of completed units (including failed
	// and cancelled ones).
	SweepsDone int
	// SweepsFailed is the number of completed units whose Result.Err
	// was non-nil.
	SweepsFailed int
	// SweepsRunning is the number of units currently in flight.
	SweepsRunning int
	// Cells is the total cell count across every sweep that has
	// reported progress so far; sweeps not yet started contribute
	// nothing, so the total grows as the battery uncovers work.
	Cells int
	// CellsDone and CellsFailed aggregate the per-sweep counters.
	CellsDone   int
	CellsFailed int
	// Elapsed is the wall-clock time since the battery started.
	Elapsed time.Duration
	// ETA extrapolates the remaining wall-clock time from completed
	// sweeps; zero until the first sweep completes and once all have.
	ETA time.Duration
	// Catalog is the battery store's traffic so far — the merged view
	// across every sweep's child scope.
	Catalog catalog.Stats
}

// String renders the snapshot the way the CLIs' -progress flags print
// it battery-wide. The final snapshot appends the store's
// cache-effectiveness summary.
func (p Progress) String() string {
	s := fmt.Sprintf("%d/%d sweeps (%d running), %d/%d cells",
		p.SweepsDone, p.Sweeps, p.SweepsRunning, p.CellsDone, p.Cells)
	if p.CellsFailed > 0 {
		s += fmt.Sprintf(", %d failed", p.CellsFailed)
	}
	if p.SweepsDone < p.Sweeps {
		if p.ETA > 0 {
			s += fmt.Sprintf(", eta %s", p.ETA.Round(time.Millisecond))
		}
	} else {
		s += fmt.Sprintf(", done in %s", p.Elapsed.Round(time.Millisecond))
		if !p.Catalog.Zero() {
			s += "; workloads: " + p.Catalog.Summary()
		}
	}
	return s
}

// Tracker aggregates per-sweep engine progress into battery-wide
// snapshots. Run drives the sweep lifecycle events; the experiments
// layer (or any caller) forwards each sweep's engine.Progress through
// Observe. All methods are safe for concurrent use and a nil Tracker
// is a no-op, so callers only build one when someone is watching.
type Tracker struct {
	mu      sync.Mutex
	start   time.Time
	sweeps  int
	done    int
	failed  int
	running int
	per     map[string]engine.Progress
	stats   func() catalog.Stats
	fn      func(Progress)
}

// NewTracker builds a tracker for a battery of n sweeps. stats, when
// non-nil, supplies the battery store's merged catalog traffic for
// each snapshot (typically the root store's Stats method); fn receives
// every snapshot and must not block for long — sweeps wait on it.
func NewTracker(n int, stats func() catalog.Stats, fn func(Progress)) *Tracker {
	return &Tracker{
		start:  time.Now(),
		sweeps: n,
		per:    make(map[string]engine.Progress, n),
		stats:  stats,
		fn:     fn,
	}
}

// Observe folds one sweep's engine progress into the battery view and
// delivers a fresh snapshot.
func (t *Tracker) Observe(sweep string, p engine.Progress) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.per[sweep] = p
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.deliver(snap)
}

// Sweeps returns the names of every sweep that has reported progress,
// sorted (test instrumentation).
func (t *Tracker) Sweeps() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.per))
	for n := range t.per {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the current battery-wide view without delivering it.
func (t *Tracker) Snapshot() Progress {
	if t == nil {
		return Progress{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

func (t *Tracker) sweepStarted(string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.running++
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.deliver(snap)
}

func (t *Tracker) sweepDone(_ string, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.running--
	t.done++
	if failed {
		t.failed++
	}
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.deliver(snap)
}

// sweepSkipped accounts a unit cancelled before it ever started: done
// (and failed) without a matching start, so running stays balanced.
func (t *Tracker) sweepSkipped(string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done++
	t.failed++
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.deliver(snap)
}

func (t *Tracker) snapshotLocked() Progress {
	snap := Progress{
		Sweeps:        t.sweeps,
		SweepsDone:    t.done,
		SweepsFailed:  t.failed,
		SweepsRunning: t.running,
		Elapsed:       time.Since(t.start),
	}
	for _, p := range t.per {
		snap.Cells += p.Total
		snap.CellsDone += p.Done
		snap.CellsFailed += p.Failed
	}
	if t.stats != nil {
		snap.Catalog = t.stats()
	}
	if t.done > 0 && t.done < t.sweeps {
		snap.ETA = time.Duration(float64(snap.Elapsed) / float64(t.done) * float64(t.sweeps-t.done))
	}
	return snap
}

func (t *Tracker) deliver(p Progress) {
	if t.fn != nil {
		t.fn(p)
	}
}
