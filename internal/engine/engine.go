// Package engine is the concurrent sweep runner behind
// internal/experiments: it fans independent simulation jobs (one per
// machine config × workload × policy cell) out to an Executor and
// streams their results back to an aggregation stage in deterministic
// job order.
//
// There are two executors. Budget.Executor is the one in-process
// executor: a budget of cell slots shared by every sweep that runs
// through it, split fairly across tenants (CLI and benchmark runs are
// the single tenant ""; the serve daemon names one per client).
// internal/engine/dist's Pool ships cells to worker processes.
//
// Three properties make sweeps safe to parallelize:
//
//   - Deterministic seeding. Every job receives an RNG seeded from
//     (base seed, job key) via sim.SeedFor, never from submission
//     order or scheduling, so a sweep reproduces bit-for-bit at any
//     parallelism.
//   - Fault containment. A job that panics is recovered inside its
//     worker and recorded as a failed cell (Result.Panicked with a
//     *PanicError) instead of sinking the whole sweep — the
//     application-level fault-tolerance posture: contain, record,
//     continue. A poisoned workload-catalog entry surfaces the same
//     way: every cell that asks for it fails, the sweep survives.
//   - Ordered streaming aggregation. Stream delivers results to the
//     caller in job-index order as soon as each prefix completes, so
//     tables assemble incrementally yet identically to a serial run.
//
// Each sweep additionally carries a shared workload catalog
// (internal/workload/catalog): jobs that declare the same workload key
// share one immutable materialization instead of regenerating it per
// cell, and OnProgress observers receive done/failed/total counts with
// an ETA as cells complete.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dsa/internal/metrics"
	"dsa/internal/sim"
	"dsa/internal/workload/catalog"
)

// Env is the per-job environment the engine hands to Run: the cell's
// private deterministic RNG plus the sweep-wide shared workload
// catalog. Values obtained from the catalog are shared across cells and
// must be treated as immutable (see the catalog package doc).
type Env struct {
	// RNG is the job's private deterministic stream, seeded from
	// (base seed, job key) via sim.SeedFor.
	RNG *sim.RNG
	// Catalog is the sweep's shared workload catalog. Never nil for
	// jobs run by an Engine.
	Catalog *catalog.Catalog
}

// Job is one independent simulation cell. Key must be stable and
// unique within a sweep: it names the cell in failure reports and
// seeds the cell's RNG.
type Job struct {
	// Key is the cell's stable identity (e.g. "t1/loop/frames=8").
	Key string
	// Run executes the cell. The context is the sweep's cancellation
	// signal; env carries the cell's private deterministic RNG and the
	// sweep's shared workload catalog. The returned value is opaque to
	// the engine and handed to the aggregation stage.
	Run func(ctx context.Context, env Env) (interface{}, error)
	// Spec, if non-nil, describes the cell in serializable form so an
	// out-of-process executor (internal/engine/dist) can reconstruct
	// and run it in a worker process. Jobs without a Spec can only run
	// in-process; a dist pool executes them locally in the dispatcher.
	Spec *Spec
}

// Spec is the wire-serializable description of a cell: everything a
// worker process needs to rebuild the cell from its own compiled-in
// registries plus the sweep's base seed (which travels alongside in
// the protocol). The named fields carry the common axes of a sweep;
// Args holds task-specific parameters.
type Spec struct {
	// Task names the handler registered in the worker (dist.Handle).
	Task string
	// Machine optionally names the machine configuration under test.
	Machine string
	// Policy optionally names the policy under test.
	Policy string
	// Workload optionally carries the cell's workload catalog key (or
	// workload kind), making the immutable catalog the serialization
	// boundary: the worker re-materializes the workload from the key.
	Workload string
	// Args carries any further task parameters.
	Args map[string]string
}

// Result records the outcome of one job.
type Result struct {
	// Key echoes the job's key.
	Key string
	// Index is the job's position in the submitted slice.
	Index int
	// Value is what Run returned (nil on failure).
	Value interface{}
	// Err is non-nil if the job failed: Run returned an error, the
	// sweep was cancelled before the job started, or the job panicked
	// (then Err is a *PanicError and Panicked is set).
	Err error
	// Panicked reports that the job died by panic and was contained.
	Panicked bool
}

// Failed reports whether the cell must be treated as missing.
func (r Result) Failed() bool { return r.Err != nil }

// PanicError is the recorded remains of a job that panicked.
type PanicError struct {
	// Key is the panicking job's key.
	Key string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job %q panicked: %v", e.Key, e.Value)
}

// Progress is a snapshot of a sweep in flight, delivered to the
// OnProgress observer after each cell completes.
type Progress struct {
	// Total is the number of cells in the sweep.
	Total int
	// Done is the number of cells that have completed (including
	// failed and cancelled cells).
	Done int
	// Failed is the number of completed cells whose Result.Failed().
	Failed int
	// Elapsed is the wall-clock time since the sweep started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time by linear
	// extrapolation from completed cells; zero once the sweep is done.
	ETA time.Duration
	// Catalog is the sweep catalog's traffic so far — how many workload
	// requests hit the shared store, regenerated, or replayed from the
	// disk layer. Zero when the sweep's cells never touch the catalog.
	Catalog catalog.Stats
}

// String renders the snapshot the way the -progress CLI flags print
// it. The final snapshot of a sweep (Done == Total) appends the
// catalog's cache-effectiveness summary when the sweep used it.
func (p Progress) String() string {
	s := fmt.Sprintf("%d/%d cells", p.Done, p.Total)
	if p.Failed > 0 {
		s += fmt.Sprintf(", %d failed", p.Failed)
	}
	if p.Done < p.Total {
		s += fmt.Sprintf(", eta %s", p.ETA.Round(time.Millisecond))
	} else {
		s += fmt.Sprintf(", done in %s", p.Elapsed.Round(time.Millisecond))
		if !p.Catalog.Zero() {
			s += "; workloads: " + p.Catalog.Summary()
		}
	}
	return s
}

// SweepEnv is the sweep-wide environment the engine hands its
// executor: the base seed every cell's RNG derives from and the shared
// workload catalog for cells executed in this process.
type SweepEnv struct {
	// Seed is the base seed mixed with each job key by sim.SeedFor.
	Seed uint64
	// Catalog is the dispatching process's shared workload catalog.
	// Out-of-process executors use it only for cells they fall back to
	// running locally; worker processes materialize workloads from
	// their own catalogs by key.
	Catalog *catalog.Catalog
}

// Executor runs the cells of one sweep. The in-process executor is
// Budget.Executor; internal/engine/dist provides one that shards cells
// across worker processes. The contract:
//
//   - report must be called exactly once per job, with Result.Index and
//     Result.Key filled in; report is safe for concurrent use.
//   - Cells must observe the engine's per-job contract — RNG seeded
//     via sim.SeedFor(sw.Seed, job.Key), panic containment — which
//     RunJob implements for in-process execution.
//   - On cancellation every job not yet finished must still be
//     reported, with Err = ctx.Err().
//
// Aggregation order, progress accounting and result collection stay
// with the engine, so any conforming executor yields byte-identical
// sweeps.
type Executor interface {
	Execute(ctx context.Context, sw SweepEnv, jobs []Job, report func(Result))
}

// Engine is a reusable sweep runner. The zero value is not usable;
// construct with New.
type Engine struct {
	seed       uint64
	catalog    *catalog.Catalog
	onProgress func(Progress)
	exec       Executor
}

// New builds an engine from the engine-level fields of c: Seed,
// Catalog (nil means a fresh one), OnProgress, and Executor — nil
// means a fresh budget of c.Parallel cell slots run as tenant "".
func New(c Config) *Engine {
	cat := c.Catalog
	if cat == nil {
		cat = catalog.New()
	}
	exec := c.Executor
	if exec == nil {
		exec = NewBudget(c.Parallel, 0).Executor("")
	}
	return &Engine{seed: c.Seed, catalog: cat, onProgress: c.OnProgress, exec: exec}
}

// Catalog returns the sweep's shared workload catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.catalog }

// Run executes all jobs and returns their results indexed like jobs.
// It always returns a full slice: failed cells carry their error in
// place. Cancellation marks every not-yet-started job with ctx.Err().
func (e *Engine) Run(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	e.sweep(ctx, jobs, results)
	return results
}

// Stream executes all jobs and calls emit once per job in job-index
// order, each as soon as that prefix of the sweep has completed — the
// streaming aggregation stage. emit runs on the caller's goroutine
// discipline (a single internal goroutine), so it may mutate shared
// state such as a metrics.Table without locking. Stream returns the
// full result slice after every job has been emitted.
func (e *Engine) Stream(ctx context.Context, jobs []Job, emit func(Result)) []Result {
	results := make([]Result, len(jobs))
	if emit == nil {
		e.sweep(ctx, jobs, results)
		return results
	}
	done := make(chan int, len(jobs))
	var mergeWG sync.WaitGroup
	mergeWG.Add(1)
	go func() {
		defer mergeWG.Done()
		MergeOrdered(done, func(i int) { emit(results[i]) })
	}()
	e.sweepNotify(ctx, jobs, results, done)
	close(done)
	mergeWG.Wait()
	return results
}

// sweep runs the executor with no completion notifications.
func (e *Engine) sweep(ctx context.Context, jobs []Job, results []Result) {
	e.sweepNotify(ctx, jobs, results, nil)
}

// MergeOrdered is the ordered-emission stage shared by Stream and the
// battery scheduler (internal/engine/battery): it drains completion
// indices from done and calls emit exactly once per index in ascending
// index order, buffering out-of-order completions until the next
// expected index arrives. It returns when done is closed. The sender
// must send each index exactly once; receiving an index means the
// value it guards (results[i], a table, ...) is final.
func MergeOrdered(done <-chan int, emit func(index int)) {
	ready := make(map[int]bool)
	next := 0
	for i := range done {
		ready[i] = true
		for ready[next] {
			emit(next)
			delete(ready, next)
			next++
		}
	}
}

// progressTracker serializes per-sweep progress accounting and observer
// calls across workers.
type progressTracker struct {
	mu     sync.Mutex
	start  time.Time
	total  int
	done   int
	failed int
	fn     func(Progress)
	cat    *catalog.Catalog // snapshotted into Progress.Catalog; may be nil
}

// newProgressTracker returns nil when no observer is configured, so the
// hot path stays a single nil check.
func newProgressTracker(total int, fn func(Progress)) *progressTracker {
	if fn == nil {
		return nil
	}
	return &progressTracker{start: time.Now(), total: total, fn: fn}
}

// record accounts one completed cell and delivers a snapshot.
func (p *progressTracker) record(failed bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if failed {
		p.failed++
	}
	snap := Progress{
		Total:   p.total,
		Done:    p.done,
		Failed:  p.failed,
		Elapsed: time.Since(p.start),
		Catalog: p.cat.Stats(),
	}
	if p.done > 0 && p.done < p.total {
		snap.ETA = time.Duration(float64(snap.Elapsed) / float64(p.done) * float64(p.total-p.done))
	}
	p.fn(snap)
}

// sweepNotify hands the sweep to the executor, writing results[i] for
// every job and (when done != nil) sending i after results[i] is
// final.
func (e *Engine) sweepNotify(ctx context.Context, jobs []Job, results []Result, done chan<- int) {
	if len(jobs) == 0 {
		return
	}
	prog := newProgressTracker(len(jobs), e.onProgress)
	if prog != nil {
		prog.cat = e.catalog
	}
	report := func(r Result) {
		results[r.Index] = r
		prog.record(r.Failed())
		if done != nil {
			done <- r.Index
		}
	}
	e.exec.Execute(ctx, SweepEnv{Seed: e.seed, Catalog: e.catalog}, jobs, report)
}

// RunJob executes a single job in-process under the engine's standard
// per-job contract: RNG seeded from (seed, job key) via sim.SeedFor —
// never from scheduling — and panic containment, so a dying cell
// becomes a failed Result instead of sinking the sweep. The dist
// dispatcher's local fallback runs cells through here; the budget's
// workers use runJobSeeded directly.
func RunJob(ctx context.Context, index int, job Job, seed uint64, cat *catalog.Catalog) (res Result) {
	var rng sim.RNG
	return runJobSeeded(ctx, index, job, seed, cat, &rng)
}

// runJobSeeded is RunJob with a caller-owned RNG: budget workers
// hold one generator each and reseed it per cell, so steady-state cell
// dispatch does not allocate. The sequence a cell draws depends only
// on (seed, job.Key) either way.
func runJobSeeded(ctx context.Context, index int, job Job, seed uint64, cat *catalog.Catalog, rng *sim.RNG) (res Result) {
	res = Result{Key: job.Key, Index: index}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	defer func() {
		if p := recover(); p != nil {
			stack := make([]byte, 8192)
			stack = stack[:runtime.Stack(stack, false)]
			res.Value = nil
			res.Err = &PanicError{Key: job.Key, Value: p, Stack: stack}
			res.Panicked = true
		}
	}()
	rng.Reseed(sim.SeedFor(seed, job.Key))
	res.Value, res.Err = job.Run(ctx, Env{RNG: rng, Catalog: cat})
	return res
}

// RowBatch is the value type the table-aggregation stage understands:
// the rows one cell contributes to its table, in order.
type RowBatch [][]interface{}

// FillTable is the streaming metrics-aggregation stage: it runs jobs
// whose results are RowBatch values and appends each batch to t in job
// order as the sweep progresses. A panicked cell is contained as a
// single "FAILED" row naming the cell (the sweep continues); a cell
// that returns an ordinary error aborts the table with that error
// (matching the serial experiment contract). The returned results
// slice lets callers inspect contained failures.
func (e *Engine) FillTable(ctx context.Context, t *metrics.Table, jobs []Job) ([]Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel() // abort cells not yet started; the table is lost anyway
		}
	}
	results := e.Stream(ctx, jobs, func(r Result) {
		switch {
		case r.Panicked:
			t.AddRow(failedRow(t, r)...)
		case r.Err != nil:
			fail(fmt.Errorf("cell %s: %w", r.Key, r.Err))
		default:
			batch, ok := r.Value.(RowBatch)
			if !ok {
				fail(fmt.Errorf("cell %s: result %T is not a RowBatch", r.Key, r.Value))
				return
			}
			for _, row := range batch {
				t.AddRow(row...)
			}
		}
	})
	if firstErr != nil {
		return results, firstErr
	}
	return results, nil
}

// failedRow builds the contained-failure marker for a panicked cell,
// padded to the table's column count so consumers indexing rows by
// header position still find every column present.
func failedRow(t *metrics.Table, r Result) []interface{} {
	width := len(t.Header)
	if width < 2 {
		width = 2
	}
	row := make([]interface{}, width)
	row[0] = r.Key
	row[1] = "FAILED: " + fmt.Sprint(r.Err.(*PanicError).Value)
	for i := 2; i < width; i++ {
		row[i] = "-"
	}
	return row
}
