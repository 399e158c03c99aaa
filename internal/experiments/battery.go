package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"dsa/internal/engine"
	"dsa/internal/engine/battery"
	"dsa/internal/metrics"
	"dsa/internal/workload/catalog"
)

// allExperiments is the canonical battery: every experiment in the
// paper's presentation order. StreamConfig emits tables in this order
// no matter how the battery scheduler interleaves the sweeps.
var allExperiments = []*sweepDef{
	t0Def, fig1Def, fig2Def, fig3Def, fig4Def,
	t1Def, t2Def, t3Def, t4Def, t5Def, t6Def, t7Def, t8Def, t8bDef,
	a1Def, a2Def, a3Def, a4Def, a5Def, a6Def,
}

// Names returns the canonical experiment names in battery order.
func Names() []string {
	out := make([]string, len(allExperiments))
	for i, d := range allExperiments {
		out[i] = d.id
	}
	return out
}

// byName resolves a (case-insensitive) experiment name: first against
// the compiled-in battery, then against registered declarative
// scenarios (by full wire id or bare scenario name).
func byName(name string) (*sweepDef, error) {
	lower := strings.ToLower(name)
	for _, d := range allExperiments {
		if d.id == lower {
			return d, nil
		}
	}
	d, err := scenarioByName(name)
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return d, nil
}

// Resolve canonicalizes an experiment name — a compiled-in battery
// name (case-insensitive) or a registered scenario's wire id or bare
// name — without running anything. The serve daemon validates
// submissions with it so an unknown name is a 400 at POST time, not a
// failure discovered mid-stream.
func Resolve(name string) (string, error) {
	d, err := byName(name)
	if err != nil {
		return "", err
	}
	return d.id, nil
}

// Config is one battery invocation's configuration. The zero value
// means: GOMAXPROCS cell slots, serial battery, paper-exact seed, a
// fresh in-memory store for the invocation, no cost manifest, no
// observers. Cell builders read only Seed, so the same Config rebuilds
// the same cells in any process. CLI runs build one from their flags
// with cliflags.Sweep.Battery; the serve daemon builds one per job.
type Config struct {
	// Parallel is the number of in-process cell slots shared by every
	// sweep of the battery (<= 0 means GOMAXPROCS); ignored when
	// Executor is set.
	Parallel int
	// BatteryParallel bounds how many whole sweeps run concurrently
	// (<= 1 serial). Byte-identical at any value.
	BatteryParallel int
	// Seed is the base workload seed. With 0 every experiment uses its
	// historical fixed workload seeds and reproduces the paper-exact
	// tables; any other value re-derives every workload seed (and its
	// catalog key) through sim.SeedFor, a fresh but equally
	// reproducible scenario.
	Seed uint64
	// Store is the battery-scoped workload store: every sweep's catalog
	// is a child scope of it, so a workload shared across sweeps — or
	// replayed from the store's disk layer — materializes once. Nil
	// installs a fresh in-memory one for this invocation only. Values
	// never change: tables are byte-identical with or without it.
	Store *catalog.Catalog
	// Executor, if non-nil, runs every sweep's cells: a dist.Pool, or
	// one tenant's executor of a shared engine.Budget (the serve
	// daemon). Nil means tenant "" of a fresh engine.Budget of Parallel
	// slots for this invocation.
	Executor engine.Executor
	// Costs, if non-nil, records each successful sweep's observed
	// wall-clock time. Nothing in the battery reads it back: the serve
	// daemon's Retry-After estimate does.
	Costs *battery.CostManifest
	// OnProgress observes per-sweep engine progress; OnBatteryProgress
	// observes the aggregated battery view (sweeps done/running, cells
	// across every started sweep, the store's traffic, ETA).
	OnProgress        func(sweep string, p engine.Progress)
	OnBatteryProgress func(battery.Progress)
}

// StreamConfig executes the named experiments (all of them when names
// is empty) as one battery under c, calling emit once per experiment
// in the order asked for, each as soon as that prefix of the battery
// has completed — so cmd/dsafig prints tables while later sweeps still
// run. Invocations share no state, so concurrent batteries with
// distinct settings cannot tear each other.
//
// Up to c.BatteryParallel sweeps run at once over one executor, with
// tables re-emitted in canonical order, so output is byte-identical to
// a serial battery. A sweep that fails with an ordinary error aborts
// the battery exactly as a serial run would at any width: sweeps
// declared after it are cancelled or skipped, sweeps declared before
// it still run and emit, and its error is returned. Panicking cells
// inside a sweep remain contained as FAILED rows. Cancelling ctx
// aborts the battery: cells not yet started report the context error
// and the first failure is returned.
func StreamConfig(ctx context.Context, c Config, emit func(*metrics.Table), names ...string) error {
	list := allExperiments
	if len(names) > 0 {
		list = make([]*sweepDef, len(names))
		for i, name := range names {
			d, err := byName(name)
			if err != nil {
				return err
			}
			list[i] = d
		}
	}
	if c.Store == nil {
		c.Store = catalog.New()
	}
	if c.Executor == nil {
		// One budget for the whole battery, so Parallel bounds cells in
		// flight across all sweeps, not per sweep.
		c.Executor = engine.NewBudget(c.Parallel, 0).Executor("")
	}

	// Aggregate per-sweep engine progress battery-wide when someone is
	// watching; the per-sweep observer, if any, still sees every
	// snapshot.
	var tracker *battery.Tracker
	if c.OnBatteryProgress != nil {
		tracker = battery.NewTracker(len(list), c.Store.Stats, c.OnBatteryProgress)
		prev := c.OnProgress
		c.OnProgress = func(sweep string, p engine.Progress) {
			tracker.Observe(sweep, p)
			if prev != nil {
				prev(sweep, p)
			}
		}
	}

	ab := &abort{failed: len(list), cancels: make([]context.CancelFunc, len(list))}
	units := make([]battery.Unit, len(list))
	for i, d := range list {
		i, d := i, d
		units[i] = battery.Unit{Name: d.id, Run: func(ctx context.Context) (interface{}, error) {
			ctx, cancel, ok := ab.start(ctx, i)
			if !ok {
				return nil, context.Canceled
			}
			defer cancel()
			tb, err := d.runCtx(ctx, c)
			if err != nil {
				ab.fail(i)
			}
			return tb, err
		}}
	}
	failed := false
	results := battery.Run(ctx, units,
		battery.Options{Parallel: c.BatteryParallel, Tracker: tracker},
		func(r battery.Result) {
			// Ordered emission stops at the first failed slot.
			if r.Err != nil {
				failed = true
			}
			if !failed {
				emit(r.Value.(*metrics.Table))
			}
		})
	// Record observed sweep times in the manifest. Failed or cancelled
	// sweeps are not recorded — their elapsed time says nothing about a
	// successful run's cost.
	for _, r := range results {
		if r.Err == nil {
			c.Costs.Record(r.Name, r.Elapsed)
		}
	}
	// The first failure in battery order is the error a serial battery
	// returns: nothing before it was cancelled.
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// abort is a battery's failure rule: the first failing sweep cancels
// only the sweeps declared after it, whether they are running or not
// yet started, so every sweep before it still runs and emits — at any
// width, the prefix a serial battery emits.
type abort struct {
	mu      sync.Mutex
	failed  int // lowest failed sweep index; the sweep count if none
	cancels []context.CancelFunc
}

// start derives sweep i's context, or reports false when a sweep
// declared before i has already failed.
func (a *abort) start(ctx context.Context, i int) (context.Context, context.CancelFunc, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i > a.failed {
		return nil, nil, false
	}
	ctx, cancel := context.WithCancel(ctx)
	a.cancels[i] = cancel
	return ctx, cancel, true
}

// fail records that sweep i failed and cancels every sweep after it.
func (a *abort) fail(i int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i >= a.failed {
		return
	}
	a.failed = i
	for _, cancel := range a.cancels[i+1:] {
		if cancel != nil {
			cancel()
		}
	}
}
