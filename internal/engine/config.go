package engine

import "dsa/internal/workload/catalog"

// Config is the engine's knob set, the fields New reads. Single-sweep
// commands fill it from their flags via cliflags.Sweep.Config (a dist
// pool, when the flags ask for one, arrives as the Executor);
// experiment batteries carry an experiments.Config, which builds one
// per sweep.
//
// The zero value is the documented default everywhere: in-process
// execution on GOMAXPROCS cell slots, paper-exact seeding and a fresh
// in-memory workload store. Every field only ever widens that: output
// bytes are identical at any setting.
type Config struct {
	// Parallel is the cell-slot count of the budget New builds when
	// Executor is nil; <= 0 means GOMAXPROCS. Ignored when Executor is
	// set (the executor owns its own concurrency).
	Parallel int
	// Seed is the base seed mixed with each job key by sim.SeedFor.
	// 0 reproduces the paper-exact workloads; any other value
	// re-derives every workload (and its catalog keys).
	Seed uint64
	// Catalog is the shared workload store. Nil means each engine
	// creates a fresh in-memory one; pass catalog.Disabled() to force
	// per-cell regeneration.
	Catalog *catalog.Catalog
	// OnProgress, if non-nil, observes each sweep (serialized, once
	// per completed cell).
	OnProgress func(Progress)
	// Executor, if non-nil, runs the cells instead of a fresh budget —
	// a dist.Pool for worker processes, or a Budget.Executor shared
	// with other sweeps or tenants.
	Executor Executor
}
