package engine

import "dsa/internal/workload/catalog"

// Config is the engine's knob set: the engine-level fields New reads
// (Parallel, Seed, Catalog, OnProgress, Executor) and the dist pool
// fields dist.PoolFromConfig reads (Workers through CacheDir).
// Single-sweep commands fill it from their flags via
// cliflags.Sweep.Config; experiment batteries carry an
// experiments.Config, which builds one per sweep.
//
// The zero value is the documented default everywhere: in-process
// execution on GOMAXPROCS cell slots, paper-exact seeding, a fresh
// in-memory workload store, no worker processes, no remote endpoints,
// and no disk cache. Every field only ever widens that: output bytes
// are identical at any setting.
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

	// Workers is the number of local `<cmd> worker` child processes a
	// dist pool should spawn; 0 means none (in-process cells, unless
	// Remote supplies slots).
	Workers int
	// Batch is the number of cells per dist protocol frame; <= 0
	// means the dist default (one cell per frame).
	Batch int
	// AdaptiveBatch lets the dist pool size batches from measured
	// per-cell latency instead of the static Batch (which then only
	// caps the adaptive size). Output bytes are identical either way.
	AdaptiveBatch bool
	// Remote lists `<cmd> serve-worker` endpoints ("host:port"), one
	// pool slot each, alongside any Workers children.
	Remote []string
	// AuthToken is presented in remote handshakes; it must match the
	// serve-workers' -auth-token (empty matches only servers that
	// require none).
	AuthToken string
	// CacheDir, when set, backs workload stores with a shared
	// content-addressed disk cache and travels to local worker
	// children as their -cache-dir.
	CacheDir string
}

// Distributed reports whether the config asks for out-of-process
// cells — the condition under which dist.PoolFromConfig builds a pool.
func (c Config) Distributed() bool { return c.Workers > 0 || len(c.Remote) > 0 }
