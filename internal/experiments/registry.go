package experiments

import (
	"context"
	"fmt"

	"dsa/internal/engine"
	"dsa/internal/engine/dist"
	"dsa/internal/metrics"
)

// DistTask is the worker-side handler name for experiment cells. A
// worker process (any binary that links this package and runs
// dist.WorkerMain) rebuilds a cell from {sweep id, cell key} plus the
// sweep's base seed: the cell builders are pure functions of the
// Config's seed, so the registry plus the seed IS the cell — nothing
// else crosses the wire. Workloads re-materialize in the worker's own
// catalog from their "<name>@<seed>" keys.
const DistTask = "experiments/cell"

// sweepDef is one registered experiment sweep: its stable id (the CLI
// and wire name), presentation (title, header) and the builder that
// reconstructs its cells from a Config. Builders must be pure:
// the same config must yield the same cells in the same order in every
// process, or distribution would not be byte-identical.
type sweepDef struct {
	id     string
	title  string
	header []string
	build  func(sc Config) []cell
	// spec, when non-nil, overrides the wire spec jobs carry — the seam
	// declarative scenarios use: their cells travel under the
	// scenario/cell task (source included), not the compiled-in
	// registry's DistTask.
	spec func(cellKey string) *engine.Spec
}

// sweepRegistry holds every compiled-in sweep by id, for workers
// rebuilding a cell from its wire spec.
var sweepRegistry = map[string]*sweepDef{}

// registerSweep registers a compiled-in sweep under its id.
func registerSweep(id, title string, header []string, build func(Config) []cell) *sweepDef {
	if _, dup := sweepRegistry[id]; dup {
		panic(fmt.Sprintf("experiments: sweep %q registered twice", id))
	}
	d := &sweepDef{id: id, title: title, header: header, build: build}
	sweepRegistry[id] = d
	return d
}

// jobs turns the sweep's cells into engine jobs. Every job carries a
// Spec naming this sweep and cell, so an out-of-process executor can
// rebuild and run the cell in a worker; in-process execution uses the
// closure directly. Both paths run the same builder output, so output
// bytes cannot depend on where a cell ran.
func (d *sweepDef) jobs(sc Config) []engine.Job {
	cells := d.build(sc)
	jobs := make([]engine.Job, len(cells))
	for i, cl := range cells {
		cl := cl
		spec := &engine.Spec{Task: DistTask, Args: map[string]string{"sweep": d.id, "cell": cl.key}}
		if d.spec != nil {
			spec = d.spec(cl.key)
		}
		jobs[i] = engine.Job{
			Key:  cl.key,
			Spec: spec,
			Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				return cl.run(env)
			},
		}
	}
	return jobs
}

// runCtx executes the sweep under an explicit configuration and
// cancellation context and aggregates its cells' rows into its table.
// A panicked cell becomes a FAILED row; an ordinary error aborts the
// table.
func (d *sweepDef) runCtx(ctx context.Context, sc Config) (*metrics.Table, error) {
	t := &metrics.Table{Title: d.title, Header: d.header}
	eng := newEngine(sc, d.title)
	if _, err := eng.FillTable(ctx, t, d.jobs(sc)); err != nil {
		return nil, err
	}
	return t, nil
}

// runRemoteCell is the worker-side handler: rebuild the named sweep's
// cells from the shipped base seed and run the one cell the request
// names, against the worker's own env (per-process catalog, key-derived
// RNG).
func runRemoteCell(ctx context.Context, c dist.Call) (interface{}, error) {
	id := c.Spec.Args["sweep"]
	d := sweepRegistry[id]
	if d == nil {
		return nil, fmt.Errorf("experiments: unknown sweep %q", id)
	}
	want := c.Spec.Args["cell"]
	for _, cl := range d.build(Config{Seed: c.Seed}) {
		if cl.key == want {
			return cl.run(c.Env)
		}
	}
	return nil, fmt.Errorf("experiments: sweep %q has no cell %q", id, want)
}

func init() {
	dist.Handle(DistTask, runRemoteCell)
}
