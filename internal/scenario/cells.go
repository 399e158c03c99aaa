package scenario

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"dsa/internal/alloc"
	"dsa/internal/core"
	"dsa/internal/engine"
	"dsa/internal/engine/dist"
	"dsa/internal/machine"
	"dsa/internal/replace"
	"dsa/internal/sim"
	"dsa/internal/workload"
	"dsa/internal/workload/catalog"
	"dsa/internal/workload/stock"
)

// DistTask is the worker-side handler name for scenario cells. Unlike
// the compiled-in sweeps — which a worker rebuilds from its own sweep
// registry — a declarative sweep does not exist in the worker binary,
// so the cell spec carries the scenario source itself: the worker
// compiles it on first use (cached by wire id, whose content hash it
// verifies) and then rebuilds cells exactly like the dispatcher.
const DistTask = "scenario/cell"

// Cell is one compiled scenario cell: a stable key plus the row
// producer, the same shape the experiments registry erases its typed
// cells to.
type Cell struct {
	Key string
	Run func(env engine.Env) (engine.RowBatch, error)
}

// Spec is the wire spec for one cell of this scenario, under DistTask.
func (s *Scenario) Spec(cellKey string) *engine.Spec {
	return &engine.Spec{Task: DistTask, Args: map[string]string{
		"scenario": s.ID(),
		"cell":     cellKey,
		"src":      s.src,
	}}
}

// seeded maps the scenario's fixed seed through a base seed, with
// exactly the derivation the experiments runner uses: base 0 keeps the
// fixed seed (paper-exact reproduction), any other re-derives it via
// sim.SeedFor so the whole scenario moves to a fresh but equally
// reproducible stream.
func seeded(base, fixed uint64) uint64 {
	if base == 0 {
		return fixed
	}
	return sim.SeedFor(base, "workload-seed:"+strconv.FormatUint(fixed, 10))
}

// Cells lowers the scenario to its engine cells under the given base
// seed. The builder is pure: the same scenario and base seed yield the
// same cells in the same order in every process — the property that
// makes distribution byte-identical.
func (s *Scenario) Cells(baseSeed uint64) []Cell {
	switch s.Kind {
	case KindPlacement:
		return s.placementCells(baseSeed)
	case KindReplacement:
		return s.replacementCells(baseSeed)
	case KindMachines:
		return s.machineCells(baseSeed)
	}
	return nil
}

// --- placement -------------------------------------------------------

// AllocPolicy maps a placement policy name to its constructor — the
// single table behind both the compiled-in T2 sweep and declarative
// placement scenarios, so a scenario can never mean a different
// "best-fit" than the experiment does.
func AllocPolicy(name string) (func() (alloc.Policy, alloc.Mode), bool) {
	switch name {
	case "first-fit":
		return func() (alloc.Policy, alloc.Mode) { return alloc.FirstFit{}, alloc.CoalesceImmediate }, true
	case "best-fit":
		return func() (alloc.Policy, alloc.Mode) { return alloc.BestFit{}, alloc.CoalesceImmediate }, true
	case "worst-fit":
		return func() (alloc.Policy, alloc.Mode) { return alloc.WorstFit{}, alloc.CoalesceImmediate }, true
	case "next-fit":
		return func() (alloc.Policy, alloc.Mode) { return &alloc.NextFit{}, alloc.CoalesceImmediate }, true
	case "two-ended":
		return func() (alloc.Policy, alloc.Mode) { return alloc.TwoEnded{Threshold: 512}, alloc.CoalesceImmediate }, true
	case "rice-chain":
		return func() (alloc.Policy, alloc.Mode) { return alloc.RiceChain{}, alloc.CoalesceDeferred }, true
	}
	return nil, false
}

// PlacementTail replays a request stream against a fresh heap and
// returns the metric columns every placement row ends with: allocs,
// frag failures, utilization at first failure, external fragmentation,
// probes per allocation. It is the single replay loop behind the
// compiled-in T2 sweep and declarative placement scenarios — identical
// bytes by construction.
func PlacementTail(reqs []workload.Request, pol alloc.Policy, mode alloc.Mode, heapWords int) ([]interface{}, error) {
	h := alloc.New(heapWords, pol, mode)
	// The free schedule — addresses to free before request i — is an
	// intrusive FIFO list per step over flat slices (node ids are
	// index+1, so the zero value means "empty bucket"). A map of
	// per-step slices here allocated on nearly every successful
	// request; adversarial streams schedule tens of thousands. Frees
	// that would land at or beyond len(reqs) are never consumed by the
	// loop, so they are not scheduled at all.
	freeHead := make([]int32, len(reqs))
	freeTail := make([]int32, len(reqs))
	var addrs []int
	var next []int32
	utilAtFirstFail := -1.0
	for i, req := range reqs {
		for n := freeHead[i]; n != 0; n = next[n-1] {
			if err := h.Free(addrs[n-1]); err != nil {
				return nil, err
			}
		}
		a, err := h.Alloc(req.Size)
		if err != nil {
			if utilAtFirstFail < 0 {
				utilAtFirstFail = h.Stats().Utilization()
			}
			continue
		}
		if at := i + req.Lifetime; req.Lifetime > 0 && at < len(reqs) {
			addrs = append(addrs, a)
			next = append(next, 0)
			id := int32(len(addrs))
			if freeHead[at] == 0 {
				freeHead[at] = id
			} else {
				next[freeTail[at]-1] = id
			}
			freeTail[at] = id
		}
	}
	c := h.Counters()
	st := h.Stats()
	util := utilAtFirstFail
	if util < 0 {
		util = 1 // never failed
	}
	probes := 0.0
	if c.Allocs > 0 {
		probes = float64(c.Probes) / float64(c.Allocs+c.Failures)
	}
	return []interface{}{c.Allocs, c.FragFailures, util, st.ExternalFrag(), probes}, nil
}

// placementRequests materializes one placement workload's request
// stream through the cell's catalog, under the stock keys.
func (s *Scenario) placementRequests(cat *catalog.Catalog, w PlacementWorkload, baseSeed uint64) ([]workload.Request, error) {
	sd := seeded(baseSeed, s.Seed)
	if w.Family == "adversarial" {
		return stock.Adversarial(cat, workload.AdversarialConfig{
			Target: w.Target, HeapWords: s.Placement.HeapWords, Count: w.Count,
		}, sd)
	}
	return stock.Requests(cat, workload.RequestConfig{
		Dist: requestDists[w.Family], MinSize: w.MinSize, MaxSize: w.MaxSize,
		MeanSize: w.MeanSize, MeanLifetime: w.MeanLifetime, Count: w.Count,
	}, sd)
}

func (s *Scenario) placementCells(baseSeed uint64) []Cell {
	spec := s.Placement
	var cells []Cell
	for _, w := range spec.Workloads {
		for _, pol := range spec.Policies {
			w, pol := w, pol
			cells = append(cells, Cell{
				Key: s.Name + "/" + w.Label() + "/" + pol,
				Run: func(env engine.Env) (engine.RowBatch, error) {
					reqs, err := s.placementRequests(env.Catalog, w, baseSeed)
					if err != nil {
						return nil, err
					}
					mk, _ := AllocPolicy(pol)
					p, mode := mk()
					tail, err := PlacementTail(reqs, p, mode, spec.HeapWords)
					if err != nil {
						return nil, err
					}
					return engine.RowBatch{append([]interface{}{w.Label(), pol}, tail...)}, nil
				},
			})
		}
	}
	return cells
}

// --- replacement -----------------------------------------------------

// ReplacePolicy maps a replacement policy name to a fresh policy
// instance — the single table behind both the compiled-in T1 sweep and
// declarative replacement scenarios. MIN needs the full page string;
// the stochastic policies draw from an RNG seeded deterministically by
// the caller.
func ReplacePolicy(name string, pageStr []replace.PageID, rngSeed uint64) (replace.Policy, bool) {
	switch name {
	case "belady-min":
		return replace.NewMIN(pageStr), true
	case "lru":
		return replace.NewLRU(), true
	case "clock":
		return replace.NewClock(), true
	case "fifo":
		return replace.NewFIFO(), true
	case "random":
		return replace.NewRandom(sim.NewRNG(rngSeed)), true
	case "m44-random":
		return replace.NewM44Random(sim.NewRNG(rngSeed)), true
	case "atlas-learning":
		return replace.NewLearning(), true
	}
	return nil, false
}

// pageString materializes one replacement workload's page-granular
// reference string through the catalog: the derived string is
// cataloged under its own key (page size included — a generation
// determinant), and its generation pulls the underlying trace through
// the stock keys, so a disk-backed store replays both.
func (s *Scenario) pageString(cat *catalog.Catalog, w TraceWorkload, baseSeed uint64) ([]replace.PageID, error) {
	sd := seeded(baseSeed, s.Seed)
	key := fmt.Sprintf("dsasim/page-string/%s/extent=%d/refs=%d/psize=%d@%x",
		w.Family, w.Extent, w.Refs, s.Replacement.PageSize, sd)
	return catalog.Get(cat, key, func() ([]replace.PageID, error) {
		tr, err := stock.Linear(cat, w.Family, w.Extent, w.Refs, sd)
		if err != nil {
			return nil, err
		}
		return replace.PageString(tr.PageString(uint64(s.Replacement.PageSize))), nil
	})
}

func (s *Scenario) replacementCells(baseSeed uint64) []Cell {
	spec := s.Replacement
	var cells []Cell
	for _, w := range spec.Workloads {
		for _, frames := range spec.Frames {
			w, frames := w, frames
			cells = append(cells, Cell{
				Key: fmt.Sprintf("%s/%s/frames=%d", s.Name, w.Family, frames),
				Run: func(env engine.Env) (engine.RowBatch, error) {
					pageStr, err := s.pageString(env.Catalog, w, baseSeed)
					if err != nil {
						return nil, err
					}
					row := []interface{}{w.Family, frames}
					for _, name := range spec.Policies {
						p, _ := ReplacePolicy(name, pageStr, seeded(baseSeed, s.Seed+1))
						row = append(row, replace.FaultCount(p, pageStr, frames))
					}
					return engine.RowBatch{row}, nil
				},
			})
		}
	}
	return cells
}

// --- machines --------------------------------------------------------

// machineCtors maps appendix machine names to their constructors, in
// no particular order; machineNames fixes the sweep order.
var machineCtors = map[string]func(int) (*machine.Machine, error){
	"atlas": machine.Atlas, "m44": machine.M44, "b5000": machine.B5000,
	"rice": machine.Rice, "b8500": machine.B8500, "multics": machine.Multics,
	"m67": machine.M67,
}

func (s *Scenario) machineCells(baseSeed uint64) []Cell {
	spec := s.Machines
	var cells []Cell
	for _, name := range spec.Names {
		for _, w := range spec.Workloads {
			name, w := name, w
			cells = append(cells, Cell{
				Key: s.Name + "/" + name + "/" + w.Family,
				Run: func(env engine.Env) (engine.RowBatch, error) {
					m, err := machineCtors[name](spec.Scale)
					if err != nil {
						return nil, err
					}
					rep, err := s.runOnMachine(env.Catalog, m, w, baseSeed)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", m.Name, err)
					}
					var fetches int64
					if rep.Paging != nil {
						fetches += rep.Paging.Faults
					}
					if rep.SegStats != nil {
						fetches += rep.SegStats.SegFaults
					}
					frag := 0.0
					if rep.Frag != nil {
						frag = rep.Frag.ExternalFrag()
					}
					return engine.RowBatch{{m.Name, w.Family, fetches,
						rep.SpaceTime.WaitFraction(), rep.Elapsed, frag}}, nil
				},
			})
		}
	}
	return cells
}

// runOnMachine materializes the workload for one machine through the
// stock keys (extent derived from the machine, exactly as `dsasim
// -machine all` derives it) and replays it.
func (s *Scenario) runOnMachine(cat *catalog.Catalog, m *machine.Machine, w TraceWorkload, baseSeed uint64) (*core.Report, error) {
	sd := seeded(baseSeed, s.Seed)
	if w.Family == "segments" {
		wk, err := stock.Segments(cat, s.Machines.Segs, w.Refs, sd)
		if err != nil {
			return nil, err
		}
		return m.RunWorkload(wk)
	}
	tr, err := stock.Linear(cat, w.Family, stock.Extent(m), w.Refs, sd)
	if err != nil {
		return nil, err
	}
	return m.RunLinear(tr)
}

// --- the dist handler ------------------------------------------------

var (
	remoteMu    sync.Mutex
	remoteCache = map[string]*Scenario{}
)

// compileRemote compiles (and caches, by wire id) a scenario shipped
// in a cell spec, verifying the id's content hash against the received
// source so a skewed dispatcher can never run the wrong cells quietly.
func compileRemote(id, src string) (*Scenario, error) {
	remoteMu.Lock()
	defer remoteMu.Unlock()
	if s := remoteCache[id]; s != nil {
		return s, nil
	}
	if src == "" {
		return nil, fmt.Errorf("scenario: cell spec for %q carries no source", id)
	}
	s, err := Parse(src, id)
	if err != nil {
		return nil, fmt.Errorf("scenario: compiling wire source for %q: %w", id, err)
	}
	if s.ID() != id {
		return nil, fmt.Errorf("scenario: wire id %q does not match compiled id %q", id, s.ID())
	}
	remoteCache[id] = s
	return s, nil
}

// runRemoteCell is the worker-side handler: compile the shipped
// scenario (once per worker process), rebuild its cells from the
// shipped base seed, and run the one cell the request names against
// the worker's own env.
func runRemoteCell(ctx context.Context, c dist.Call) (interface{}, error) {
	s, err := compileRemote(c.Spec.Args["scenario"], c.Spec.Args["src"])
	if err != nil {
		return nil, err
	}
	want := c.Spec.Args["cell"]
	for _, cl := range s.Cells(c.Seed) {
		if cl.Key == want {
			return cl.Run(c.Env)
		}
	}
	return nil, fmt.Errorf("scenario: %s has no cell %q", s.ID(), want)
}

func init() {
	dist.Handle(DistTask, runRemoteCell)
}
