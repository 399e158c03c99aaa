package experiments

import (
	"fmt"

	"dsa/internal/addr"
	"dsa/internal/alloc"
	"dsa/internal/core"
	"dsa/internal/engine"
	"dsa/internal/machine"
	"dsa/internal/metrics"
	"dsa/internal/replace"
	"dsa/internal/scenario"
	"dsa/internal/sim"
	"dsa/internal/trace"
	"dsa/internal/workload"
)

// T1Replacement reproduces the replacement-strategy comparison the
// paper builds on Belady's study [1]: fault counts for MIN, LRU, Clock,
// FIFO, Random, the M44 class policy and the ATLAS learning program,
// across memory sizes and reference regimes. Expected shape: MIN is a
// lower bound everywhere; LRU ≈ Clock ≤ FIFO ≤ Random under locality;
// the learning program wins on loops and loses on random traffic.
// Each trace × frame-count pair is an independent engine cell; the
// three traces are materialized once each in the sweep catalog and
// shared read-only across the frame-count cells.
func T1Replacement() (*metrics.Table, error) { return t1Def.run() }

var t1Def = registerSweep("t1",
	"T1 — replacement strategies (faults; after Belady [1])",
	[]string{"trace", "frames",
		"belady-min", "lru", "clock", "fifo", "random", "m44-random", "atlas-learning"},
	t1Cells)

func t1Cells(sc Config) []cell {
	const pageSize = 256
	traces := []struct {
		name  string
		fixed uint64
		gen   func(rng *sim.RNG) (trace.Trace, error)
	}{
		{"working-set", 5, func(rng *sim.RNG) (trace.Trace, error) {
			return workload.WorkingSet(rng, workload.WorkingSetConfig{
				Extent: 64 * pageSize, SetWords: 8 * pageSize,
				PhaseLen: 5000, Phases: 6, LocalityProb: 0.9,
			})
		}},
		{"loop(17 pages)", 0, func(*sim.RNG) (trace.Trace, error) {
			return workload.Loop(17, pageSize, 100), nil
		}},
		{"random", 6, func(rng *sim.RNG) (trace.Trace, error) {
			return workload.UniformRandom(rng, 64*pageSize, 20000), nil
		}},
	}
	policyOrder := []string{"belady-min", "lru", "clock", "fifo", "random", "m44-random", "atlas-learning"}

	var cells []cell
	for _, tc := range traces {
		for _, frames := range []int{8, 16, 24} {
			tc, frames := tc, frames
			cells = append(cells, cell{
				key: fmt.Sprintf("t1/%s/frames=%d", tc.name, frames),
				run: func(env engine.Env) (engine.RowBatch, error) {
					// The cataloged view is the derived page string, not the
					// raw trace: every frame-count cell replays the identical
					// page-granular reference string, so the trace → page
					// string reduction is materialized once along with the
					// generation.
					pageStr, err := shared(env, sc, "t1/page-string/"+tc.name, tc.fixed,
						func(rng *sim.RNG) ([]replace.PageID, error) {
							tr, err := tc.gen(rng)
							if err != nil {
								return nil, err
							}
							return replace.PageString(tr.PageString(pageSize)), nil
						})
					if err != nil {
						return nil, err
					}
					row := []interface{}{tc.name, frames}
					for _, name := range policyOrder {
						// The policy table is the scenario package's: the
						// compiled-in sweep and declarative replacement
						// scenarios can never mean different policies by the
						// same name.
						p, _ := scenario.ReplacePolicy(name, pageStr, sc.seeded(1))
						row = append(row, replace.FaultCount(p, pageStr, frames))
					}
					return engine.RowBatch{row}, nil
				},
			})
		}
	}
	return cells
}

// T2Placement reproduces the placement-strategy comparison of the
// Placement Strategies section: first fit, best fit (B5000), worst
// fit, next fit, two-ended and the Rice chain, across request-size
// distributions. Reported: achieved utilization when the first
// fragmentation failure occurs, external fragmentation at steady state,
// and search effort (probes per allocation, the bookkeeping cost the
// two-ended strategy was designed to cut). Each distribution × policy
// pair is an independent engine cell; each distribution's request
// stream is materialized once in the sweep catalog and replayed by all
// six policy cells.
func T2Placement() (*metrics.Table, error) { return t2Def.run() }

var t2Def = registerSweep("t2",
	"T2 — placement strategies (heap 64Ki words)",
	[]string{"distribution", "policy", "allocs", "frag failures",
		"utilization@fail", "ext frag", "probes/alloc"},
	t2Cells)

func t2Cells(sc Config) []cell {
	const heapWords = 65536
	dists := []workload.RequestConfig{
		{Dist: workload.SizesUniform, MinSize: 16, MaxSize: 1024, MeanLifetime: 60, Count: 8000},
		{Dist: workload.SizesExponential, MinSize: 8, MaxSize: 4096, MeanSize: 200, MeanLifetime: 60, Count: 8000},
		{Dist: workload.SizesBimodal, MinSize: 32, MaxSize: 4096, MeanLifetime: 60, Count: 8000},
	}
	// The policy table and the replay loop are the scenario package's:
	// a declarative placement scenario naming "best-fit" runs exactly
	// this sweep's best-fit, and its rows end in exactly these columns.
	policies := []string{"first-fit", "best-fit", "worst-fit", "next-fit", "two-ended", "rice-chain"}
	var cells []cell
	for _, dc := range dists {
		for _, name := range policies {
			dc, name := dc, name
			cells = append(cells, cell{
				key: fmt.Sprintf("t2/%s/%s", dc.Dist, name),
				run: func(env engine.Env) (engine.RowBatch, error) {
					reqs, err := shared(env, sc, "t2/requests/"+dc.Dist.String(), 31,
						func(rng *sim.RNG) ([]workload.Request, error) {
							return workload.Requests(rng, dc)
						})
					if err != nil {
						return nil, err
					}
					mk, _ := scenario.AllocPolicy(name)
					pol, mode := mk()
					tail, err := scenario.PlacementTail(reqs, pol, mode, heapWords)
					if err != nil {
						return nil, err
					}
					return engine.RowBatch{append([]interface{}{dc.Dist.String(), name}, tail...)}, nil
				},
			})
		}
	}
	return cells
}

// t3Sizes materializes the segment population every T3 cell shares and
// returns it with its total word count.
func t3Sizes(env engine.Env, sc Config) ([]int, int, error) {
	sizes, err := shared(env, sc, "t3/segment-sizes", 17, func(rng *sim.RNG) ([]int, error) {
		return workload.SegmentSizes(rng, 3000, 8192), nil
	})
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	return sizes, total, nil
}

// T3UnitSize reproduces the unit-of-allocation discussion: "If it is
// too small, there will be an unacceptable amount of overhead. If it is
// too large, too much space will be wasted." A compiler-shaped segment
// population is held in pages of sweeping size; internal waste rises
// with page size while table overhead (one word per page table entry)
// falls. The final row gives the variable-unit alternative, which
// trades the internal waste for external fragmentation. One engine
// cell per page size plus one for the variable-unit heap, all sharing
// one cataloged segment population.
func T3UnitSize() (*metrics.Table, error) { return t3Def.run() }

var t3Def = registerSweep("t3",
	"T3 — choosing the unit of allocation (3000 segments)",
	[]string{"unit", "pages", "table words", "internal waste",
		"waste frac", "ext frag"},
	t3Cells)

func t3Cells(sc Config) []cell {
	var cells []cell
	for _, pageSize := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		pageSize := pageSize
		cells = append(cells, cell{
			key: fmt.Sprintf("t3/pages=%d", pageSize),
			run: func(env engine.Env) (engine.RowBatch, error) {
				sizes, total, err := t3Sizes(env, sc)
				if err != nil {
					return nil, err
				}
				pages, waste := 0, 0
				for _, s := range sizes {
					pages += machine.PageCount(s, pageSize)
					waste += machine.PageWaste(s, pageSize)
				}
				return oneRow(fmt.Sprintf("%d-word pages", pageSize), pages, pages,
					waste, float64(waste)/float64(total+waste), 0.0), nil
			},
		})
	}
	cells = append(cells, cell{
		key: "t3/variable",
		run: func(env engine.Env) (engine.RowBatch, error) {
			// Variable units: allocate the same population (with churn)
			// from a heap and report the external fragmentation instead.
			sizes, total, err := t3Sizes(env, sc)
			if err != nil {
				return nil, err
			}
			h := alloc.New(total/2, alloc.BestFit{}, alloc.CoalesceImmediate)
			live := make([]int, 0)
			rng2 := sim.NewRNG(sc.seeded(18))
			for _, s := range sizes {
				if a, err := h.Alloc(s); err == nil {
					live = append(live, a)
				}
				// Random churn keeps the heap near half full.
				for h.Stats().Utilization() > 0.55 && len(live) > 0 {
					j := rng2.Intn(len(live))
					if err := h.Free(live[j]); err != nil {
						return nil, err
					}
					live = append(live[:j], live[j+1:]...)
				}
			}
			st := h.Stats()
			return oneRow("variable (best-fit)", "-", "-", st.AllocatedWords-st.RequestedWords,
				st.InternalFrag(), st.ExternalFrag()), nil
		},
	})
	return cells
}

// T4Machines runs the common segmented workload on all seven appendix
// machines and reports their behaviour side by side — one engine cell
// per machine. The workload is materialized once in the sweep catalog;
// every machine replays the same immutable declaration/reference
// stream while the seven historical simulations proceed concurrently.
func T4Machines() (*metrics.Table, error) { return t4Def.run() }

var t4Def = registerSweep("t4",
	"T4 — the appendix survey on a common workload (32 segments, 20000 refs)",
	[]string{"machine", "app.", "characteristics", "fetches",
		"wait frac", "elapsed (cycles)", "ext frag"},
	t4Cells)

func t4Cells(sc Config) []cell {
	// Same order as machine.All.
	ctors := []struct {
		name string
		mk   func(int) (*machine.Machine, error)
	}{
		{"atlas", machine.Atlas}, {"m44", machine.M44}, {"b5000", machine.B5000},
		{"rice", machine.Rice}, {"b8500", machine.B8500}, {"multics", machine.Multics},
		{"m67", machine.M67},
	}
	cells := make([]cell, len(ctors))
	for i, ct := range ctors {
		ct := ct
		cells[i] = cell{
			key: "t4/" + ct.name,
			run: func(env engine.Env) (engine.RowBatch, error) {
				// CommonWorkload seeds its own RNG, so the generator ignores
				// the one shared() hands it; the single t4WorkloadSeed
				// constant keeps the catalog key and the generation in step.
				const t4WorkloadSeed = 3
				w, err := shared(env, sc, "t4/common-workload", t4WorkloadSeed,
					func(*sim.RNG) (machine.SegWorkload, error) {
						return machine.CommonWorkload(sc.seeded(t4WorkloadSeed), 32, 20000), nil
					})
				if err != nil {
					return nil, err
				}
				m, err := ct.mk(2)
				if err != nil {
					return nil, err
				}
				rep, err := m.RunWorkload(w)
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
				return oneRow(m.Name, m.Appendix, m.System.Characteristics().String(),
					fetches, rep.SpaceTime.WaitFraction(), rep.Elapsed, frag), nil
			},
		}
	}
	return cells
}

// T5Predictive reproduces the predictive-information discussion using
// the M44/44X (the system with the WillNeed/WontNeed instructions):
// a phase-structured program runs under pure demand paging, with
// accurate advice, and with adversarially wrong advice. Correct advice
// cuts waiting (pages arrive overlapped, dead pages leave early); wrong
// advice must not break anything but costs performance — the paper's
// argument for treating directives as advisory tuning. One engine cell
// per advice variant, all replaying the same cataloged base program
// (the advice wrappers copy; the base is never mutated).
func T5Predictive() (*metrics.Table, error) { return t5Def.run() }

var t5Def = registerSweep("t5",
	"T5 — predictive information on the M44/44X",
	[]string{"variant", "faults", "prefetches", "advice evictions",
		"wait frac", "space-time total", "elapsed"},
	t5Cells)

func t5Cells(sc Config) []cell {
	const pageSize = 512
	const phaseWords = 4 * pageSize
	variants := []struct {
		name string
		mk   func(base trace.Trace) trace.Trace
	}{
		{"demand only", func(base trace.Trace) trace.Trace { return base }},
		{"accurate advice", func(base trace.Trace) trace.Trace {
			return workload.WithAdvice(base, 3000, phaseWords)
		}},
		{"wrong advice", func(base trace.Trace) trace.Trace {
			return workload.WithWrongAdvice(base, 3000, phaseWords, 64*pageSize)
		}},
	}
	cells := make([]cell, len(variants))
	for i, v := range variants {
		v := v
		cells[i] = cell{
			key: "t5/" + v.name,
			run: func(env engine.Env) (engine.RowBatch, error) {
				base, err := shared(env, sc, "t5/base-trace", 42,
					func(rng *sim.RNG) (trace.Trace, error) {
						return workload.WorkingSet(rng, workload.WorkingSetConfig{
							Extent: 64 * pageSize, SetWords: phaseWords,
							PhaseLen: 3000, Phases: 8, LocalityProb: 0.97, WriteProb: 0.2,
						})
					})
				if err != nil {
					return nil, err
				}
				m, err := machine.M44WithPageSize(16, pageSize)
				if err != nil {
					return nil, err
				}
				rep, err := m.RunLinear(v.mk(base))
				if err != nil {
					return nil, err
				}
				return oneRow(v.name, rep.Paging.Faults, rep.Paging.Prefetches,
					rep.Paging.AdviceEvictions, rep.SpaceTime.WaitFraction(),
					rep.SpaceTime.Total(), rep.Elapsed), nil
			},
		}
	}
	return cells
}

// T6DualPageSize reproduces the MULTICS dual-page-size argument (A.6):
// with 64- and 1024-word page frames "the loss in storage utilization
// caused by fragmentation occurring within pages can be reduced", at
// the cost of added placement/replacement complexity (more table
// entries to manage). One engine cell per paging scheme over the same
// cataloged segment population.
func T6DualPageSize() (*metrics.Table, error) { return t6Def.run() }

var t6Def = registerSweep("t6",
	"T6 — MULTICS dual page sizes (3000 segments)",
	[]string{"scheme", "pages", "table words", "waste words", "waste frac"},
	t6Cells)

func t6Cells(sc Config) []cell {
	mkSizes := func(env engine.Env) ([]int, int, error) {
		sizes, err := shared(env, sc, "t6/segment-sizes", 23, func(rng *sim.RNG) ([]int, error) {
			return workload.SegmentSizes(rng, 3000, 262144/16), nil // cap at scaled max segment
		})
		if err != nil {
			return nil, 0, err
		}
		total := 0
		for _, s := range sizes {
			total += s
		}
		return sizes, total, nil
	}
	single := func(label string, pageSize int) cell {
		return cell{
			key: "t6/" + label,
			run: func(env engine.Env) (engine.RowBatch, error) {
				sizes, total, err := mkSizes(env)
				if err != nil {
					return nil, err
				}
				pages, waste := 0, 0
				for _, s := range sizes {
					pages += machine.PageCount(s, pageSize)
					waste += machine.PageWaste(s, pageSize)
				}
				return oneRow(label, pages, pages, waste,
					float64(waste)/float64(total+waste)), nil
			},
		}
	}
	dual := cell{
		key: "t6/dual",
		run: func(env engine.Env) (engine.RowBatch, error) {
			sizes, total, err := mkSizes(env)
			if err != nil {
				return nil, err
			}
			var dualPages, dualWaste int
			for _, s := range sizes {
				lg, sm, w := machine.DualPageSplit(s, 64, 1024)
				dualPages += lg + sm
				dualWaste += w
			}
			return oneRow("dual 64+1024 (MULTICS)", dualPages, dualPages, dualWaste,
				float64(dualWaste)/float64(total+dualWaste)), nil
		},
	}
	return []cell{single("64-word only", 64), single("1024-word only", 1024), dual}
}

// T7NameSpace reproduces the symbolic-vs-linear segment-naming
// comparison of the Name Space section: under creation/destruction
// churn, a linearly segmented name space must find and eventually fails
// to find contiguous runs of segment names ("one does not need to
// search a dictionary for a group of available contiguous segment
// names" with symbols), while the symbolic dictionary does constant
// bookkeeping and never fragments. The two dictionaries run as
// independent engine cells over the same churn sequence. The churn is
// generated inline (not cataloged): each step's RNG draws depend on the
// dictionary's own success or failure, so the sequence is simulation
// state, not a pure workload.
func T7NameSpace() (*metrics.Table, error) { return t7Def.run() }

var t7Def = registerSweep("t7",
	"T7 — segment-name bookkeeping: symbolic vs linear dictionary",
	[]string{"dictionary", "ops", "probes or lookups",
		"frag failures", "largest free run", "free names"},
	t7Cells)

func t7Cells(sc Config) []cell {
	const slots = 256
	const ops = 4000

	linear := cell{
		key: "t7/linear",
		run: func(engine.Env) (engine.RowBatch, error) {
			rng := sim.NewRNG(sc.seeded(29))
			lin := addr.NewLinearDictionary(slots)
			type held struct {
				first addr.SegID
				k     int
			}
			var live []held
			linOps := 0
			for i := 0; i < ops; i++ {
				if rng.Float64() < 0.55 || len(live) == 0 {
					k := 1 + rng.Intn(4) // programs want short runs to index across
					if first, err := lin.AllocRange(k); err == nil {
						live = append(live, held{first, k})
					}
					linOps++
				} else {
					j := rng.Intn(len(live))
					if err := lin.FreeRange(live[j].first, live[j].k); err != nil {
						return nil, err
					}
					live = append(live[:j], live[j+1:]...)
					linOps++
				}
			}
			return oneRow("linearly segmented", linOps, lin.Probes, lin.Failures,
				lin.LargestFreeRun(), lin.FreeCount()), nil
		},
	}
	symbolic := cell{
		key: "t7/symbolic",
		run: func(engine.Env) (engine.RowBatch, error) {
			rng2 := sim.NewRNG(sc.seeded(29))
			sym := addr.NewSymbolicDictionary()
			var symLive []string
			symOps := 0
			for i := 0; i < ops; i++ {
				if rng2.Float64() < 0.55 || len(symLive) == 0 {
					// A group of k segments needs no contiguity: declare k
					// independent symbols.
					k := 1 + rng2.Intn(4)
					for j := 0; j < k; j++ {
						s := fmt.Sprintf("seg-%d-%d", i, j)
						sym.Declare(s)
						symLive = append(symLive, s)
					}
					symOps++
				} else {
					j := rng2.Intn(len(symLive))
					if err := sym.Remove(symLive[j]); err != nil {
						return nil, err
					}
					symLive = append(symLive[:j], symLive[j+1:]...)
					symOps++
				}
			}
			return oneRow("symbolically segmented", symOps, sym.Lookups, 0, "-", "-"), nil
		},
	}
	return []cell{linear, symbolic}
}

// T8Overlap reproduces the fetch-overlap argument: "a large space-time
// product will not overly affect the performance of a system if the
// time spent on fetching pages can normally be overlapped with the
// execution of other programs" — until per-program core becomes so
// small that fault rates explode (thrashing). One engine cell per
// multiprogramming degree; the sweep is analytic (no generated
// workload to catalog).
func T8Overlap() (*metrics.Table, error) { return t8Def.run() }

var t8Def = registerSweep("t8",
	"T8 — multiprogramming overlap of page fetches",
	[]string{"programs", "frames/program", "refs between faults",
		"CPU utilization", "faults"},
	t8Cells)

func t8Cells(sc Config) []cell {
	base := core.MultiprogramConfig{
		TotalFrames:      64,
		FetchTime:        5000,
		LifetimeCoeff:    50,
		WorkingSetFrames: 8,
		RefsPerProgram:   300000,
	}
	degrees := []int{1, 2, 4, 8, 16, 32, 64}
	cells := make([]cell, len(degrees))
	for i, n := range degrees {
		n := n
		cells[i] = cell{
			key: fmt.Sprintf("t8/programs=%d", n),
			run: func(engine.Env) (engine.RowBatch, error) {
				results, err := core.OverlapSweep(base, []int{n})
				if err != nil {
					return nil, err
				}
				r := results[0]
				return oneRow(n, r.FramesPerProgram, r.InterFault,
					r.CPUUtilization, r.Faults), nil
			},
		}
	}
	return cells
}

// T8OverlapTraced is the trace-driven companion of T8: instead of the
// analytic lifetime curve, N real working-set programs run on real
// pagers sharing one core, the processor switching on every fault.
// Each multiprogramming degree is an engine cell running its own
// shared-core simulation; program i's trace is materialized once in
// the sweep catalog, so degree 8 reuses the traces degrees 1–4
// already forced.
func T8OverlapTraced() (*metrics.Table, error) { return t8bDef.run() }

var t8bDef = registerSweep("t8b",
	"T8b — multiprogramming overlap, trace-driven (shared core, LRU pagers)",
	[]string{"programs", "frames/program", "faults",
		"switches", "CPU utilization"},
	t8bCells)

func t8bCells(sc Config) []cell {
	const refs = 4000
	degrees := []int{1, 2, 4, 8}
	cells := make([]cell, len(degrees))
	for i, n := range degrees {
		n := n
		cells[i] = cell{
			key: fmt.Sprintf("t8b/programs=%d", n),
			run: func(env engine.Env) (engine.RowBatch, error) {
				traces := make([]trace.Trace, n)
				for i := range traces {
					tr, err := shared(env, sc, fmt.Sprintf("t8b/trace/%d", i), uint64(200+i),
						func(rng *sim.RNG) (trace.Trace, error) {
							return workload.WorkingSet(rng, workload.WorkingSetConfig{
								Extent: 32 * 256, SetWords: 4 * 256, PhaseLen: refs / 4,
								Phases: 4, LocalityProb: 0.95, WriteProb: 0.1,
							})
						})
					if err != nil {
						return nil, err
					}
					traces[i] = tr
				}
				res, err := core.RunMultiprogrammed(core.MPConfig{
					Traces: traces, PageSize: 256, FramesPerProgram: 6,
					FetchLatency: 3000, ComputePerRef: 20,
				})
				if err != nil {
					return nil, err
				}
				var faults int64
				for _, p := range res.Programs {
					faults += p.Faults
				}
				return oneRow(n, 6, faults, res.Switches, res.Utilization), nil
			},
		}
	}
	return cells
}
