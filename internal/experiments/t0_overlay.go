package experiments

import (
	"dsa/internal/alloc"
	"dsa/internal/engine"
	"dsa/internal/overlay"
	"dsa/internal/replace"
	"dsa/internal/segment"
	"dsa/internal/sim"
	"dsa/internal/store"
)

// overlayTree builds the experiment's module tree: a main driver with
// three phases, each with alternative sub-modules — the structure the
// paper's introduction era managed by hand.
func overlayTree() *overlay.Node {
	return &overlay.Node{Symbol: "main", Size: 400, Children: []*overlay.Node{
		{Symbol: "read", Size: 900, Children: []*overlay.Node{
			{Symbol: "cards", Size: 500},
			{Symbol: "tape", Size: 650},
		}},
		{Symbol: "compute", Size: 1200, Children: []*overlay.Node{
			{Symbol: "direct", Size: 800},
			{Symbol: "iterative", Size: 450, Children: []*overlay.Node{
				{Symbol: "precond", Size: 300},
			}},
		}},
		{Symbol: "print", Size: 700, Children: []*overlay.Node{
			{Symbol: "summary", Size: 250},
			{Symbol: "full-listing", Size: 600},
		}},
	}}
}

// overlayCallTrace generates a phase-structured call sequence: the
// program alternates read / compute / print phases, within each phase
// bouncing between that phase's sub-modules — the pattern that makes
// eager static overlaying pay for every bounce.
func overlayCallTrace(rng *sim.RNG, phases, callsPerPhase int) []string {
	groups := [][]string{
		{"cards", "tape", "read"},
		{"direct", "iterative", "precond", "compute"},
		{"summary", "full-listing", "print"},
	}
	var out []string
	for p := 0; p < phases; p++ {
		g := groups[p%len(groups)]
		for c := 0; c < callsPerPhase; c++ {
			out = append(out, g[rng.Intn(len(g))])
		}
	}
	return out
}

// t0Def compares the paper's introduction-era regimes on one call
// trace: (a) keep everything resident (no allocation problem, maximal
// storage); (b) static preplanned overlays sized by worst-case
// estimate; (c) dynamic storage allocation (segment manager) given the
// same storage as (b). Dynamic allocation adapts to the actual
// reference pattern instead of the preplanned overlay structure, which
// is the paper's opening argument for why allocation became a system
// responsibility. The three regimes replay the same call trace as
// independent engine cells.
var t0Def = registerSweep("t0",
	"T0 — static overlays vs dynamic allocation (introduction era)",
	[]string{"regime", "storage words", "segments loaded",
		"words transferred", "elapsed"},
	t0Cells)

func t0Cells(sc Config) []cell {
	// The phase-structured call trace both replaying regimes share, via
	// the sweep catalog.
	mkCalls := func(env engine.Env) ([]string, error) {
		return shared(env, sc, "t0/call-trace", 41, func(rng *sim.RNG) ([]string, error) {
			return overlayCallTrace(rng, 12, 60), nil
		})
	}

	resident := cell{
		key: "t0/all-resident",
		run: func(engine.Env) (engine.RowBatch, error) {
			// (a) Everything resident: one load per segment, maximal storage.
			tree, err := overlay.New(overlayTree())
			if err != nil {
				return nil, err
			}
			return oneRow("all resident (no allocation)", tree.TotalWords(), 10,
				tree.TotalWords(), "-"), nil
		},
	}
	static := cell{
		key: "t0/static-overlays",
		run: func(env engine.Env) (engine.RowBatch, error) {
			// (b) Static overlays under the worst-case plan.
			tree, err := overlay.New(overlayTree())
			if err != nil {
				return nil, err
			}
			clock := &sim.Clock{}
			working := store.NewLevel(clock, "core", store.Core, tree.PlannedWords(), 1, 0)
			backing := store.NewLevel(clock, "drum", store.Drum, 2*tree.TotalWords(), 600, 1)
			rt, err := overlay.NewRuntime(tree, clock, working, backing)
			if err != nil {
				return nil, err
			}
			calls, err := mkCalls(env)
			if err != nil {
				return nil, err
			}
			for _, sym := range calls {
				if err := rt.Touch(sym); err != nil {
					return nil, err
				}
			}
			st := rt.Stats()
			return oneRow("static overlays (worst-case plan)", tree.PlannedWords(),
				st.Swaps, st.WordsLoaded, clock.Now()), nil
		},
	}
	dynamic := cell{
		key: "t0/dynamic-allocation",
		run: func(env engine.Env) (engine.RowBatch, error) {
			// (c) Dynamic allocation with the same storage as the static plan.
			tree, err := overlay.New(overlayTree())
			if err != nil {
				return nil, err
			}
			clock := &sim.Clock{}
			working := store.NewLevel(clock, "core", store.Core, tree.PlannedWords(), 1, 0)
			backing := store.NewLevel(clock, "drum", store.Drum, 2*tree.TotalWords(), 600, 1)
			mgr, err := segment.NewManager(segment.Config{
				Clock: clock, Working: working, Backing: backing,
				Placement: alloc.BestFit{}, Replacement: replace.NewClock(),
				CompactBeforeEvict: true,
			})
			if err != nil {
				return nil, err
			}
			// Declare every module as a segment.
			var declare func(n *overlay.Node) error
			declare = func(n *overlay.Node) error {
				if _, err := mgr.Create(n.Symbol, nameOf(n.Size)); err != nil {
					return err
				}
				for _, c := range n.Children {
					if err := declare(c); err != nil {
						return err
					}
				}
				return nil
			}
			if err := declare(overlayTree()); err != nil {
				return nil, err
			}
			calls, err := mkCalls(env)
			if err != nil {
				return nil, err
			}
			for _, sym := range calls {
				if err := mgr.Touch(sym, 0, false); err != nil {
					return nil, err
				}
			}
			st := mgr.Stats()
			return oneRow("dynamic allocation (same storage)", tree.PlannedWords(),
				st.SegFaults, st.FetchedWords, clock.Now()), nil
		},
	}
	return []cell{resident, static, dynamic}
}
