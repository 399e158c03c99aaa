package experiments

import (
	"context"
	"fmt"
	"testing"

	"dsa/internal/engine"
	"dsa/internal/replace"
	"dsa/internal/sim"
	"dsa/internal/workload"
	"dsa/internal/workload/catalog"
)

// benchSweep runs a registered sweep repeatedly, each run against a
// fresh store from mk — catalog.New for shared materialization,
// catalog.Disabled for per-cell regeneration. Workers are pinned to 1
// so the benchmark compares total work, not scheduling luck.
func benchSweep(b *testing.B, mk func() *catalog.Catalog, d *sweepDef) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := d.runCtx(context.Background(), Config{Parallel: 1, Store: mk()})
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// scaledDef is the battery's largest sweep shape scaled up: one long
// working-set trace declared as a catalog key by every frame-count
// cell. With the shared catalog the trace is materialized once; with
// per-cell regeneration each of the six cells pays the full generation
// again — the cost the catalog deletes.
var scaledDef = registerSweep("bench", "bench — scaled replacement sweep", []string{"frames", "faults"}, func(sc Config) []cell {
	const pageSize = 256
	const refs = 400000
	frameCounts := []int{4, 8, 12, 16, 24, 32}
	cells := make([]cell, len(frameCounts))
	for i, frames := range frameCounts {
		frames := frames
		cells[i] = cell{
			key: fmt.Sprintf("bench/frames=%d", frames),
			run: func(env engine.Env) (engine.RowBatch, error) {
				pageStr, err := shared(env, sc, "bench/page-string", 5,
					func(rng *sim.RNG) ([]replace.PageID, error) {
						tr, err := workload.WorkingSet(rng, workload.WorkingSetConfig{
							Extent: 256 * pageSize, SetWords: 16 * pageSize,
							PhaseLen: refs / 8, Phases: 8, LocalityProb: 0.95,
						})
						if err != nil {
							return nil, err
						}
						return replace.PageString(tr.PageString(pageSize)), nil
					})
				if err != nil {
					return nil, err
				}
				return oneRow(frames, replace.FaultCount(replace.NewLRU(), pageStr, frames)), nil
			},
		}
	}
	return cells
})

// BenchmarkScaledSweepSharedCatalog vs PerCellRegen: the headline
// comparison — six cells sharing one 400k-reference trace.
func BenchmarkScaledSweepSharedCatalog(b *testing.B) {
	benchSweep(b, catalog.New, scaledDef)
}

func BenchmarkScaledSweepPerCellRegen(b *testing.B) {
	benchSweep(b, catalog.Disabled, scaledDef)
}

// BenchmarkT2PlacementSharedCatalog vs BenchmarkT2PlacementPerCellRegen
// measure the catalog on the battery's largest real sweep (T2: 18
// cells over 3 request streams — shared, each stream generates once;
// regenerating, 18 times).
func BenchmarkT2PlacementSharedCatalog(b *testing.B) {
	benchSweep(b, catalog.New, t2Def)
}

func BenchmarkT2PlacementPerCellRegen(b *testing.B) {
	benchSweep(b, catalog.Disabled, t2Def)
}

// BenchmarkT1ReplacementSharedCatalog vs PerCellRegen: the battery's
// trace-heaviest sweep (9 cells over 3 traces, with a 30000-reference
// working-set trace among them).
func BenchmarkT1ReplacementSharedCatalog(b *testing.B) {
	benchSweep(b, catalog.New, t1Def)
}

func BenchmarkT1ReplacementPerCellRegen(b *testing.B) {
	benchSweep(b, catalog.Disabled, t1Def)
}
