package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsa/internal/engine"
	"dsa/internal/engine/dist"
	"dsa/internal/sim"
	"dsa/internal/workload/catalog"
)

// workerEnv marks a re-execution of this test binary as a dist worker:
// the experiments package's init has already registered the
// experiments/cell handler, so the test binary doubles as the worker
// binary exactly the way dsafig does.
const workerEnv = "DSA_EXPERIMENTS_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// newWorkerPool builds a dist pool of this test binary in worker mode.
func newWorkerPool(t *testing.T, workers int) *dist.Pool {
	return newBatchWorkerPool(t, workers, 0)
}

// newBatchWorkerPool is newWorkerPool with an explicit protocol batch.
func newBatchWorkerPool(t *testing.T, workers, batch int) *dist.Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dist.NewPool(dist.Options{
		Workers: workers,
		Batch:   batch,
		Command: exe,
		Env:     append(os.Environ(), workerEnv+"=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// TestAllMatchesGoldenThroughDistPool is the cross-process acceptance
// test: the entire experiment battery, with every cell shipped to one
// of two worker processes by {sweep, cell key, seed} and re-run there
// against the worker's own catalog, must reproduce the serial golden
// tables byte for byte.
func TestAllMatchesGoldenThroughDistPool(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and runs the full battery")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	pool := newWorkerPool(t, 2)
	got := render(t, Config{Executor: pool})
	if got != string(want) {
		t.Errorf("distributed battery diverged from serial golden baseline\n"+
			"got %d bytes, want %d bytes\nfirst divergence: %s",
			len(got), len(want), firstDiff(got, string(want)))
	}
	st := pool.Stats()
	if st.Local != 0 {
		t.Errorf("%d cells fell back to in-process execution (stats %+v); every registered cell should distribute", st.Local, st)
	}
	if st.Remote == 0 {
		t.Error("no cells actually ran in worker processes")
	}
	if st.Crashes != 0 {
		t.Errorf("workers crashed %d times (stats %+v)", st.Crashes, st)
	}
}

// TestAllMatchesGoldenThroughBatchedDistPool: the same acceptance at a
// protocol batch size that packs several cells per frame (and does not
// divide most sweeps' cell counts) — batching amortizes round trips
// without touching a byte.
func TestAllMatchesGoldenThroughBatchedDistPool(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and runs the full battery")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	pool := newBatchWorkerPool(t, 2, 5)
	got := render(t, Config{Executor: pool})
	if got != string(want) {
		t.Errorf("batched distributed battery diverged from serial golden baseline\n"+
			"got %d bytes, want %d bytes\nfirst divergence: %s",
			len(got), len(want), firstDiff(got, string(want)))
	}
	if st := pool.Stats(); st.Local != 0 || st.Remote == 0 || st.Crashes != 0 {
		t.Errorf("stats = %+v, want a clean fully-remote battery", st)
	}
}

// TestDistNonzeroSeedMatchesInProcess: the -seed path re-derives every
// workload key; the worker must re-derive them identically from the
// base seed alone.
func TestDistNonzeroSeedMatchesInProcess(t *testing.T) {
	local := render(t, Config{Parallel: 4, Seed: 99}, "t1")
	pool := newWorkerPool(t, 2)
	if distributed := render(t, Config{Seed: 99, Executor: pool}, "t1"); distributed != local {
		t.Errorf("distributed seed-99 T1 diverged from in-process:\n%s\nwant:\n%s", distributed, local)
	}
}

// TestRunRemoteCell exercises the worker-side handler directly (no
// processes): a cell rebuilt from {sweep id, key, seed} must produce
// exactly what the in-process cell produces — including a Figure 4
// cell, which reads the no-TLB baseline from the worker's own catalog.
func TestRunRemoteCell(t *testing.T) {
	for _, d := range []*sweepDef{t7Def, fig4Def} {
		for _, cl := range d.build(Config{Seed: 3}) {
			if cl.key != "t7/linear" && cl.key != "fig4/tlb=9" {
				continue
			}
			env := func() engine.Env {
				return engine.Env{RNG: sim.NewRNG(sim.SeedFor(3, cl.key)), Catalog: catalog.New()}
			}
			remote, err := runRemoteCell(context.Background(), dist.Call{
				Key:  cl.key,
				Seed: 3,
				Spec: engine.Spec{Task: DistTask, Args: map[string]string{"sweep": d.id, "cell": cl.key}},
				Env:  env(),
			})
			if err != nil {
				t.Fatal(err)
			}
			local, err := cl.run(env())
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(remote) != fmt.Sprint(local) {
				t.Errorf("remote cell %s = %v, want %v", cl.key, remote, local)
			}
		}
	}

	if _, err := runRemoteCell(context.Background(), dist.Call{
		Spec: engine.Spec{Args: map[string]string{"sweep": "no-such-sweep", "cell": "x"}},
	}); err == nil || !strings.Contains(err.Error(), "unknown sweep") {
		t.Errorf("unknown sweep error = %v", err)
	}
	if _, err := runRemoteCell(context.Background(), dist.Call{
		Spec: engine.Spec{Args: map[string]string{"sweep": "t7", "cell": "no-such-cell"}},
	}); err == nil || !strings.Contains(err.Error(), "no cell") {
		t.Errorf("unknown cell error = %v", err)
	}
}

// goldenTable returns the golden rendering of the table whose title
// starts with prefix, as render prints it.
func goldenTable(t *testing.T, prefix string) string {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "all_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(golden), "== "+prefix)
	if !ok {
		t.Fatalf("no golden table %q", prefix)
	}
	table, _, _ := strings.Cut(rest, "\n== ")
	return "== " + prefix + table + "\n"
}

// TestFig4Parity: every Figure 4 row is normalized by the no-TLB
// measurement, which each cell reads from its catalog — the battery
// store in-process (measured once), each worker's own catalog under
// dist, a fresh measurement per cell with a disabled store. The table
// must not depend on which of them served it.
func TestFig4Parity(t *testing.T) {
	golden := goldenTable(t, "Figure 4")
	for _, parallel := range []int{1, 2, 4} {
		store := catalog.New()
		if got := render(t, Config{Parallel: parallel, Store: store}, "fig4"); got != golden {
			t.Errorf("parallel=%d diverged from golden\n%s", parallel, firstDiff(got, golden))
		}
		// The segmented trace and the no-TLB baseline, once each.
		if st := store.Stats(); st.Generations != 2 {
			t.Errorf("parallel=%d: %d generations, want 2", parallel, st.Generations)
		}
	}
	type variant struct {
		name string
		c    Config
	}
	others := []variant{{"disabled store", Config{Store: catalog.Disabled()}}}
	var pools []*dist.Pool
	if !testing.Short() { // spawns worker processes
		pool, batched := newWorkerPool(t, 2), newBatchWorkerPool(t, 2, 4)
		pools = []*dist.Pool{pool, batched}
		others = append(others, variant{"dist", Config{Executor: pool}}, variant{"dist -batch 4", Config{Executor: batched}})
	}
	seeded := render(t, Config{Seed: 7}, "fig4")
	if seeded == golden {
		t.Error("seed 7 reproduced the seed-0 table")
	}
	for _, o := range others {
		if got := render(t, o.c, "fig4"); got != golden {
			t.Errorf("%s diverged from golden\n%s", o.name, firstDiff(got, golden))
		}
		o.c.Seed = 7
		if got := render(t, o.c, "fig4"); got != seeded {
			t.Errorf("%s at seed 7 diverged from in-process\n%s", o.name, firstDiff(got, seeded))
		}
	}
	for _, p := range pools {
		if st := p.Stats(); st.Local != 0 || st.Remote != 16 || st.Crashes != 0 {
			t.Errorf("stats = %+v, want 16 remote cells (two renders) and no crashes", st)
		}
	}
}
