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
// exactly what the in-process cell produces.
func TestRunRemoteCell(t *testing.T) {
	const key = "t7/linear"
	call := func() (interface{}, error) {
		return runRemoteCell(context.Background(), dist.Call{
			Key:  key,
			Seed: 0,
			Spec: engine.Spec{Task: DistTask, Args: map[string]string{"sweep": "t7", "cell": key}},
			Env:  engine.Env{RNG: sim.NewRNG(sim.SeedFor(0, key)), Catalog: catalog.New()},
		})
	}
	remote, err := call()
	if err != nil {
		t.Fatal(err)
	}
	var local interface{}
	for _, cl := range t7Cells(Config{}) {
		if cl.key == key {
			local, err = cl.run(engine.Env{RNG: sim.NewRNG(sim.SeedFor(0, key)), Catalog: catalog.New()})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if fmt.Sprint(remote) != fmt.Sprint(local) {
		t.Errorf("remote cell = %v, want %v", remote, local)
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
