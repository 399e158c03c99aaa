package dist

import (
	"context"
	"fmt"
	"io"
	"os"
	"testing"

	"dsa/internal/engine"
)

// newBenchPool builds a pool of this test binary in worker mode for
// benchmarks (the TestMain worker hook serves both).
func newBenchPool(b *testing.B, workers, batch int) *Pool {
	b.Helper()
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPool(Options{
		Workers: workers,
		Batch:   batch,
		Command: exe,
		Env:     append(os.Environ(), workerEnv+"=1"),
		Stderr:  io.Discard,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	return p
}

// BenchmarkDistRoundTrips measures the per-frame protocol overhead on
// a sweep of small cells — the workload shape batching exists for. At
// batch=1 every cell pays a full gob+pipe round trip; at batch=8 eight
// cells share one. The workers persist across iterations (as they do
// across sweeps in production), so this isolates round-trip cost from
// spawn cost.
func BenchmarkDistRoundTrips(b *testing.B) {
	const cells = 64
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			pool := newBenchPool(b, 2, batch)
			eng := engine.New(engine.Config{Seed: 7, Executor: pool})
			jobs := rowJobs(cells)
			// Warm the workers once so spawn cost stays off the clock.
			for _, r := range eng.Run(context.Background(), jobs) {
				if r.Err != nil {
					b.Fatalf("%s: %v", r.Key, r.Err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(context.Background(), jobs)
			}
			b.StopTimer()
			if st := pool.Stats(); st.Crashes != 0 || st.Local != 0 {
				b.Fatalf("stats = %+v, want clean remote execution", st)
			}
		})
	}
}

// BenchmarkPoolStart measures worker start-up: each iteration spawns a
// 2-worker pool of this test binary, runs one cell per worker — the
// first reply from each proves it is up — and closes the pool. Process
// start-up (package initialization included) dominates, so a change
// that adds start-up work shows here.
func BenchmarkPoolStart(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	jobs := rowJobs(2)
	for i := 0; i < b.N; i++ {
		p, err := NewPool(Options{
			Workers: 2,
			Batch:   1,
			Command: exe,
			Env:     append(os.Environ(), workerEnv+"=1"),
			Stderr:  io.Discard,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(engine.Config{Seed: 7, Executor: p})
		for _, r := range eng.Run(context.Background(), jobs) {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Key, r.Err)
			}
		}
		if st := p.Stats(); st.Crashes != 0 || st.Local != 0 {
			b.Fatalf("stats = %+v, want clean remote execution", st)
		}
		p.Close()
	}
}
