package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dsa/internal/engine"
	"dsa/internal/metrics"
	"dsa/internal/sim"
	"dsa/internal/workload/catalog"
)

// workerEnv marks a re-execution of this test binary as a dist worker.
const workerEnv = "DSA_DIST_TEST_WORKER"

// serverEnv marks a re-execution of this test binary as a TCP
// serve-worker; its value is the addr-file the server publishes its
// bound address to. A separate process is what lets tests kill a
// remote worker mid-batch (test/crash calls os.Exit) without taking
// the test binary down with it.
const serverEnv = "DSA_DIST_TEST_SERVER"

// serverTokenEnv carries the re-exec'd server's -auth-token.
const serverTokenEnv = "DSA_DIST_TEST_TOKEN"

func TestMain(m *testing.M) {
	registerTestHandlers()
	if os.Getenv(workerEnv) == "1" {
		if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if addrFile := os.Getenv(serverEnv); addrFile != "" {
		o := ServeOptions{AuthToken: os.Getenv(serverTokenEnv)}
		if err := ListenAndServe("127.0.0.1:0", addrFile, o); err != nil {
			fmt.Fprintln(os.Stderr, "serve-worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cellWork is the shared cell implementation: the same function backs
// the in-process Job.Run and the remote handler, so local and
// distributed execution are byte-identical by construction.
func cellWork(env engine.Env, key string) (interface{}, error) {
	shared, err := catalog.Get(env.Catalog, "test/shared", func() (uint64, error) {
		return 40 + 2, nil
	})
	if err != nil {
		return nil, err
	}
	draw := env.RNG.Uint64() % 100000
	return engine.RowBatch{{key, int(draw), float64(draw) / 7, sim.Time(draw), draw%2 == 0, shared}}, nil
}

func registerTestHandlers() {
	Handle("test/rows", func(ctx context.Context, c Call) (interface{}, error) {
		return cellWork(c.Env, c.Key)
	})
	Handle("test/crash", func(ctx context.Context, c Call) (interface{}, error) {
		os.Exit(3)
		return nil, nil
	})
	Handle("test/panic", func(ctx context.Context, c Call) (interface{}, error) {
		panic("remote boom")
	})
	Handle("test/error", func(ctx context.Context, c Call) (interface{}, error) {
		return nil, fmt.Errorf("deliberate failure in %s", c.Key)
	})
	Handle("test/sleep", func(ctx context.Context, c Call) (interface{}, error) {
		ms, _ := strconv.Atoi(c.Spec.Args["ms"])
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return c.Key, nil
	})
	Handle("test/stderr", func(ctx context.Context, c Call) (interface{}, error) {
		fmt.Fprintf(os.Stderr, "grumble from %s\nsecond line\n", c.Key)
		return c.Key, nil
	})
	Handle("test/crash-midline", func(ctx context.Context, c Call) (interface{}, error) {
		// Dying words without a trailing newline: the dispatcher's
		// prefixer must flush them at teardown instead of losing them.
		fmt.Fprintf(os.Stderr, "dying words from %s", c.Key)
		os.Stderr.Sync()
		os.Exit(3)
		return nil, nil
	})
}

// newTestPool builds a pool of this test binary in worker mode.
func newTestPool(t *testing.T, workers int, stderr io.Writer) *Pool {
	return newBatchPool(t, workers, 0, stderr)
}

// newBatchPool is newTestPool with an explicit protocol batch size.
func newBatchPool(t *testing.T, workers, batch int, stderr io.Writer) *Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(Options{
		Workers: workers,
		Batch:   batch,
		Command: exe,
		Env:     append(os.Environ(), workerEnv+"=1"),
		Stderr:  stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// rowJobs builds n cells that run cellWork locally and carry specs for
// the test/rows handler remotely.
func rowJobs(n int) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		key := fmt.Sprintf("cell-%02d", i)
		jobs[i] = engine.Job{
			Key:  key,
			Spec: &engine.Spec{Task: "test/rows"},
			Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				return cellWork(env, key)
			},
		}
	}
	return jobs
}

// renderSweep runs jobs through an engine into a table.
func renderSweep(t *testing.T, opts engine.Config, jobs []engine.Job) string {
	t.Helper()
	tb := &metrics.Table{Title: "dist", Header: []string{"key", "draw", "ratio", "time", "even", "shared"}}
	eng := engine.New(opts)
	if _, err := eng.FillTable(context.Background(), tb, jobs); err != nil {
		t.Fatal(err)
	}
	return tb.String()
}

// TestDistMatchesInProcess is the core contract: a sweep through two
// worker processes renders byte-identically to the in-process pool,
// including named types (sim.Time) round-tripped through gob.
func TestDistMatchesInProcess(t *testing.T) {
	local := renderSweep(t, engine.Config{Parallel: 2, Seed: 7}, rowJobs(12))

	pool := newTestPool(t, 2, io.Discard)
	dist := renderSweep(t, engine.Config{Seed: 7, Executor: pool}, rowJobs(12))

	if local != dist {
		t.Errorf("distributed output diverged from in-process:\nlocal:\n%s\ndist:\n%s", local, dist)
	}
	st := pool.Stats()
	if st.Remote != 12 || st.Local != 0 {
		t.Errorf("stats = %+v, want 12 remote cells", st)
	}
}

// TestBatchedDistMatchesInProcess: batching cells onto protocol
// frames must change round-trip counts, never bytes — at several batch
// sizes including ones that do not divide the cell count.
func TestBatchedDistMatchesInProcess(t *testing.T) {
	local := renderSweep(t, engine.Config{Parallel: 2, Seed: 7}, rowJobs(13))
	for _, batch := range []int{2, 5, 64} {
		pool := newBatchPool(t, 2, batch, io.Discard)
		dist := renderSweep(t, engine.Config{Seed: 7, Executor: pool}, rowJobs(13))
		if local != dist {
			t.Errorf("batch=%d output diverged from in-process:\nlocal:\n%s\ndist:\n%s", batch, local, dist)
		}
		st := pool.Stats()
		if st.Remote != 13 || st.Local != 0 || st.Crashes != 0 {
			t.Errorf("batch=%d stats = %+v, want 13 remote cells", batch, st)
		}
	}
}

// TestBatchCrashContainedPerBatch: a worker dying mid-batch costs
// exactly the in-flight batch — every cell of it a contained FAILED
// row — while the rest of the sweep completes remotely on the
// respawned slot.
func TestBatchCrashContainedPerBatch(t *testing.T) {
	jobs := rowJobs(12)
	jobs[2] = engine.Job{Key: "cell-02", Spec: &engine.Spec{Task: "test/crash"}}

	pool := newBatchPool(t, 1, 3, io.Discard)
	eng := engine.New(engine.Config{Seed: 1, Executor: pool})
	results := eng.Run(context.Background(), jobs)

	var failed int
	for _, r := range results {
		if r.Panicked {
			failed++
			if !strings.Contains(r.Err.Error(), "crashed") {
				t.Errorf("%s: error %v, want worker-crash containment", r.Key, r.Err)
			}
		} else if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.Key, r.Err)
		}
	}
	st := pool.Stats()
	// One slot at batch 3: cells 0..2 were in flight, all three lost.
	if failed != 3 || st.Crashes != 3 {
		t.Errorf("failed=%d crashes=%d (stats %+v), want the 3-cell batch contained", failed, st.Crashes, st)
	}
	if st.Respawns < 1 {
		t.Errorf("respawns = %d, want >= 1 (slot must recover)", st.Respawns)
	}
	if st.Remote != 9 {
		t.Errorf("remote = %d, want 9 (every healthy batch stays distributed)", st.Remote)
	}
	// In a batch containing one panicking cell the worker survives and
	// the batch's other cells still succeed.
	jobs = rowJobs(4)
	jobs[1] = engine.Job{Key: "cell-01", Spec: &engine.Spec{Task: "test/panic"}}
	pool2 := newBatchPool(t, 1, 4, io.Discard)
	eng2 := engine.New(engine.Config{Seed: 1, Executor: pool2})
	for _, r := range eng2.Run(context.Background(), jobs) {
		if r.Key == "cell-01" {
			if !r.Panicked || !strings.Contains(r.Err.Error(), "remote boom") {
				t.Errorf("panicking cell = %+v, want contained panic", r)
			}
		} else if r.Err != nil {
			t.Errorf("%s failed alongside a contained panic: %v", r.Key, r.Err)
		}
	}
	if st := pool2.Stats(); st.Crashes != 0 || st.Remote != 4 {
		t.Errorf("stats = %+v, want 4 remote cells and no crash (panic contained in-worker)", st)
	}
}

// TestWorkerCrashContained kills a worker mid-cell (os.Exit in the
// handler) and requires the crashed cell to surface as a contained
// FAILED cell while the rest of the sweep completes remotely on a
// respawned worker. One slot, so the respawn is the only way the
// remaining cells can stay remote.
func TestWorkerCrashContained(t *testing.T) {
	jobs := rowJobs(8)
	jobs[3] = engine.Job{Key: "cell-03", Spec: &engine.Spec{Task: "test/crash"}}

	pool := newTestPool(t, 1, io.Discard)
	eng := engine.New(engine.Config{Seed: 1, Executor: pool})
	results := eng.Run(context.Background(), jobs)

	for _, r := range results {
		if r.Key == "cell-03" {
			if !r.Panicked {
				t.Fatalf("crashed cell result = %+v, want contained panic", r)
			}
			pe, ok := r.Err.(*engine.PanicError)
			if !ok || !strings.Contains(pe.Error(), "crashed") {
				t.Errorf("crashed cell error = %v, want worker-crash PanicError", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.Key, r.Err)
		}
	}
	st := pool.Stats()
	if st.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", st.Crashes)
	}
	if st.Respawns < 1 {
		t.Errorf("respawns = %d, want >= 1 (slot must recover)", st.Respawns)
	}
	if st.Remote != 7 {
		t.Errorf("remote = %d, want 7 (every healthy cell stays distributed)", st.Remote)
	}
}

// TestRemotePanicMatchesLocalContainment: a panic inside a worker must
// render the same FAILED row an in-process contained panic renders.
func TestRemotePanicMatchesLocalContainment(t *testing.T) {
	mkJobs := func() []engine.Job {
		jobs := rowJobs(3)
		jobs[1] = engine.Job{
			Key:  "cell-01",
			Spec: &engine.Spec{Task: "test/panic"},
			Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				panic("remote boom")
			},
		}
		return jobs
	}
	local := renderSweep(t, engine.Config{Parallel: 2, Seed: 3}, mkJobs())
	pool := newTestPool(t, 2, io.Discard)
	dist := renderSweep(t, engine.Config{Seed: 3, Executor: pool}, mkJobs())
	if local != dist {
		t.Errorf("contained panic rendered differently:\nlocal:\n%s\ndist:\n%s", local, dist)
	}
	if !strings.Contains(dist, "FAILED: remote boom") {
		t.Errorf("FAILED row missing panic value:\n%s", dist)
	}
}

// TestRemoteErrorStaysOrdinary: a handler error must come back as an
// ordinary error (aborting FillTable), not a contained panic.
func TestRemoteErrorStaysOrdinary(t *testing.T) {
	jobs := rowJobs(3)
	jobs[2] = engine.Job{Key: "cell-02", Spec: &engine.Spec{Task: "test/error"}}
	pool := newTestPool(t, 2, io.Discard)
	eng := engine.New(engine.Config{Executor: pool})
	tb := &metrics.Table{Header: []string{"k", "v", "r", "t", "e", "s"}}
	_, err := eng.FillTable(context.Background(), tb, jobs)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure in cell-02") {
		t.Errorf("FillTable error = %v, want the remote cell's error", err)
	}
}

// TestCancellationKillsChildren cancels a sweep whose first cells
// sleep far longer than the test budget; the pool must kill the
// children and report every unfinished cell with the context error.
func TestCancellationKillsChildren(t *testing.T) {
	jobs := make([]engine.Job, 6)
	for i := range jobs {
		key := fmt.Sprintf("sleep-%d", i)
		jobs[i] = engine.Job{Key: key, Spec: &engine.Spec{
			Task: "test/sleep", Args: map[string]string{"ms": "60000"},
		}}
	}
	pool := newTestPool(t, 2, io.Discard)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond) // let the workers start their cells
		cancel()
	}()
	start := time.Now()
	eng := engine.New(engine.Config{Executor: pool})
	results := eng.Run(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; children were not killed", elapsed)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("%s completed despite cancellation", r.Key)
		}
	}
}

// TestConcurrentSweepsSharePool: two sweeps executing concurrently on
// one pool — the battery scheduler's shape — must each render
// byte-identically to their in-process runs, with every cell remote:
// the worker slots serve whichever sweep's batch comes next instead of
// being torn down and respawned per sweep.
func TestConcurrentSweepsSharePool(t *testing.T) {
	localA := renderSweep(t, engine.Config{Parallel: 2, Seed: 7}, rowJobs(12))
	localB := renderSweep(t, engine.Config{Parallel: 2, Seed: 31}, rowJobs(9))

	pool := newBatchPool(t, 2, 2, io.Discard)
	var wg sync.WaitGroup
	var distA, distB string
	wg.Add(2)
	go func() {
		defer wg.Done()
		distA = renderSweep(t, engine.Config{Seed: 7, Executor: pool}, rowJobs(12))
	}()
	go func() {
		defer wg.Done()
		distB = renderSweep(t, engine.Config{Seed: 31, Executor: pool}, rowJobs(9))
	}()
	wg.Wait()
	if distA != localA {
		t.Errorf("sweep A diverged under concurrent Execute:\n%s\nwant:\n%s", distA, localA)
	}
	if distB != localB {
		t.Errorf("sweep B diverged under concurrent Execute:\n%s\nwant:\n%s", distB, localB)
	}
	st := pool.Stats()
	if st.Remote != 21 || st.Local != 0 || st.Crashes != 0 {
		t.Errorf("stats = %+v, want all 21 cells remote across both sweeps", st)
	}
}

// TestCancelOneSweepLeavesOtherIntact: cancelling one of two sweeps
// sharing a pool must not disturb the other — its cells stay remote,
// complete, and byte-identical — because the cancellation kill is
// scoped to children serving the cancelled sweep's context.
func TestCancelOneSweepLeavesOtherIntact(t *testing.T) {
	want := renderSweep(t, engine.Config{Parallel: 2, Seed: 7}, rowJobs(12))

	pool := newTestPool(t, 2, io.Discard)
	sleepJobs := make([]engine.Job, 4)
	for i := range sleepJobs {
		key := fmt.Sprintf("sleep-%d", i)
		sleepJobs[i] = engine.Job{Key: key, Spec: &engine.Spec{
			Task: "test/sleep", Args: map[string]string{"ms": "60000"},
		}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var cancelledResults []engine.Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng := engine.New(engine.Config{Executor: pool})
		cancelledResults = eng.Run(ctx, sleepJobs)
	}()
	go func() {
		time.Sleep(300 * time.Millisecond) // let the sleepers occupy the workers
		cancel()
	}()
	wg.Wait()
	for _, r := range cancelledResults {
		if r.Err == nil {
			t.Errorf("%s completed despite cancellation", r.Key)
		}
	}

	// The healthy sweep runs after the cancellation killed the sleeping
	// children: the slots must respawn cleanly (the kill spent no crash
	// budget) and the output must not change a byte.
	got := renderSweep(t, engine.Config{Seed: 7, Executor: pool}, rowJobs(12))
	if got != want {
		t.Errorf("sweep after a concurrent cancellation diverged:\n%s\nwant:\n%s", got, want)
	}
	st := pool.Stats()
	if st.Remote != 12 {
		t.Errorf("stats = %+v, want the healthy sweep fully remote", st)
	}
}

// TestWorkStealing gives slot 0 a long-running first cell; the other
// worker must steal the rest of slot 0's queue instead of idling.
func TestWorkStealing(t *testing.T) {
	jobs := make([]engine.Job, 10)
	for i := range jobs {
		key := fmt.Sprintf("cell-%d", i)
		ms := "1"
		if i == 0 {
			ms = "1500" // pins slot 0 while its queue still holds cells 2,4,6,8
		}
		jobs[i] = engine.Job{Key: key, Spec: &engine.Spec{
			Task: "test/sleep", Args: map[string]string{"ms": ms},
		}}
	}
	pool := newTestPool(t, 2, io.Discard)
	eng := engine.New(engine.Config{Executor: pool})
	results := eng.Run(context.Background(), jobs)
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Key, r.Err)
		}
	}
	if st := pool.Stats(); st.Steals < 1 {
		t.Errorf("steals = %d, want >= 1 (slot 1 should have drained slot 0's queue)", st.Steals)
	}
}

// TestSpecLessJobsRunLocally: jobs without a Spec execute in the
// dispatching process against the sweep catalog, not in workers.
func TestSpecLessJobsRunLocally(t *testing.T) {
	jobs := make([]engine.Job, 4)
	for i := range jobs {
		key := fmt.Sprintf("cell-%d", i)
		jobs[i] = engine.Job{Key: key, Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
			return cellWork(env, key)
		}}
	}
	pool := newTestPool(t, 2, io.Discard)
	eng := engine.New(engine.Config{Executor: pool})
	for _, r := range eng.Run(context.Background(), jobs) {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Key, r.Err)
		}
	}
	st := pool.Stats()
	if st.Local != 4 || st.Remote != 0 {
		t.Errorf("stats = %+v, want 4 local / 0 remote", st)
	}
	want := fmt.Sprintf("0 cells in 2 workers, 4 in-process, 0 crashes, %d steals", st.Steals)
	if got := pool.Summary(); got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
}

// TestPoolSummaryCountsRemoteSlots: the summary's worker count is the
// pool's own slot count, local children plus remote endpoints.
func TestPoolSummaryCountsRemoteSlots(t *testing.T) {
	p, err := NewPool(Options{Workers: 1, Command: "/nonexistent/dsa-worker-binary",
		Remote: []string{"127.0.0.1:1", "127.0.0.1:2"}, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got, want := p.Summary(), "0 cells in 3 workers, 0 in-process, 0 crashes, 0 steals"; got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
}

// TestBrokenWorkerBinaryFallsBack: when the worker command cannot be
// spawned at all, every cell must still complete — in-process — so a
// sweep never wedges on a deployment problem.
func TestBrokenWorkerBinaryFallsBack(t *testing.T) {
	p, err := NewPool(Options{
		Workers: 2,
		Command: "/nonexistent/dsa-worker-binary",
		Stderr:  io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	eng := engine.New(engine.Config{Seed: 7, Executor: p})
	jobs := rowJobs(6)
	want := renderSweep(t, engine.Config{Parallel: 2, Seed: 7}, rowJobs(6))
	tb := &metrics.Table{Title: "dist", Header: []string{"key", "draw", "ratio", "time", "even", "shared"}}
	if _, err := eng.FillTable(context.Background(), tb, jobs); err != nil {
		t.Fatal(err)
	}
	if tb.String() != want {
		t.Errorf("fallback output diverged:\n%s\nwant:\n%s", tb.String(), want)
	}
	st := p.Stats()
	if st.Remote != 0 || st.Local != 6 {
		t.Errorf("stats = %+v, want all 6 cells local", st)
	}
}

// TestStderrPrefixNamesCell: whatever a worker writes to stderr while
// a cell is in flight arrives prefixed with the slot and cell key.
func TestStderrPrefixNamesCell(t *testing.T) {
	var buf syncBuffer
	jobs := []engine.Job{{Key: "noisy/cell", Spec: &engine.Spec{Task: "test/stderr"}}}
	pool := newTestPool(t, 1, &buf)
	eng := engine.New(engine.Config{Executor: pool})
	for _, r := range eng.Run(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Key, r.Err)
		}
	}
	pool.Close() // flush the child's stderr copier
	out := buf.String()
	for _, line := range []string{
		"worker[0] noisy/cell: grumble from noisy/cell",
		"worker[0] noisy/cell: second line",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("stderr missing %q; got:\n%s", line, out)
		}
	}
}

// TestCrashPartialLineFlushed: a worker that dies with an unterminated
// stderr line in flight must still get that line printed, prefixed
// with its slot and cell key — the last pre-crash log is evidence, not
// noise.
func TestCrashPartialLineFlushed(t *testing.T) {
	var buf syncBuffer
	jobs := []engine.Job{{Key: "doomed/cell", Spec: &engine.Spec{Task: "test/crash-midline"}}}
	pool := newTestPool(t, 1, &buf)
	eng := engine.New(engine.Config{Executor: pool})
	results := eng.Run(context.Background(), jobs)
	if !results[0].Panicked {
		t.Fatalf("crashed cell = %+v, want contained crash", results[0])
	}
	want := "worker[0] doomed/cell: dying words from doomed/cell\n"
	if out := buf.String(); !strings.Contains(out, want) {
		t.Errorf("stderr missing flushed partial line %q; got:\n%s", want, out)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for child stderr.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestPrefixWriter(t *testing.T) {
	var buf bytes.Buffer
	n := 0
	w := NewPrefixWriter(&buf, func() string { n++; return fmt.Sprintf("p%d: ", n) })
	io.WriteString(w, "one\ntwo\npartial")
	io.WriteString(w, " line\n")
	want := "p1: one\np2: two\np3: partial line\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
	buf.Reset()
	io.WriteString(Prefixed(&buf, "x: "), "a\nb\n")
	if buf.String() != "x: a\nx: b\n" {
		t.Errorf("Prefixed got %q", buf.String())
	}
}

// TestPrefixWriterFlushRecoversPartialLine pins the crash-path
// contract: Flush emits a buffered unterminated line with the prefix
// captured at its first byte, plus a closing newline; at a line
// boundary it is a no-op.
func TestPrefixWriterFlushRecoversPartialLine(t *testing.T) {
	var buf bytes.Buffer
	w := Prefixed(&buf, "w: ")
	io.WriteString(w, "done line\nlast gasp")
	if got, want := buf.String(), "w: done line\n"; got != want {
		t.Fatalf("before flush: %q, want %q (partial line held back)", got, want)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "w: done line\nw: last gasp\n"; got != want {
		t.Errorf("after flush: %q, want %q", got, want)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "w: done line\nw: last gasp\n" {
		t.Errorf("idle flush emitted bytes: %q", got)
	}
}

// TestPrefixWriterHardFlushTerminates: an oversized newline-less line
// is hard-flushed as a terminated, prefixed line, so a concurrent
// writer on the same destination can never glue onto it mid-line.
func TestPrefixWriterHardFlushTerminates(t *testing.T) {
	var buf bytes.Buffer
	w := Prefixed(&buf, "p: ")
	huge := strings.Repeat("x", maxBufferedLine+10)
	if _, err := io.WriteString(w, huge); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if len(out) == 0 || out[len(out)-1] != '\n' {
		t.Errorf("hard-flushed chunk not newline-terminated (%d bytes, tail %q)", len(out), out[max(0, len(out)-5):])
	}
	if !strings.HasPrefix(out, "p: ") {
		t.Errorf("hard-flushed chunk lost its prefix: %q...", out[:10])
	}
	// The line's continuation starts a fresh prefixed line.
	io.WriteString(w, "tail")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if rest := buf.String()[len(out):]; rest != "p: tail\n" {
		t.Errorf("continuation chunk = %q, want a fresh prefixed line", rest)
	}
}

// TestPrefixWriterAtomicLines: two prefix writers interleaving partial
// writes onto one destination must still emit whole prefixed lines —
// the property that keeps N worker slots' stderr readable.
func TestPrefixWriterAtomicLines(t *testing.T) {
	var buf bytes.Buffer
	a := Prefixed(&buf, "a: ")
	b := Prefixed(&buf, "b: ")
	io.WriteString(a, "first half")
	io.WriteString(b, "other writer\n")
	io.WriteString(a, " second half\n")
	want := "b: other writer\na: first half second half\n"
	if buf.String() != want {
		t.Errorf("interleaved writes got %q, want %q", buf.String(), want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{ID: 9, Seed: 77, Cells: []cellReq{
		{Index: 4, Key: "k", Spec: engine.Spec{
			Task: "t", Machine: "atlas", Workload: "loop@2a", Args: map[string]string{"refs": "100"},
		}},
		{Index: 7, Key: "k2", Spec: engine.Spec{Task: "t"}},
	}}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || len(out.Cells) != 2 || out.Cells[0].Key != "k" ||
		out.Cells[0].Spec.Machine != "atlas" || out.Cells[0].Spec.Args["refs"] != "100" ||
		out.Cells[1].Index != 7 {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
	// Clean EOF at a frame boundary.
	if err := readFrame(&buf, &out); err != io.EOF {
		t.Errorf("empty stream read = %v, want io.EOF", err)
	}
	// A truncated frame is not a clean EOF.
	buf.Reset()
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if err := readFrame(trunc, &out); err == nil || err == io.EOF {
		t.Errorf("truncated frame read = %v, want a hard error", err)
	}
}

// TestPersistentCodecStream pins the v2 stream behaviour: one
// encoder/decoder pair carries many frames, gob type definitions cross
// the wire only once (so every frame after the first is much smaller),
// payloads survive intact, and the stream still ends in a clean EOF.
func TestPersistentCodecStream(t *testing.T) {
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	const frames = 16
	sizes := make([]int, frames)
	for i := 0; i < frames; i++ {
		before := buf.Len()
		in := request{ID: uint64(i), Seed: 5, Cells: []cellReq{
			{Index: i, Key: fmt.Sprintf("cell-%d", i), Spec: engine.Spec{Task: "t", Args: map[string]string{"n": "1"}}},
		}}
		if err := fw.writeFrame(&in); err != nil {
			t.Fatal(err)
		}
		sizes[i] = buf.Len() - before
	}
	if sizes[1] >= sizes[0] {
		t.Errorf("second frame is %d bytes, first %d: type definitions were re-sent", sizes[1], sizes[0])
	}
	fr := newFrameReader(&buf)
	for i := 0; i < frames; i++ {
		var out request
		if err := fr.readFrame(&out); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if out.ID != uint64(i) || len(out.Cells) != 1 || out.Cells[0].Key != fmt.Sprintf("cell-%d", i) {
			t.Fatalf("frame %d decoded as %+v", i, out)
		}
	}
	var out request
	if err := fr.readFrame(&out); err != io.EOF {
		t.Errorf("drained stream read = %v, want io.EOF", err)
	}
}

// TestPersistentCodecCorruptionDetected flips one payload bit in the
// middle of a persistent stream: the checksum must fail that frame
// before any corrupt byte reaches the decoder.
func TestPersistentCodecCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := fw.writeFrame(&request{ID: uint64(i), Cells: []cellReq{{Key: "k"}}}); err != nil {
			t.Fatal(err)
		}
	}
	raw := buf.Bytes()
	raw[len(raw)-2] ^= 0x01 // corrupt the final frame's payload
	fr := newFrameReader(bytes.NewReader(raw))
	var out request
	for i := 0; i < 2; i++ {
		if err := fr.readFrame(&out); err != nil {
			t.Fatalf("clean frame %d: %v", i, err)
		}
	}
	if err := fr.readFrame(&out); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("corrupt frame read = %v, want a checksum mismatch", err)
	}
}

func TestQueuesStealFromLongest(t *testing.T) {
	qs := newQueues(3, 9) // slot queues: [0 3 6] [1 4 7] [2 5 8]
	// Drain slot 0's own queue one at a time.
	for _, want := range []int{0, 3, 6} {
		idxs, stolen, ok := qs.nextBatch(0, 1)
		if !ok || stolen != 0 || len(idxs) != 1 || idxs[0] != want {
			t.Fatalf("own pop = (%v,%d,%v), want ([%d],0,true)", idxs, stolen, ok, want)
		}
	}
	// Next pop steals the tail of the longest remaining queue (slot 1).
	idxs, stolen, ok := qs.nextBatch(0, 1)
	if !ok || stolen != 1 || len(idxs) != 1 || idxs[0] != 7 {
		t.Fatalf("steal = (%v,%d,%v), want ([7],1,true)", idxs, stolen, ok)
	}
	// Exhaust everything; every index must be handed out exactly once.
	seen := map[int]bool{0: true, 3: true, 6: true, 7: true}
	for {
		idxs, _, ok := qs.nextBatch(2, 1)
		if !ok {
			break
		}
		if seen[idxs[0]] {
			t.Fatalf("index %d handed out twice", idxs[0])
		}
		seen[idxs[0]] = true
	}
	if len(seen) != 9 {
		t.Errorf("handed out %d of 9 indices", len(seen))
	}
}

func TestQueuesBatchedPopsAndSteals(t *testing.T) {
	qs := newQueues(2, 10) // [0 2 4 6 8] [1 3 5 7 9]
	// A batch pop takes a prefix of the slot's own queue.
	idxs, stolen, ok := qs.nextBatch(0, 3)
	if !ok || stolen != 0 || fmt.Sprint(idxs) != "[0 2 4]" {
		t.Fatalf("batch pop = (%v,%d,%v), want ([0 2 4],0,true)", idxs, stolen, ok)
	}
	// A short remainder ships as a partial batch rather than waiting.
	idxs, stolen, ok = qs.nextBatch(0, 3)
	if !ok || stolen != 0 || fmt.Sprint(idxs) != "[6 8]" {
		t.Fatalf("partial pop = (%v,%d,%v), want ([6 8],0,true)", idxs, stolen, ok)
	}
	// Empty own queue: steal a whole batch from the victim's tail.
	idxs, stolen, ok = qs.nextBatch(0, 2)
	if !ok || stolen != 2 || fmt.Sprint(idxs) != "[7 9]" {
		t.Fatalf("batch steal = (%v,%d,%v), want ([7 9],2,true)", idxs, stolen, ok)
	}
	// Everything else drains through the owner.
	count := 0
	for {
		idxs, _, ok := qs.nextBatch(1, 8)
		if !ok {
			break
		}
		count += len(idxs)
	}
	if count != 3 {
		t.Errorf("owner drained %d cells, want the remaining 3", count)
	}
}
