package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dsa/internal/engine"
)

// startServeWorker runs an in-process Serve on a loopback listener and
// returns the address to dial. Handlers are the package-global test
// registry; the server is shut down (listener and live connections) in
// test cleanup.
func startServeWorker(t *testing.T, o ServeOptions) string {
	t.Helper()
	if o.Stderr == nil {
		o.Stderr = io.Discard
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(ln, o) }()
	t.Cleanup(func() {
		_ = ln.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v, want nil on listener close", err)
		}
	})
	return ln.Addr().String()
}

// startServerProcess re-executes this test binary as a TCP
// serve-worker in its own process — required by tests whose cells call
// os.Exit — and returns its bound address once published.
func startServerProcess(t *testing.T, token string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serverEnv+"="+addrFile, serverTokenEnv+"="+token)
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil {
			return strings.TrimSpace(string(b))
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("serve-worker process never published its address")
	return ""
}

// newRemotePool builds a pool over the given options with cleanup.
func newRemotePool(t *testing.T, o Options) *Pool {
	t.Helper()
	if o.Stderr == nil {
		o.Stderr = io.Discard
	}
	p, err := NewPool(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// deadEndpoint returns a loopback address nothing is listening on.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestTCPMatchesInProcess is the tentpole's core contract: a sweep
// through TCP serve-worker slots renders byte-identically to the
// in-process pool, at several batch sizes.
func TestTCPMatchesInProcess(t *testing.T) {
	local := renderSweep(t, engine.Config{Parallel: 2, Seed: 7}, rowJobs(12))
	addr := startServeWorker(t, ServeOptions{})
	for _, batch := range []int{1, 4} {
		pool := newRemotePool(t, Options{Remote: []string{addr, addr}, Batch: batch})
		got := renderSweep(t, engine.Config{Seed: 7, Executor: pool}, rowJobs(12))
		if got != local {
			t.Errorf("batch=%d TCP output diverged from in-process:\nlocal:\n%s\ntcp:\n%s", batch, local, got)
		}
		st := pool.Stats()
		if st.Remote != 12 || st.Local != 0 || st.Crashes != 0 {
			t.Errorf("batch=%d stats = %+v, want all 12 cells remote", batch, st)
		}
	}
}

// TestTCPConcurrentSweepsSharePool: the battery scheduler's shape over
// remote slots — two sweeps concurrently on one TCP pool, each
// byte-identical to its in-process run.
func TestTCPConcurrentSweepsSharePool(t *testing.T) {
	localA := renderSweep(t, engine.Config{Parallel: 2, Seed: 7}, rowJobs(12))
	localB := renderSweep(t, engine.Config{Parallel: 2, Seed: 31}, rowJobs(9))
	addr := startServeWorker(t, ServeOptions{})
	pool := newRemotePool(t, Options{Remote: []string{addr, addr}, Batch: 2})
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
		t.Errorf("sweep A diverged over concurrent TCP Execute:\n%s\nwant:\n%s", distA, localA)
	}
	if distB != localB {
		t.Errorf("sweep B diverged over concurrent TCP Execute:\n%s\nwant:\n%s", distB, localB)
	}
	if st := pool.Stats(); st.Remote != 21 || st.Local != 0 || st.Crashes != 0 {
		t.Errorf("stats = %+v, want all 21 cells remote", st)
	}
}

// TestTCPWorkerKillMidBatch kills a remote worker process mid-batch
// (its cell calls os.Exit): exactly the in-flight batch must surface
// as contained FAILED cells naming the endpoint, and every other cell
// must complete with values byte-identical to a local run — the sweep
// survives losing the machine.
func TestTCPWorkerKillMidBatch(t *testing.T) {
	addr := startServerProcess(t, "")
	mkJobs := func() []engine.Job {
		jobs := rowJobs(8)
		jobs[3] = engine.Job{Key: "cell-03", Spec: &engine.Spec{Task: "test/crash"}}
		return jobs
	}
	// Local reference values for the cells that should survive.
	want := map[string]string{}
	localEng := engine.New(engine.Config{Parallel: 2, Seed: 1})
	for _, r := range localEng.Run(context.Background(), rowJobs(8)) {
		want[r.Key] = fmt.Sprint(r.Value)
	}

	pool := newRemotePool(t, Options{Remote: []string{addr}, Batch: 2})
	eng := engine.New(engine.Config{Seed: 1, Executor: pool})
	results := eng.Run(context.Background(), mkJobs())

	var failed []string
	for _, r := range results {
		if r.Panicked {
			failed = append(failed, r.Key)
			if !strings.Contains(r.Err.Error(), "worker["+addr+"]") {
				t.Errorf("%s: containment error %v does not name the endpoint", r.Key, r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.Key, r.Err)
			continue
		}
		if got := fmt.Sprint(r.Value); got != want[r.Key] {
			t.Errorf("%s diverged from local run:\n%s\nwant:\n%s", r.Key, got, want[r.Key])
		}
	}
	// Batch 2 on one slot: cells 2 and 3 were in flight when the worker
	// died; exactly those are FAILED.
	if fmt.Sprint(failed) != "[cell-02 cell-03]" {
		t.Errorf("failed cells = %v, want exactly the in-flight batch [cell-02 cell-03]", failed)
	}
	if st := pool.Stats(); st.Crashes != 2 {
		t.Errorf("stats = %+v, want exactly the 2 in-flight cells charged as crashes", st)
	}
}

// TestTCPStalledLinkDeadline: a link that stalls without closing —
// silence TCP itself never surfaces as an error — must be detected by
// the heartbeat deadline, cost exactly the in-flight batch, and the
// slot must reconnect and finish the sweep remotely.
func TestTCPStalledLinkDeadline(t *testing.T) {
	addr := startServeWorker(t, ServeOptions{WorkerOptions: WorkerOptions{HeartbeatInterval: 20 * time.Millisecond}})
	down := noFaults()
	down.stallAfter = 100 // past the helloAck, before the first response
	proxy := newFaultProxy(t, addr, noFaults(), down, true)

	pool := newRemotePool(t, Options{Remote: []string{proxy.Addr()}, LinkTimeout: 250 * time.Millisecond})
	start := time.Now()
	eng := engine.New(engine.Config{Seed: 1, Executor: pool})
	results := eng.Run(context.Background(), rowJobs(6))
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sweep took %v; the deadline did not fire", elapsed)
	}
	var failed int
	for _, r := range results {
		if r.Panicked {
			failed++
			if !strings.Contains(r.Err.Error(), "silent past deadline") {
				t.Errorf("%s: error %v, want the heartbeat-deadline containment", r.Key, r.Err)
			}
			if !strings.Contains(r.Err.Error(), "worker[127.0.0.1:") {
				t.Errorf("%s: error %v does not name the remote endpoint", r.Key, r.Err)
			}
		} else if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.Key, r.Err)
		}
	}
	st := pool.Stats()
	if failed != 1 || st.Crashes != 1 {
		t.Errorf("failed=%d stats=%+v, want exactly the 1-cell in-flight batch contained", failed, st)
	}
	if st.Respawns < 1 {
		t.Errorf("respawns = %d, want >= 1 (slot must reconnect)", st.Respawns)
	}
	if st.Remote != 5 {
		t.Errorf("remote = %d, want 5 (rest of the sweep stays remote after reconnect)", st.Remote)
	}
}

// TestTCPSlowCellHeartbeatsKeepLinkAlive: a cell that runs far longer
// than the link deadline must NOT be declared dead while its worker
// heartbeats — the deadline measures silence, not cell cost.
func TestTCPSlowCellHeartbeatsKeepLinkAlive(t *testing.T) {
	addr := startServeWorker(t, ServeOptions{WorkerOptions: WorkerOptions{HeartbeatInterval: 25 * time.Millisecond}})
	pool := newRemotePool(t, Options{Remote: []string{addr}, LinkTimeout: 150 * time.Millisecond})
	jobs := []engine.Job{{Key: "slow/cell", Spec: &engine.Spec{
		Task: "test/sleep", Args: map[string]string{"ms": "600"}, // 4× the link deadline
	}}}
	eng := engine.New(engine.Config{Executor: pool})
	for _, r := range eng.Run(context.Background(), jobs) {
		if r.Err != nil {
			t.Errorf("%s: %v (a slow cell on a live link must not be contained)", r.Key, r.Err)
		}
	}
	if st := pool.Stats(); st.Remote != 1 || st.Crashes != 0 {
		t.Errorf("stats = %+v, want the slow cell remote and uncontained", st)
	}
}

// TestTCPCorruptFrameRetiresConnection: a bit flipped in the response
// stream must retire the connection — a corrupted stream can never be
// trusted to be framed correctly again — costing the in-flight batch
// and one reconnect, never wedging or mis-decoding.
func TestTCPCorruptFrameRetiresConnection(t *testing.T) {
	addr := startServeWorker(t, ServeOptions{WorkerOptions: WorkerOptions{HeartbeatInterval: 20 * time.Millisecond}})
	down := noFaults()
	down.corruptAt = 600 // past the helloAck, inside some response frame
	proxy := newFaultProxy(t, addr, noFaults(), down, true)

	pool := newRemotePool(t, Options{Remote: []string{proxy.Addr()}, LinkTimeout: 500 * time.Millisecond})
	eng := engine.New(engine.Config{Seed: 1, Executor: pool})
	results := eng.Run(context.Background(), rowJobs(8))
	var failed int
	for _, r := range results {
		if r.Panicked {
			failed++
		} else if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.Key, r.Err)
		}
	}
	st := pool.Stats()
	if failed != 1 || st.Crashes != 1 {
		t.Errorf("failed=%d stats=%+v, want exactly one batch contained by the corrupt frame", failed, st)
	}
	if st.Respawns < 1 {
		t.Errorf("respawns = %d, want >= 1 (connection retired and redialed)", st.Respawns)
	}
	if st.Remote != 7 {
		t.Errorf("remote = %d, want 7 (sweep finishes remotely on the fresh connection)", st.Remote)
	}
}

// TestTCPReconnectBudgetDegradesToLocal: when every reconnect hits the
// same fault, the slot must exhaust its budget and degrade to
// in-process execution — FAILED cells are bounded by the budget and
// the sweep still completes, promptly.
func TestTCPReconnectBudgetDegradesToLocal(t *testing.T) {
	addr := startServeWorker(t, ServeOptions{WorkerOptions: WorkerOptions{HeartbeatInterval: 20 * time.Millisecond}})
	down := noFaults()
	down.stallAfter = 100
	proxy := newFaultProxy(t, addr, noFaults(), down, false) // every connection stalls

	pool := newRemotePool(t, Options{
		Remote:      []string{proxy.Addr()},
		MaxRespawns: 1,
		LinkTimeout: 200 * time.Millisecond,
	})
	start := time.Now()
	eng := engine.New(engine.Config{Seed: 1, Executor: pool})
	results := eng.Run(context.Background(), rowJobs(6))
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sweep took %v; budget exhaustion did not degrade promptly", elapsed)
	}
	var failed int
	for _, r := range results {
		if r.Panicked {
			failed++
		} else if r.Err != nil {
			t.Errorf("%s: unexpected error %v", r.Key, r.Err)
		}
	}
	st := pool.Stats()
	// MaxRespawns 1: the first stalled batch spends the free connection,
	// the second spends the one reconnect, then the slot is local.
	if failed != 2 || st.Crashes != 2 {
		t.Errorf("failed=%d stats=%+v, want exactly 2 batches lost before degradation", failed, st)
	}
	if st.Local != 4 || st.Remote != 0 {
		t.Errorf("stats = %+v, want the remaining 4 cells in-process", st)
	}
}

// TestTCPDialRefusedFallsBackGolden: an endpoint nobody listens on
// must not cost a single cell or a byte — every cell runs in-process,
// byte-identical to -parallel, including under concurrent sweeps (the
// -battery-parallel shape).
func TestTCPDialRefusedFallsBackGolden(t *testing.T) {
	dead := deadEndpoint(t)
	localA := renderSweep(t, engine.Config{Parallel: 2, Seed: 7}, rowJobs(12))
	localB := renderSweep(t, engine.Config{Parallel: 2, Seed: 31}, rowJobs(9))

	pool := newRemotePool(t, Options{Remote: []string{dead, dead}})
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
		t.Errorf("fallback sweep A diverged:\n%s\nwant:\n%s", distA, localA)
	}
	if distB != localB {
		t.Errorf("fallback sweep B diverged:\n%s\nwant:\n%s", distB, localB)
	}
	st := pool.Stats()
	if st.Remote != 0 || st.Local != 21 || st.Crashes != 0 {
		t.Errorf("stats = %+v, want all 21 cells in-process with no contained failures", st)
	}
}

// TestTCPAuthToken: a wrong token is refused at the handshake — before
// any cells flow — and degrades to byte-identical in-process
// execution; the right token is accepted and stays remote.
func TestTCPAuthToken(t *testing.T) {
	addr := startServeWorker(t, ServeOptions{AuthToken: "sesame"})
	want := renderSweep(t, engine.Config{Parallel: 2, Seed: 7}, rowJobs(6))

	bad := newRemotePool(t, Options{Remote: []string{addr}, AuthToken: "wrong"})
	got := renderSweep(t, engine.Config{Seed: 7, Executor: bad}, rowJobs(6))
	if got != want {
		t.Errorf("refused-auth fallback diverged:\n%s\nwant:\n%s", got, want)
	}
	if st := bad.Stats(); st.Remote != 0 || st.Local != 6 {
		t.Errorf("refused-auth stats = %+v, want all cells in-process", st)
	}

	good := newRemotePool(t, Options{Remote: []string{addr}, AuthToken: "sesame"})
	got = renderSweep(t, engine.Config{Seed: 7, Executor: good}, rowJobs(6))
	if got != want {
		t.Errorf("authed sweep diverged:\n%s\nwant:\n%s", got, want)
	}
	if st := good.Stats(); st.Remote != 6 || st.Local != 0 {
		t.Errorf("authed stats = %+v, want all cells remote", st)
	}
}

// TestTCPCancellationClosesLink: cancelling a sweep whose cell sleeps
// far longer than the test budget must close the remote link and
// return promptly — heartbeats keep the link "alive", so cancellation
// cannot wait for a deadline.
func TestTCPCancellationClosesLink(t *testing.T) {
	addr := startServeWorker(t, ServeOptions{WorkerOptions: WorkerOptions{HeartbeatInterval: 20 * time.Millisecond}})
	pool := newRemotePool(t, Options{Remote: []string{addr}})
	jobs := []engine.Job{{Key: "sleep/cell", Spec: &engine.Spec{
		Task: "test/sleep", Args: map[string]string{"ms": "60000"},
	}}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	eng := engine.New(engine.Config{Executor: pool})
	results := eng.Run(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; the remote link was not closed", elapsed)
	}
	if results[0].Err == nil {
		t.Error("cell completed despite cancellation")
	}
}

// TestRemoteLocalPrefixInterleave: a pool mixing a local child and a
// remote endpoint must attribute every stderr line to its slot — local
// lines by slot index and cell key, remote link events by host:port —
// even interleaved on one destination.
func TestRemoteLocalPrefixInterleave(t *testing.T) {
	dead := deadEndpoint(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	pool, err := NewPool(Options{
		Workers: 1,
		Command: exe,
		Env:     append(os.Environ(), workerEnv+"=1"),
		Remote:  []string{dead},
		Stderr:  &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Round-robin puts even cells on the local slot, odd on the remote;
	// the noisy cell lands locally, the remote ones fall back with
	// endpoint-attributed diagnostics.
	rows := func(key string) engine.Job {
		return engine.Job{
			Key:  key,
			Spec: &engine.Spec{Task: "test/rows"},
			Run: func(ctx context.Context, env engine.Env) (interface{}, error) {
				return cellWork(env, key)
			},
		}
	}
	jobs := []engine.Job{
		{Key: "noisy/cell", Spec: &engine.Spec{Task: "test/stderr"}},
		rows("fallback-1"),
		rows("quiet/cell"),
		rows("fallback-2"),
	}
	eng := engine.New(engine.Config{Seed: 1, Executor: pool})
	for _, r := range eng.Run(context.Background(), jobs) {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Key, r.Err)
		}
	}
	pool.Close() // flush the child's stderr copier
	out := buf.String()
	if !strings.Contains(out, "worker[0] noisy/cell: grumble from noisy/cell") {
		t.Errorf("local slot line lost its slot/cell prefix; got:\n%s", out)
	}
	if !strings.Contains(out, "dist: worker["+dead+"]: ") {
		t.Errorf("remote slot diagnostics not attributed to %s; got:\n%s", dead, out)
	}
}

// TestFrameChecksumCatchesCorruption: a single flipped payload bit
// must surface as a checksum error, not a gob mis-decode.
func TestFrameChecksumCatchesCorruption(t *testing.T) {
	var buf bytes.Buffer
	in := request{ID: 3, Seed: 9, Cells: []cellReq{{Key: "k", Spec: engine.Spec{Task: "t"}}}}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-2] ^= 0x01 // flip a payload bit, framing intact
	var out request
	err := readFrame(bytes.NewReader(raw), &out)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("corrupted frame read = %v, want a checksum mismatch", err)
	}
}

// TestServeRejectsVersionSkew: a dialer from a different protocol
// revision is refused at the handshake with a clear error.
func TestServeRejectsVersionSkew(t *testing.T) {
	addr := startServeWorker(t, ServeOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &hello{Version: protoVersion + 1}); err != nil {
		t.Fatal(err)
	}
	var ack helloAck
	if err := readFrame(conn, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.OK || !strings.Contains(ack.Err, "version skew") {
		t.Errorf("ack = %+v, want a version-skew refusal", ack)
	}
}
