// Package smoke drives the built dsafig, dsasim and dsatrace commands
// end to end: every multi-process, cached, remote and served path must
// print exactly the bytes of the serial CLI, and the stderr summaries
// must prove the path really ran (cells crossed the wire, the disk
// cache replayed, the daemon drained). It holds only tests.
//
// Each test builds nothing itself: TestMain builds the three commands
// once into a temporary directory, with the toolchain that built the
// test binary, and with -race when the tests run under -race. Under
// -short every test skips and nothing is built. Run them alone with
//
//	go test -run Smoke ./internal/smoke
//
// The package imports none of the code it tests, so go test's result
// cache would not see an edit to it. Every test therefore lists the
// directories of the commands' non-standard dependencies, the module
// root and examples/scenarios: go test hashes the names and stats of
// the files in each directory it sees opened, so any edit there reruns
// the smokes.
package smoke

import (
	"bytes"
	"debug/buildinfo"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var commands = []string{"dsafig", "dsasim", "dsatrace"}

var (
	// bin is the directory TestMain builds the commands into.
	bin string
	// sources are the directories the commands are built from, plus
	// the module root and the example scenarios they read.
	sources []string
)

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "dsa-cmds-")
	if err == nil {
		err = build(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	bin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// build compiles the commands into dir with the go command of the
// toolchain running the tests (under -race, with -race), checks that
// they report that toolchain's version, and records the directories
// they are built from.
func build(dir string) error {
	goCmd := "go"
	if root := runtime.GOROOT(); root != "" { // empty under -trimpath
		goCmd = filepath.Join(root, "bin", "go")
	}
	var pkgs []string
	for _, c := range commands {
		pkgs = append(pkgs, "dsa/cmd/"+c)
	}
	args := []string{"build", "-o", dir}
	if raceEnabled {
		args = append(args, "-race")
	}
	if out, err := exec.Command(goCmd, append(args, pkgs...)...).CombinedOutput(); err != nil {
		return fmt.Errorf("building the commands: %v\n%s", err, out)
	}
	for _, c := range commands {
		info, err := buildinfo.ReadFile(filepath.Join(dir, c))
		if err != nil {
			return err
		}
		if info.GoVersion != runtime.Version() {
			return fmt.Errorf("%s built by %s (%s), the tests by %s", c, goCmd, info.GoVersion, runtime.Version())
		}
	}
	list := exec.Command(goCmd, append([]string{"list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}"}, pkgs...)...)
	list.Stderr = os.Stderr
	out, err := list.Output()
	if err != nil {
		return fmt.Errorf("listing the commands' packages: %v", err)
	}
	sources = append(strings.Fields(string(out)), filepath.Join("..", ".."), filepath.Join("..", "..", "examples", "scenarios"))
	return nil
}

// readSources opens every directory in sources once. The opens must
// happen inside m.Run, where go test logs them, hence here and not in
// TestMain.
var readSources = sync.OnceValue(func() error {
	for _, dir := range sources {
		if _, err := os.ReadDir(dir); err != nil {
			return err
		}
	}
	return nil
})

// The example scenario files, relative to this package's directory.
var (
	mirror       = scenarioFile("t2-mirror.toml")
	allScenarios = strings.Join([]string{mirror,
		scenarioFile("adversarial-frag.toml"), scenarioFile("phased-machines.toml")}, ",")
)

func scenarioFile(name string) string {
	return filepath.Join("..", "..", "examples", "scenarios", name)
}

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke test: builds and runs the commands")
	}
	if err := readSources(); err != nil {
		t.Fatal(err)
	}
}

// run executes one of the built commands to completion and returns its
// stdout and stderr. A non-zero exit fails the test.
func run(t *testing.T, name string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, name), args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstderr:\n%s", name, strings.Join(args, " "), err, errb.Bytes())
	}
	return out.Bytes(), errb.Bytes()
}

// runFails executes a command that must exit non-zero and returns its
// stderr.
func runFails(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	var errb bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, name), args...)
	cmd.Stderr = &errb
	if err := cmd.Run(); err == nil {
		t.Fatalf("%s %s: exited 0, want a failure", name, strings.Join(args, " "))
	}
	return errb.Bytes()
}

// same fails the test unless got is byte-identical to want, naming the
// first line that differs. An empty want is a failure too: two empty
// outputs prove nothing.
func same(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if len(want) == 0 {
		t.Errorf("%s: the reference output is empty", what)
		return
	}
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; ; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g || i >= len(wl) || i >= len(gl) {
			t.Errorf("%s: output differs at line %d (%d vs %d bytes)\nwant %q\ngot  %q",
				what, i+1, len(want), len(got), w, g)
			return
		}
	}
}

// contains fails the test unless text holds want.
func contains(t *testing.T, what string, text []byte, want string) {
	t.Helper()
	if !bytes.Contains(text, []byte(want)) {
		t.Errorf("%s: no %q in\n%s", what, want, text)
	}
}

// linesWithPrefix returns the lines of text that start with prefix.
func linesWithPrefix(text []byte, prefix string) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(text, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(prefix)) {
			out = append(out, line...)
		}
	}
	return out
}

// daemon is a long-running command (a serve-worker or `dsasim serve`)
// that announces its address through -addr-file.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	stderr bytes.Buffer // read only after done closes
	done   chan struct{}
	err    error
	addr   string
}

// startDaemon starts a daemon with -addr-file and waits until the
// file names its address. The daemon is killed when the test ends.
func startDaemon(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	d := &daemon{name: name, done: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(bin, name), append(args, "-addr-file", addrFile)...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
		if t.Failed() {
			t.Logf("%s %s stderr:\n%s", name, strings.Join(args, " "), d.stderr.Bytes())
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = string(b)
			return d
		}
		select {
		case <-d.done:
			t.Fatalf("%s exited before listening: %v\n%s", name, d.err, d.stderr.Bytes())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never wrote its address to %s", name, addrFile)
		}
	}
}

// terminate sends SIGTERM, requires a clean exit 0 and returns the
// daemon's stderr.
func (d *daemon) terminate(t *testing.T) []byte {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit within 30s of SIGTERM", d.name)
	}
	if d.err != nil {
		t.Fatalf("%s after SIGTERM: %v, want exit 0\n%s", d.name, d.err, d.stderr.Bytes())
	}
	return d.stderr.Bytes()
}

// TestSmokeDist: a real multi-process sweep is byte-identical to the
// in-process pool — per cell, batched, and against a cold then warm
// cache directory — with every cell distributed and the warm run
// replaying from disk.
func TestSmokeDist(t *testing.T) {
	skipShort(t)
	simParallel, _ := run(t, "dsasim", "-machine", "all", "-parallel", "2", "-workload", "segments")
	out, errb := run(t, "dsasim", "-machine", "all", "-workers", "2", "-workload", "segments")
	same(t, "dsasim -workers 2", simParallel, out)
	contains(t, "dsasim -workers 2 stderr", errb, "7 cells in 2 workers, 0 in-process, 0 crashes")
	out, _ = run(t, "dsasim", "-machine", "all", "-workers", "2", "-batch", "3", "-workload", "segments")
	same(t, "dsasim -workers 2 -batch 3", simParallel, out)

	figParallel, _ := run(t, "dsafig", "-parallel", "4", "t1", "t4")
	out, errb = run(t, "dsafig", "-workers", "2", "t1", "t4")
	same(t, "dsafig -workers 2", figParallel, out)
	contains(t, "dsafig -workers 2 stderr", errb, "16 cells in 2 workers, 0 in-process, 0 crashes")
	out, errb = run(t, "dsafig", "-workers", "2", "-batch", "4", "t1", "t4")
	same(t, "dsafig -workers 2 -batch 4", figParallel, out)
	contains(t, "dsafig -workers 2 -batch 4 stderr", errb, "16 cells in 2 workers, 0 in-process, 0 crashes")

	cache := t.TempDir()
	out, errb = run(t, "dsafig", "-cache-dir", cache, "t1", "t4")
	same(t, "dsafig cold cache", figParallel, out)
	contains(t, "dsafig cold cache stderr", errb, "store: 4 generated, 12 hits, 0 disk hits, 4 disk writes")
	out, errb = run(t, "dsafig", "-cache-dir", cache, "t1", "t4")
	same(t, "dsafig warm cache", figParallel, out)
	contains(t, "dsafig warm cache stderr", errb, "store: 0 generated, 12 hits, 4 disk hits, 0 disk writes")
	out, _ = run(t, "dsafig", "-cache-dir", cache, "-workers", "2", "-batch", "4", "t1", "t4")
	same(t, "dsafig warm cache -workers 2 -batch 4", figParallel, out)
}

// TestSmokeBattery: whole sweeps running concurrently over one shared
// executor are byte-identical to the serial battery with identical
// store summaries; a machine run, being one sweep, rejects
// -battery-parallel; and a second run against a cache directory the
// first filled regenerates nothing and prints the same bytes.
func TestSmokeBattery(t *testing.T) {
	skipShort(t)
	figSerial, serialErr := run(t, "dsafig", "-progress")
	out, errb := run(t, "dsafig", "-battery-parallel", "4", "-progress")
	same(t, "dsafig -battery-parallel 4", figSerial, out)
	same(t, "dsafig -battery-parallel 4 store lines",
		linesWithPrefix(serialErr, "dsafig: store:"), linesWithPrefix(errb, "dsafig: store:"))
	out, errb = run(t, "dsafig", "-battery-parallel", "4", "-workers", "2", "-batch", "4", "-cache-dir", t.TempDir())
	same(t, "dsafig -battery-parallel 4 -workers 2 -batch 4 -cache-dir", figSerial, out)
	contains(t, "dsafig -battery-parallel 4 -workers 2 stderr", errb, "cells in 2 workers, 0 in-process, 0 crashes")

	simSerial, _ := run(t, "dsasim", "-machine", "all", "-workload", "segments")
	errb = runFails(t, "dsasim", "-machine", "all", "-battery-parallel", "4", "-workload", "segments")
	contains(t, "dsasim -battery-parallel 4 stderr", errb, "is one sweep")
	out, errb = run(t, "dsasim", "-machine", "all", "-workers", "2", "-batch", "2", "-workload", "segments")
	same(t, "dsasim -workers 2 -batch 2", simSerial, out)
	contains(t, "dsasim -workers 2 -batch 2 stderr", errb, "7 cells in 2 workers, 0 in-process, 0 crashes")

	cache := t.TempDir()
	cold, _ := run(t, "dsasim", "-machine", "all", "-cache-dir", cache, "-workload", "segments")
	same(t, "dsasim cold cache", simSerial, cold)
	warm, errb := run(t, "dsasim", "-machine", "all", "-cache-dir", cache, "-workload", "segments")
	same(t, "dsasim warm cache", cold, warm)
	contains(t, "dsasim warm cache stderr", errb, "store: 0 generated")

	cache, traces := t.TempDir(), t.TempDir()
	batch := []string{"batch", "-out", traces, "-cache-dir", cache, "-kinds", "workingset,loop", "-variants", "2"}
	cold, _ = run(t, "dsatrace", batch...)
	coldFiles := readDir(t, traces)
	if len(coldFiles) != 4 {
		t.Fatalf("dsatrace batch wrote %d trace files, want 4", len(coldFiles))
	}
	warm, errb = run(t, "dsatrace", batch...)
	same(t, "dsatrace batch warm cache", cold, warm)
	contains(t, "dsatrace batch warm cache stderr", errb, "store: 0 generated")
	warmFiles := readDir(t, traces)
	for name, want := range coldFiles {
		same(t, "dsatrace batch warm cache "+name, want, warmFiles[name])
	}
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestSmokeScenario: examples/scenarios/t2-mirror.toml declares exactly
// the compiled-in t2 sweep, so `dsafig -scenario` reproduces `dsafig
// t2` serially, under -parallel and across a two-process pool; and a
// second run of all three example files against a cache directory the
// first filled regenerates nothing, in-process or distributed.
func TestSmokeScenario(t *testing.T) {
	skipShort(t)
	compiled, _ := run(t, "dsafig", "t2")
	out, _ := run(t, "dsafig", "-scenario", mirror)
	same(t, "dsafig -scenario t2-mirror", compiled, out)
	out, _ = run(t, "dsafig", "-parallel", "4", "-scenario", mirror)
	same(t, "dsafig -parallel 4 -scenario t2-mirror", compiled, out)
	out, errb := run(t, "dsafig", "-workers", "2", "-scenario", mirror)
	same(t, "dsafig -workers 2 -scenario t2-mirror", compiled, out)
	contains(t, "dsafig -workers 2 -scenario stderr", errb, "18 cells in 2 workers, 0 in-process, 0 crashes")

	cache := t.TempDir()
	cold, _ := run(t, "dsafig", "-cache-dir", cache, "-scenario", allScenarios)
	warm, errb := run(t, "dsafig", "-cache-dir", cache, "-scenario", allScenarios)
	same(t, "dsafig -scenario warm cache", cold, warm)
	contains(t, "dsafig -scenario warm cache stderr", errb, "store: 0 generated")
	out, _ = run(t, "dsafig", "-workers", "2", "-cache-dir", cache, "-scenario", allScenarios)
	same(t, "dsafig -workers 2 -scenario warm cache", warm, out)
}

// TestSmokeTCP: sweeps dialed through localhost TCP serve-workers (two
// pool slots on one server, plain and under -battery-parallel, with an
// auth token) are byte-identical to the serial runs with every cell
// remote.
func TestSmokeTCP(t *testing.T) {
	skipShort(t)
	simSerial, _ := run(t, "dsasim", "-machine", "all", "-workload", "segments")
	figSerial, _ := run(t, "dsafig", "t1", "t4")
	simWorker := startDaemon(t, "dsasim", "serve-worker", "-listen", "127.0.0.1:0", "-auth-token", "smoke")
	figWorker := startDaemon(t, "dsafig", "serve-worker", "-listen", "127.0.0.1:0", "-auth-token", "smoke")

	simRemote := simWorker.addr + "," + simWorker.addr
	out, errb := run(t, "dsasim", "-machine", "all", "-remote", simRemote, "-auth-token", "smoke", "-workload", "segments")
	same(t, "dsasim -remote", simSerial, out)
	contains(t, "dsasim -remote stderr", errb, "7 cells in 2 workers, 0 in-process, 0 crashes")

	figRemote := figWorker.addr + "," + figWorker.addr
	out, errb = run(t, "dsafig", "-remote", figRemote, "-auth-token", "smoke", "t1", "t4")
	same(t, "dsafig -remote", figSerial, out)
	contains(t, "dsafig -remote stderr", errb, "16 cells in 2 workers, 0 in-process, 0 crashes")
	out, errb = run(t, "dsafig", "-battery-parallel", "4", "-remote", figRemote, "-auth-token", "smoke", "-batch", "4", "t1", "t4")
	same(t, "dsafig -battery-parallel 4 -remote", figSerial, out)
	contains(t, "dsafig -battery-parallel 4 -remote stderr", errb, "16 cells in 2 workers, 0 in-process, 0 crashes")
}

// submitBody is the POST /sweeps payload; submitReply its answer.
type submitBody struct {
	Experiments  []string `json:"experiments,omitempty"`
	Scenario     string   `json:"scenario,omitempty"`
	ScenarioFile string   `json:"scenario_file,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
}

type submitReply struct {
	ID  string `json:"id"`
	Key string `json:"key"`
}

// postSweep submits one sweep as tenant and returns the status code
// and, on 2xx, the decoded reply.
func postSweep(client *http.Client, base, tenant string, body submitBody) (int, submitReply, error) {
	var reply submitReply
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, reply, err
	}
	req, err := http.NewRequest("POST", base+"/sweeps", bytes.NewReader(payload))
	if err != nil {
		return 0, reply, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, reply, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			return resp.StatusCode, reply, fmt.Errorf("decoding submit reply: %w", err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, reply, nil
}

// httpGet fetches url and fails the test on anything but 200.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b
}

// submitAndStream submits one sweep and returns its streamed output.
func submitAndStream(t *testing.T, base string, body submitBody) (key string, stream []byte) {
	t.Helper()
	code, reply, err := postSweep(http.DefaultClient, base, "", body)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("POST /sweeps %+v: %d", body.Experiments, code)
	}
	return reply.Key, httpGet(t, base+"/sweeps/"+reply.ID+"/stream")
}

// TestSmokeServe: a `dsasim serve` daemon's streamed output is
// byte-identical to the serial CLI for a registry sweep and an
// uploaded scenario file; re-fetching a completed result by key
// regenerates nothing (/stats is unchanged by a byte); and SIGTERM
// drains cleanly, printing the store summary.
func TestSmokeServe(t *testing.T) {
	skipShort(t)
	cliT2, _ := run(t, "dsafig", "t2")
	cliMirror, _ := run(t, "dsafig", "-scenario", mirror)
	d := startDaemon(t, "dsasim", "serve", "-listen", "127.0.0.1:0", "-cache-dir", t.TempDir())
	base := "http://" + d.addr

	key, served := submitAndStream(t, base, submitBody{Experiments: []string{"t2"}})
	same(t, "served t2", cliT2, served)
	src, err := os.ReadFile(mirror)
	if err != nil {
		t.Fatal(err)
	}
	_, served = submitAndStream(t, base, submitBody{Scenario: string(src), ScenarioFile: mirror})
	same(t, "served t2-mirror upload", cliMirror, served)

	before := httpGet(t, base+"/stats")
	same(t, "fetched t2 by key", cliT2, httpGet(t, base+"/results/"+key))
	after := httpGet(t, base+"/stats")
	same(t, "/stats across a fetch by key", before, after)
	contains(t, "/stats", after, `"store":"6 generated`)

	errb := d.terminate(t)
	if len(linesWithPrefix(errb, "dsasim: store:")) == 0 {
		t.Errorf("serve stderr has no dsasim: store: line:\n%s", errb)
	}
}

// TestSmokeLoad: a burst of 220 submissions, 60 in flight, across 5
// tenants and 8 seeds against a 2-cell daemon gets only 2xx and 429
// (back-pressure, never an error), and the daemon then drains cleanly
// on SIGTERM.
func TestSmokeLoad(t *testing.T) {
	skipShort(t)
	const n, inFlight, tenants, seeds = 220, 60, 5, 8
	d := startDaemon(t, "dsasim", "serve", "-listen", "127.0.0.1:0", "-parallel", "2")
	base := "http://" + d.addr
	client := &http.Client{Timeout: 30 * time.Second}

	codes := make([]int, n)
	errs := make([]error, n)
	latencies := make([]time.Duration, n)
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			codes[i], _, errs[i] = postSweep(client, base, fmt.Sprintf("bench-%d", i%tenants),
				submitBody{Experiments: []string{"t1"}, Seed: uint64(i % seeds)})
			latencies[i] = time.Since(start)
		}(i)
	}
	wg.Wait()

	byCode := map[int]int{}
	for i := range codes {
		if errs[i] != nil {
			t.Errorf("submission %d: %v", i, errs[i])
			continue
		}
		byCode[codes[i]]++
		if (codes[i] < 200 || codes[i] >= 300) && codes[i] != http.StatusTooManyRequests {
			t.Errorf("submission %d: status %d, want 2xx or 429", i, codes[i])
		}
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	t.Logf("%d submissions, %d in flight: status counts %v; latency p50 %v p90 %v p99 %v",
		n, inFlight, byCode, latencies[n/2], latencies[n*9/10], latencies[n*99/100])

	errb := d.terminate(t)
	if len(linesWithPrefix(errb, "dsasim: serve: shutting down")) == 0 {
		t.Errorf("serve stderr has no shutdown line:\n%s", errb)
	}
}

// TestSmokeRemovedEntryPoints: the deleted second entry points, the
// run subcommand of dsasim and the warm subcommand of dsatrace, exit
// non-zero with usage instead of running anything.
func TestSmokeRemovedEntryPoints(t *testing.T) {
	skipShort(t)
	contains(t, "dsasim given run", runFails(t, "dsasim", "run", "-scenario", mirror), "Usage")
	contains(t, "dsatrace given warm", runFails(t, "dsatrace", "warm", "-cache-dir", t.TempDir()), "usage")
}

// TestSmokeStrayArguments: a positional argument after a subcommand's
// flags is a usage error, not silently ignored.
func TestSmokeStrayArguments(t *testing.T) {
	skipShort(t)
	traces := t.TempDir()
	contains(t, "dsatrace batch given a stray argument",
		runFails(t, "dsatrace", "batch", "-out", traces, "-kinds", "loop", "loop-typo"), `unexpected argument "loop-typo"`)
	if files := readDir(t, traces); len(files) != 0 {
		t.Errorf("the rejected batch wrote %d files", len(files))
	}
	contains(t, "dsasim serve given a stray argument",
		runFails(t, "dsasim", "serve", "-listen", "127.0.0.1:0", "extra"), "Usage of serve")
}
