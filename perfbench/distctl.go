package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"dsa/internal/engine"
	"dsa/internal/engine/dist"
	"dsa/internal/workload/catalog"
)

// ctlTask is a control cell the benchmark sends its own worker
// processes: "ping" answers with the worker's pid, "prof-start" and
// "prof-stop" bracket a CPU profile written to <dir>/worker-<pid>.pprof.
// Workers are killed when the pool closes, so their profiles must be
// stopped by a cell while they are still alive.
const ctlTask = "perfbench/ctl"

func init() { dist.Handle(ctlTask, ctlHandler) }

// ctlCells counts control cells sent, so the pool's cell counters can
// be reported without them.
var ctlCells atomic.Int64

var workerProf struct {
	sync.Mutex
	f *os.File
}

func ctlHandler(_ context.Context, c dist.Call) (interface{}, error) {
	pid := strconv.Itoa(os.Getpid())
	workerProf.Lock()
	defer workerProf.Unlock()
	switch op := c.Spec.Args["op"]; op {
	case "ping":
	case "prof-start":
		if workerProf.f == nil {
			f, err := os.Create(filepath.Join(c.Spec.Args["dir"], "worker-"+pid+".pprof"))
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, err
			}
			workerProf.f = f
		}
	case "prof-stop":
		if workerProf.f != nil {
			pprof.StopCPUProfile()
			err := workerProf.f.Close()
			workerProf.f = nil
			if err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown control op %q", op)
	}
	return pid, nil
}

// workerCtl runs op on every worker process in want.
func workerCtl(pool *dist.Pool, want []string, op, dir string) error {
	_, err := ctlRounds(pool, len(want), want, op, dir)
	return err
}

// ctlRounds sends one control cell per slot and repeats until each pid
// in want has answered (work stealing may hand two cells of a round to
// one worker). With want nil it collects pids until slots workers have
// answered and returns them.
func ctlRounds(pool *dist.Pool, slots int, want []string, op, dir string) ([]string, error) {
	seen := map[string]bool{}
	done := func() bool {
		if want == nil {
			return len(seen) >= slots
		}
		for _, p := range want {
			if !seen[p] {
				return false
			}
		}
		return true
	}
	for round := 0; round < 50 && !done(); round++ {
		jobs := make([]engine.Job, slots)
		for i := range jobs {
			jobs[i] = engine.Job{
				Key:  fmt.Sprintf("perfbench-ctl/%d/%d", round, i),
				Spec: &engine.Spec{Task: ctlTask, Args: map[string]string{"op": op, "dir": dir}},
				Run: func(context.Context, engine.Env) (interface{}, error) {
					return nil, errors.New("control cell ran in the dispatcher")
				},
			}
		}
		var mu sync.Mutex
		var firstErr error
		ctlCells.Add(int64(len(jobs)))
		pool.Execute(context.Background(), engine.SweepEnv{Catalog: catalog.New()}, jobs, func(r engine.Result) {
			mu.Lock()
			defer mu.Unlock()
			if r.Err != nil {
				if firstErr == nil {
					firstErr = r.Err
				}
				return
			}
			seen[r.Value.(string)] = true
		})
		if firstErr != nil {
			return nil, fmt.Errorf("worker control %q: %w", op, firstErr)
		}
	}
	if !done() {
		return nil, fmt.Errorf("worker control %q: not every worker answered", op)
	}
	pids := make([]string, 0, len(seen))
	for p := range seen {
		pids = append(pids, p)
	}
	return pids, nil
}

// newDistPool builds the dist workload's pool — nproc children of this
// binary at the default batch — and forces every child to spawn and
// handshake by pinging it.
func newDistPool(nproc int) (*dist.Pool, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	pool, err := dist.NewPool(dist.Options{Workers: nproc, Command: exe, Args: []string{"worker"}})
	if err != nil {
		return nil, nil, err
	}
	pids, err := ctlRounds(pool, nproc, nil, "ping", "")
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	if len(pids) != nproc {
		pool.Close()
		return nil, nil, fmt.Errorf("dist pool answered from %d workers, want %d", len(pids), nproc)
	}
	return pool, pids, nil
}
