package main

import (
	"os"
	"path/filepath"
	"testing"

	"dsa/internal/engine/battery"
	"dsa/internal/experiments"
	"dsa/internal/workload/catalog"
)

// TestTimingExecutorKeepsBytesAndSeesEveryCell runs the paper-exact
// battery through the timing wrapper: the output must equal the golden
// bytes, every one of the battery's 106 cells must be recorded with a
// run span, and every job must be reported exactly once.
func TestTimingExecutorKeepsBytesAndSeesEveryCell(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	sess := newSession()
	got, err := renderBattery(experiments.Config{
		Parallel: 2, BatteryParallel: 2, Store: catalog.New(),
		Executor: sess.executor(battery.NewPool(2)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("traced battery differs from the golden output (%d vs %d bytes)", len(got), len(want))
	}
	spans := sess.spans()
	if len(spans) != len(experiments.Names()) {
		t.Errorf("recorded %d sweeps, want %d", len(spans), len(experiments.Names()))
	}
	cells := 0
	for _, e := range spans {
		for _, c := range e.cells {
			cells++
			if c.reports != 1 {
				t.Errorf("cell %s reported %d times, want 1", c.key, c.reports)
			}
			if !c.ran() || c.runEnd.Before(c.runStart) || c.reportStart.Before(c.runEnd) {
				t.Errorf("cell %s has an inconsistent span %+v", c.key, c)
			}
		}
	}
	if cells != 106 {
		t.Errorf("recorded %d cell spans, want 106", cells)
	}
	var cs cellStats
	cs.add(spans)
	if cs.cells != 106 || cs.localCells != 106 || len(cs.busyS) != 1 || cs.busyS[0] <= 0 {
		t.Errorf("cell stats = %d cells, %d timed, busy %v", cs.cells, cs.localCells, cs.busyS)
	}
}
