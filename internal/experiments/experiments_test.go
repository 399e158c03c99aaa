package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsa/internal/metrics"
)

func TestAllRuns(t *testing.T) {
	tables, err := collectTables(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 20 {
		t.Fatalf("tables = %d, want 20", len(tables))
	}
	for i, tb := range tables {
		if tb.Title == "" || len(tb.Rows) == 0 {
			t.Errorf("table %d empty", i)
		}
		if tb.String() == "" {
			t.Errorf("table %d renders empty", i)
		}
	}
}

// render runs the named experiments (the full battery when none) as
// one battery under c and renders every table the way cmd/dsafig
// prints them.
func render(t *testing.T, c Config, names ...string) string {
	t.Helper()
	var b strings.Builder
	if err := StreamConfig(context.Background(), c, func(tb *metrics.Table) { fmt.Fprintln(&b, tb) }, names...); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// collectTables runs the named experiments (the full battery when
// none) as one battery under c and collects their tables.
func collectTables(c Config, names ...string) ([]*metrics.Table, error) {
	var out []*metrics.Table
	err := StreamConfig(context.Background(), c, func(tb *metrics.Table) { out = append(out, tb) }, names...)
	return out, err
}

// TestAllMatchesSerialGolden pins every table value against the golden
// output captured from the pre-engine serial implementation: the
// concurrent engine must change nothing about the science.
func TestAllMatchesSerialGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "all_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := render(t, Config{Parallel: 8})
	if got != string(want) {
		t.Errorf("engine output diverged from serial golden baseline\n"+
			"got %d bytes, want %d bytes\nfirst divergence: %s",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// TestAllDeterministicAcrossParallelism asserts byte-identical
// aggregated tables at parallel=1 and parallel=8 — scheduling must
// never leak into results.
func TestAllDeterministicAcrossParallelism(t *testing.T) {
	serial := render(t, Config{Parallel: 1})
	parallel := render(t, Config{Parallel: 8})
	if serial != parallel {
		t.Errorf("parallel=8 diverged from parallel=1\nfirst divergence: %s",
			firstDiff(parallel, serial))
	}
}

// TestNonzeroSeedExploresNewScenario: a nonzero base seed must move
// the stochastic workloads (fresh scenario) while remaining
// reproducible run to run.
func TestNonzeroSeedExploresNewScenario(t *testing.T) {
	run := func(seed uint64) string { return render(t, Config{Parallel: 4, Seed: seed}, "t1") }
	base := run(0)
	alt := run(99)
	if alt == base {
		t.Error("seed 99 reproduced the seed-0 scenario")
	}
	if again := run(99); again != alt {
		t.Error("seed 99 not reproducible across runs")
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d lines", len(g), len(w))
}
