package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dsa/internal/metrics"
)

// num parses a table cell as float.
func num(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(row[col]), 64)
	if err != nil {
		t.Fatalf("cell %d = %q not numeric: %v", col, row[col], err)
	}
	return v
}

func TestFig1AllNamesTranslate(t *testing.T) {
	tb, err := Fig1ArtificialContiguity()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tb.Rows))
	}
	last := tb.Rows[len(tb.Rows)-1]
	if !strings.Contains(last[3], "0 translation errors") {
		t.Errorf("verification row = %v", last)
	}
	if !strings.Contains(last[4], "0/7") {
		t.Errorf("blocks unexpectedly adjacent: %v", last)
	}
}

func TestFig2MappingCostsOneCycle(t *testing.T) {
	tb, err := Fig2SimpleMapping()
	if err != nil {
		t.Fatal(err)
	}
	if got := num(t, tb.Rows[0], 3); got != 0 {
		t.Errorf("unmapped cost = %g, want 0", got)
	}
	if got := num(t, tb.Rows[1], 3); got != 1 {
		t.Errorf("mapped cost = %g, want 1", got)
	}
}

func TestFig3WaitFractionMonotoneInFetchTime(t *testing.T) {
	tb, err := Fig3SpaceTime()
	if err != nil {
		t.Fatal(err)
	}
	// First five rows: fetch-time sweep at fixed frames. Total
	// space-time must strictly grow with fetch time.
	prev := -1.0
	for i := 0; i < 5; i++ {
		total := num(t, tb.Rows[i], 6)
		if total <= prev {
			t.Errorf("row %d: space-time %g not increasing", i, total)
		}
		prev = total
	}
	// Slowest fetch: waiting dominates (the Figure 3 regime).
	if wf := num(t, tb.Rows[4], 5); wf < 0.99 {
		t.Errorf("slowest-fetch wait fraction %g, want ≈1", wf)
	}
	// Frame sweep: more frames → fewer faults.
	prevFaults := 1e18
	for i := 5; i < 9; i++ {
		f := num(t, tb.Rows[i], 2)
		if f >= prevFaults {
			t.Errorf("row %d: faults %g not decreasing with frames", i, f)
		}
		prevFaults = f
	}
}

func TestFig4TLBRecoversAddressingOverhead(t *testing.T) {
	tb, err := Fig4TwoLevelMapping()
	if err != nil {
		t.Fatal(err)
	}
	// Hit ratio must be nondecreasing with TLB size; relative cost
	// nonincreasing.
	prevHit, prevRel := -1.0, 2.0
	for i, row := range tb.Rows {
		hit := num(t, row, 1)
		rel := num(t, row, 4)
		if hit < prevHit {
			t.Errorf("row %d: hit ratio %g decreased", i, hit)
		}
		if rel > prevRel+1e-9 {
			t.Errorf("row %d: relative cost %g increased", i, rel)
		}
		prevHit, prevRel = hit, rel
	}
	// The B8500's 44 registers must recover most of the overhead.
	if rel := num(t, tb.Rows[len(tb.Rows)-1], 4); rel > 0.3 {
		t.Errorf("44-register relative cost %g, want < 0.3", rel)
	}
}

func TestT1MINIsLowerBound(t *testing.T) {
	tb, err := T1Replacement()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		min := num(t, row, 2)
		for col := 3; col <= 8; col++ {
			if got := num(t, row, col); got < min {
				t.Errorf("%s/%s: %s faults %g < MIN %g",
					row[0], row[1], tb.Header[col], got, min)
			}
		}
	}
}

func TestT1LearningWinsOnLoop(t *testing.T) {
	tb, err := T1Replacement()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if !strings.HasPrefix(row[0], "loop") || row[1] != "8" {
			continue
		}
		lru := num(t, row, 3)
		learning := num(t, row, 8)
		if learning >= lru {
			t.Errorf("loop/8: learning %g not better than LRU %g", learning, lru)
		}
		return
	}
	t.Fatal("loop row not found")
}

func TestT1LRUBeatsFIFOOnWorkingSet(t *testing.T) {
	tb, err := T1Replacement()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[0] != "working-set" {
			continue
		}
		lru, fifo := num(t, row, 3), num(t, row, 5)
		if lru > fifo {
			t.Errorf("working-set/%s: LRU %g worse than FIFO %g", row[1], lru, fifo)
		}
	}
}

func TestT2FirstFitBeatsWorstFit(t *testing.T) {
	tb, err := T2Placement()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string][]string{}
	for _, row := range tb.Rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	for _, dist := range []string{"uniform", "exponential", "bimodal"} {
		ff := num(t, byKey[dist+"/first-fit"], 3)
		wf := num(t, byKey[dist+"/worst-fit"], 3)
		if ff > wf {
			t.Errorf("%s: first-fit frag failures %g > worst-fit %g", dist, ff, wf)
		}
	}
	// Next-fit must search far less than best-fit.
	nf := num(t, byKey["uniform/next-fit"], 6)
	bf := num(t, byKey["uniform/best-fit"], 6)
	if nf*5 > bf {
		t.Errorf("next-fit probes %g not ≪ best-fit %g", nf, bf)
	}
}

func TestT3WasteGrowsTableShrinks(t *testing.T) {
	tb, err := T3UnitSize()
	if err != nil {
		t.Fatal(err)
	}
	prevWaste, prevTable := -1.0, 1e18
	for i := 0; i < 7; i++ { // the page-size sweep rows
		waste := num(t, tb.Rows[i], 4)
		table := num(t, tb.Rows[i], 2)
		if waste <= prevWaste {
			t.Errorf("row %d: waste frac %g not increasing", i, waste)
		}
		if table >= prevTable {
			t.Errorf("row %d: table words %g not decreasing", i, table)
		}
		prevWaste, prevTable = waste, table
	}
	// Variable units: zero internal waste, nonzero external frag.
	last := tb.Rows[len(tb.Rows)-1]
	if num(t, last, 4) != 0 {
		t.Errorf("variable-unit internal waste %v != 0", last[4])
	}
	if num(t, last, 5) <= 0 {
		t.Errorf("variable-unit external frag %v not positive", last[5])
	}
}

func TestT4AllSevenMachines(t *testing.T) {
	tb, err := T4Machines()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tb.Rows))
	}
	names := map[string]bool{}
	for _, row := range tb.Rows {
		names[row[0]] = true
		if f := num(t, row, 3); f <= 0 {
			t.Errorf("%s: no fetches", row[0])
		}
	}
	for _, want := range []string{"ATLAS", "M44/44X", "B5000", "Rice", "B8500", "MULTICS", "360/67"} {
		if !names[want] {
			t.Errorf("machine %s missing", want)
		}
	}
}

func TestT5AdviceOrdering(t *testing.T) {
	tb, err := T5Predictive()
	if err != nil {
		t.Fatal(err)
	}
	demand := num(t, tb.Rows[0], 5) // space-time total
	accurate := num(t, tb.Rows[1], 5)
	wrong := num(t, tb.Rows[2], 5)
	if accurate >= demand {
		t.Errorf("accurate advice space-time %g not better than demand %g", accurate, demand)
	}
	if wrong <= accurate {
		t.Errorf("wrong advice space-time %g not worse than accurate %g", wrong, accurate)
	}
	if p := num(t, tb.Rows[1], 2); p == 0 {
		t.Error("accurate advice produced no prefetches")
	}
}

func TestT6DualReducesWaste(t *testing.T) {
	tb, err := T6DualPageSize()
	if err != nil {
		t.Fatal(err)
	}
	w64 := num(t, tb.Rows[0], 3)
	w1024 := num(t, tb.Rows[1], 3)
	dual := num(t, tb.Rows[2], 3)
	if dual > w64 {
		t.Errorf("dual waste %g > 64-only %g", dual, w64)
	}
	if dual >= w1024 {
		t.Errorf("dual waste %g not ≪ 1024-only %g", dual, w1024)
	}
	// Dual needs far fewer table entries than 64-only.
	p64 := num(t, tb.Rows[0], 1)
	pDual := num(t, tb.Rows[2], 1)
	if pDual*2 > p64 {
		t.Errorf("dual pages %g not ≪ 64-only %g", pDual, p64)
	}
}

func TestT7SymbolicNeverFails(t *testing.T) {
	tb, err := T7NameSpace()
	if err != nil {
		t.Fatal(err)
	}
	linFail := num(t, tb.Rows[0], 3)
	symFail := num(t, tb.Rows[1], 3)
	if linFail <= 0 {
		t.Error("linear dictionary never failed — churn too gentle")
	}
	if symFail != 0 {
		t.Errorf("symbolic dictionary failures %g, want 0", symFail)
	}
	linProbes := num(t, tb.Rows[0], 2)
	symProbes := num(t, tb.Rows[1], 2)
	if symProbes*5 > linProbes {
		t.Errorf("symbolic bookkeeping %g not ≪ linear %g", symProbes, linProbes)
	}
}

func TestT8RiseThenCollapse(t *testing.T) {
	tb, err := T8Overlap()
	if err != nil {
		t.Fatal(err)
	}
	first := num(t, tb.Rows[0], 3)
	peak := 0.0
	for _, row := range tb.Rows {
		if u := num(t, row, 3); u > peak {
			peak = u
		}
	}
	last := num(t, tb.Rows[len(tb.Rows)-1], 3)
	if peak <= first {
		t.Errorf("multiprogramming never improved utilization: first %g, peak %g", first, peak)
	}
	if last >= peak*0.8 {
		t.Errorf("no thrashing collapse: last %g vs peak %g", last, peak)
	}
}

func TestAllRuns(t *testing.T) {
	tables, err := runTables(Config{})
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

func TestT8bTraceDrivenOverlapRises(t *testing.T) {
	tb, err := T8OverlapTraced()
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i, row := range tb.Rows {
		u := num(t, row, 4)
		if u <= prev {
			t.Errorf("row %d: utilization %g not increasing", i, u)
		}
		prev = u
	}
}

func TestA1ReserveCutsWaiting(t *testing.T) {
	tb, err := A1ReserveFrames()
	if err != nil {
		t.Fatal(err)
	}
	wait0 := num(t, tb.Rows[0], 3)
	wait1 := num(t, tb.Rows[1], 3)
	if wait1 >= wait0 {
		t.Errorf("reserve=1 waiting %g not below reserve=0 %g", wait1, wait0)
	}
	if num(t, tb.Rows[1], 2) == 0 {
		t.Error("no reserve evictions with reserve=1")
	}
}

func TestA2DeferredLeavesMoreFreeBlocks(t *testing.T) {
	tb, err := A2Coalescing()
	if err != nil {
		t.Fatal(err)
	}
	immBlocks := num(t, tb.Rows[0], 5)
	defBlocks := num(t, tb.Rows[1], 5)
	if defBlocks <= immBlocks {
		t.Errorf("deferred free blocks %g not above immediate %g", defBlocks, immBlocks)
	}
	immProbes := num(t, tb.Rows[0], 4)
	defProbes := num(t, tb.Rows[1], 4)
	if defProbes <= immProbes {
		t.Errorf("deferred probes %g not above immediate %g", defProbes, immProbes)
	}
}

func TestA3CompactionTradesMovesForEvictions(t *testing.T) {
	tb, err := A3Compaction()
	if err != nil {
		t.Fatal(err)
	}
	evictNo := num(t, tb.Rows[0], 2)
	evictYes := num(t, tb.Rows[1], 2)
	movedYes := num(t, tb.Rows[1], 4)
	if evictYes > evictNo {
		t.Errorf("compaction increased evictions: %g > %g", evictYes, evictNo)
	}
	if movedYes == 0 {
		t.Error("compaction moved no words")
	}
	if num(t, tb.Rows[0], 3) != 0 {
		t.Error("compactions recorded with compaction disabled")
	}
}

func TestA4UtilizationFallsWithRequestSize(t *testing.T) {
	tb, err := A4WaldUtilization()
	if err != nil {
		t.Fatal(err)
	}
	first := num(t, tb.Rows[0], 1)
	last := num(t, tb.Rows[len(tb.Rows)-1], 1)
	if first < 0.99 {
		t.Errorf("tiny-request utilization %g, want ≈1 (Wald)", first)
	}
	if last >= first {
		t.Errorf("large-request utilization %g not below %g", last, first)
	}
	// Fifty-percent rule: ratio near 0.5 throughout.
	for i, row := range tb.Rows {
		r := num(t, row, 3)
		if r < 0.3 || r > 0.8 {
			t.Errorf("row %d: free/allocated block ratio %g far from 0.5", i, r)
		}
	}
}

func TestA5FlushesDegradeTLB(t *testing.T) {
	tb, err := A5TLBFlush()
	if err != nil {
		t.Fatal(err)
	}
	never := num(t, tb.Rows[0], 1)
	frequent := num(t, tb.Rows[len(tb.Rows)-1], 1)
	if frequent >= never {
		t.Errorf("frequent flushes hit ratio %g not below %g", frequent, never)
	}
	neverCost := num(t, tb.Rows[0], 2)
	frequentCost := num(t, tb.Rows[len(tb.Rows)-1], 2)
	if frequentCost <= neverCost {
		t.Errorf("frequent flushes cost %g not above %g", frequentCost, neverCost)
	}
}

func TestA6TLBCutsElapsed(t *testing.T) {
	tb, err := A6SegmentedPaging()
	if err != nil {
		t.Fatal(err)
	}
	none := num(t, tb.Rows[0], 4)
	best := num(t, tb.Rows[len(tb.Rows)-1], 4)
	if best >= none {
		t.Errorf("44-register elapsed %g not below no-TLB %g", best, none)
	}
	// Faults must not depend on the TLB (it is a pure accelerator).
	f0 := num(t, tb.Rows[0], 2)
	for i, row := range tb.Rows {
		if num(t, row, 2) != f0 {
			t.Errorf("row %d: fault count changed with TLB size", i)
		}
	}
}

func TestT0DynamicBeatsStaticOverlays(t *testing.T) {
	tb, err := T0Overlay()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	allResident := num(t, tb.Rows[0], 1)
	planned := num(t, tb.Rows[1], 1)
	if planned >= allResident {
		t.Errorf("worst-case plan %g not below all-resident %g", planned, allResident)
	}
	staticWords := num(t, tb.Rows[1], 3)
	dynWords := num(t, tb.Rows[2], 3)
	if dynWords >= staticWords {
		t.Errorf("dynamic transferred %g, static %g — dynamic should adapt better", dynWords, staticWords)
	}
	staticLoads := num(t, tb.Rows[1], 2)
	dynLoads := num(t, tb.Rows[2], 2)
	if dynLoads >= staticLoads {
		t.Errorf("dynamic loads %g not below static %g", dynLoads, staticLoads)
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

// runTables runs the named experiments (the full battery when none) as
// one battery under c and collects their tables.
func runTables(c Config, names ...string) ([]*metrics.Table, error) {
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
