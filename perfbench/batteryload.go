package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"dsa/internal/engine"
	"dsa/internal/engine/battery"
	"dsa/internal/engine/dist"
	"dsa/internal/experiments"
	"dsa/internal/metrics"
	"dsa/internal/sim"
	"dsa/internal/workload/catalog"
)

// batterySLO is the latency limit slo_frac counts batteries against on
// the battery and dist workloads: about four times the median battery
// on a 2-core host, so it only trips on stalls and gross regressions.
const batterySLO = time.Second

// goldenPath is the paper-exact battery output (seed 0) the serial
// reference must reproduce.
var goldenPath = filepath.Join("internal", "experiments", "testdata", "all_tables.golden")

// seedCycle is how many distinct battery seeds a run cycles through.
// Every seed's serial reference is computed before timing, so this
// bounds the reference cost; workloads still generate cold in every
// battery because each gets a fresh store, and the dist pool is
// restarted (untimed) at each turn of the cycle so its workers'
// catalogs are cold too.
const seedCycle = 12

// batterySeed is the workload seed of battery i mod seedCycle in a
// run: the run's own seed first (so --seed 0 runs the paper-exact
// battery), then seeds derived from it.
func batterySeed(runSeed uint64, i int) uint64 {
	if i == 0 {
		return runSeed
	}
	if s := sim.SeedFor(runSeed, "perfbench/battery/"+strconv.Itoa(i)); s != 0 {
		return s
	}
	return 1
}

// renderBattery runs the whole battery under c and returns its output
// exactly as dsafig prints it. emitted, when non-nil, is called as each
// table leaves the battery.
func renderBattery(c experiments.Config, emitted func()) (string, error) {
	var b strings.Builder
	err := experiments.StreamConfig(context.Background(), c, func(t *metrics.Table) {
		if emitted != nil {
			emitted()
		}
		fmt.Fprintln(&b, t)
	})
	return b.String(), err
}

// serialReferences computes the serial in-process battery output for
// each seed, nproc batteries at a time (each one serial inside).
func serialReferences(seeds []uint64, nproc int) ([]string, error) {
	refs := make([]string, len(seeds))
	errs := make([]error, len(seeds))
	sem := make(chan struct{}, nproc)
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s uint64) {
			defer wg.Done()
			defer func() { <-sem }()
			refs[i], errs[i] = renderBattery(experiments.Config{Parallel: 1, BatteryParallel: 1, Seed: s}, nil)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// setupSink keeps the timed store constructions observable.
var setupSink *catalog.Catalog

// batteryRig is the executor a battery workload runs through.
type batteryRig struct {
	nproc  int
	exec   engine.Executor
	pool   *dist.Pool // dist workload only
	pids   []string   // the pool's worker processes
	closed dist.Stats // counters of pools already restarted away
	prof   *profiles  // running profiles the pool's workers take part in
}

// restartPool replaces the dist pool with a fresh one, carrying the
// worker profiles over.
func (r *batteryRig) restartPool() error {
	if r.prof != nil {
		if err := workerCtl(r.pool, r.pids, "prof-stop", r.prof.dir); err != nil {
			return err
		}
	}
	r.closed = addStats(r.closed, r.pool.Stats())
	r.pool.Close()
	pool, pids, err := newDistPool(r.nproc)
	if err != nil {
		return err
	}
	r.pool, r.pids, r.exec = pool, pids, pool
	if r.prof != nil {
		return workerCtl(r.pool, r.pids, "prof-start", r.prof.dir)
	}
	return nil
}

// distStats sums the counters of every pool the rig has used.
func (r *batteryRig) distStats() dist.Stats {
	if r.pool == nil {
		return r.closed
	}
	return addStats(r.closed, r.pool.Stats())
}

func addStats(a, b dist.Stats) dist.Stats {
	return dist.Stats{Remote: a.Remote + b.Remote, Local: a.Local + b.Local, Crashes: a.Crashes + b.Crashes,
		Respawns: a.Respawns + b.Respawns, Steals: a.Steals + b.Steals}
}

// tracedBattery is what a traced battery records beyond its output.
type tracedBattery struct {
	wall    time.Duration
	spans   []*execSpan
	sweeps  []sweepTiming
	catalog catalog.Stats
}

// runOne runs battery i with a fresh store. With traced set it wraps
// the executor in a timing session and records per-sweep times.
func (r *batteryRig) runOne(seed uint64, traced bool) (string, tracedBattery, error) {
	store := catalog.New()
	c := experiments.Config{Parallel: r.nproc, BatteryParallel: r.nproc, Seed: seed, Store: store, Executor: r.exec}
	var (
		sess  *session
		costs *battery.CostManifest
		emits []time.Time
		emit  func()
	)
	if traced {
		sess = newSession()
		c.Executor = sess.executor(r.exec)
		// An empty manifest records each sweep's wall time. It is empty
		// when the battery starts, so sweeps are fed in declaration
		// order, exactly as in an untraced battery.
		costs = battery.LoadCosts("")
		c.Costs = costs
		emit = func() { emits = append(emits, time.Now()) }
	}
	start := time.Now()
	out, err := renderBattery(c, emit)
	tb := tracedBattery{wall: time.Since(start)}
	if err != nil || !traced {
		return out, tb, err
	}
	tb.spans = sess.spans()
	tb.catalog = store.Stats()
	bySweep := map[string]*execSpan{}
	for _, e := range tb.spans {
		bySweep[e.sweep] = e
	}
	for k, name := range experiments.Names() {
		e, ok := bySweep[name]
		elapsed, known := costs.Cost(name)
		if !ok || !known || k >= len(emits) {
			continue
		}
		// The sweep started just before its one Execute call, so its
		// table was final at about span start + unit elapsed time.
		end := e.start.Add(elapsed)
		tb.sweeps = append(tb.sweeps, sweepTiming{name: name, elapsed: elapsed, end: end, emitted: emits[k], lastCell: e.lastReport()})
	}
	return out, tb, nil
}

// runBatteries measures the battery workload (in-process) or, with
// distributed set, the dist workload (the same batteries through a
// pool of worker processes).
func runBatteries(o opts, distributed bool) (result, error) {
	nproc := runtime.NumCPU()
	m := metricSet{}
	rig := &batteryRig{nproc: nproc}

	// Set-up, several times; the last rig is the one measured.
	var setups []float64
	if distributed {
		for i := 0; i < 7; i++ {
			if rig.pool != nil {
				rig.pool.Close()
			}
			start := time.Now()
			pool, pids, err := newDistPool(nproc)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, time.Since(start).Seconds())
			rig.pool, rig.pids, rig.exec = pool, pids, pool
		}
		defer func() { rig.pool.Close() }()
	} else {
		// Construction takes microseconds: time batches of many, each
		// after a collection so no batch pays for another's garbage, and
		// report the per-construction median over batches.
		const per = 1000
		for i := 0; i < 21; i++ {
			runtime.GC()
			start := time.Now()
			for j := 0; j < per; j++ {
				rig.exec, setupSink = battery.NewPool(nproc), catalog.New()
			}
			setups = append(setups, time.Since(start).Seconds()/per)
		}
	}

	// Serial references for every seed of the cycle, before any timing;
	// then one untimed battery warms the process and the workers.
	seeds := make([]uint64, seedCycle)
	for i := range seeds {
		seeds[i] = batterySeed(o.seed, i)
	}
	refs, err := serialReferences(seeds, nproc)
	if err != nil {
		return result{}, err
	}
	warmOut, _, err := rig.runOne(seeds[0], false)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true}
	// check verifies battery i's output and reports whether it matched.
	check := func(i int, out string) bool {
		res.Attempted++
		if out == refs[i%seedCycle] {
			return true
		}
		res.Failed++
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: battery %d (seed %d) differs from the serial reference\n", i, seeds[i%seedCycle])
		return false
	}
	if o.seed == 0 {
		golden, err := os.ReadFile(goldenPath)
		if err != nil {
			return result{}, fmt.Errorf("reading the golden battery: %w", err)
		}
		res.Attempted++
		if refs[0] != string(golden) {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: serial reference at seed 0 differs from %s\n", goldenPath)
		}
	}
	check(0, warmOut)

	// measure runs batteries back to back (closed loop) for d and
	// returns their wall times and how many of them met batterySLO with
	// correct output.
	next := 1
	measure := func(d time.Duration, traced bool, each func(tracedBattery)) ([]float64, int, error) {
		var walls []float64
		within := 0
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			i := next
			next++
			if rig.pool != nil && i%seedCycle == 0 {
				if err := rig.restartPool(); err != nil {
					return nil, 0, err
				}
			}
			out, tb, err := rig.runOne(seeds[i%seedCycle], traced)
			if err != nil {
				return nil, 0, err
			}
			if check(i, out) && tb.wall <= batterySLO {
				within++
			}
			walls = append(walls, tb.wall.Seconds())
			if each != nil {
				each(tb)
			}
		}
		return walls, within, nil
	}
	window := time.Duration(o.seconds * float64(time.Second))

	if !o.trace {
		walls, within, err := measure(window, false, nil)
		if err != nil {
			return result{}, err
		}
		m.set("setup_s", "s", median(setups))
		m.set("latency_p50_s", "s", hdQuantile(walls, 0.5))
		m.set("latency_p90_s", "s", hdQuantile(walls, 0.9))
		m.set("slo_frac", "frac", ratio(float64(within), float64(len(walls))))
		refs = nil
		m.set("heap_live_mb", "MB", liveHeapMB())
		fmt.Fprintf(os.Stderr, "perfbench: %d batteries measured\n", len(walls))
		res.Metrics = m
		return res, nil
	}

	// Traced run: untraced quarters around a traced half with the timing
	// executor and CPU profiles on, so a linear drift over the run
	// cancels out of trace.overhead_frac.
	untraced, _, err := measure(window/4, false, nil)
	if err != nil {
		return result{}, err
	}
	prof, err := startProfiles(o.buildDir, rig)
	if err != nil {
		return result{}, err
	}
	before, ctlBefore := rig.distStats(), ctlCells.Load()
	var tbs []tracedBattery
	traced, _, err := measure(window/2, true, func(tb tracedBattery) { tbs = append(tbs, tb) })
	if err != nil {
		prof.stop()
		return result{}, err
	}
	st, ctl := rig.distStats(), ctlCells.Load()-ctlBefore
	cpu, err := prof.stop()
	if err != nil {
		return result{}, err
	}
	after, _, err := measure(window/4, false, nil)
	if err != nil {
		return result{}, err
	}
	untraced = append(untraced, after...)
	cpuShares(cpu, m)
	batteryLayers(m, tbs, nproc)
	nb := float64(len(tbs))
	m.set("dist.cells_remote", "count", float64(st.Remote-before.Remote-int(ctl))/nb)
	m.set("dist.cells_local", "count", float64(st.Local-before.Local)/nb)
	m.set("dist.steals", "count", float64(st.Steals-before.Steals)/nb)
	m.set("dist.crashes", "count", float64(st.Crashes-before.Crashes))
	serveLayers(m, &servePhase{})
	m.set("trace.overhead_frac", "frac", hdQuantile(traced, 0.5)/hdQuantile(untraced, 0.5)-1)
	m.set("fail_frac", "frac", ratio(float64(res.Failed), float64(res.Attempted)))
	res.Metrics = m
	return res, nil
}

// batteryLayers derives the engine, battery and catalog metrics of a
// traced battery run.
func batteryLayers(m metricSet, tbs []tracedBattery, nproc int) {
	var cs cellStats
	var busyFrac, achieved, ideal, critical, tails, lags []float64
	perSweep := map[string][]float64{}
	var gens, hits, disk, lookups float64
	for _, tb := range tbs {
		ran := cs.add(tb.spans)
		wall := tb.wall.Seconds()
		if k := len(cs.busyS); ran {
			a, i := speedups(cs.busyS[k-1], cs.maxRunMS[k-1]/1000, wall, nproc)
			busyFrac = append(busyFrac, cs.busyS[k-1]/(wall*float64(nproc)))
			achieved, ideal = append(achieved, a), append(ideal, i)
		}
		longestSweep := 0.0
		for _, s := range tb.sweeps {
			e := ms(s.elapsed)
			perSweep[s.name] = append(perSweep[s.name], e)
			if e > longestSweep {
				longestSweep = e
			}
			tails = append(tails, clampMS(s.end.Sub(s.lastCell)))
			lags = append(lags, clampMS(s.emitted.Sub(s.end)))
		}
		critical = append(critical, longestSweep)
		gens += float64(tb.catalog.Generations)
		hits += float64(tb.catalog.Hits)
		disk += float64(tb.catalog.DiskHits)
	}
	nb := float64(len(tbs))
	lookups = gens + hits + disk
	engineLayers(m, &cs, nb)
	m.set("engine.sweep_tail_ms", "ms", median(tails))
	for _, name := range experiments.Names() {
		m.set("battery."+name+"_ms", "ms", median(perSweep[name]))
	}
	m.set("battery.critical_path_ms", "ms", median(critical))
	m.set("battery.core_busy_frac", "frac", median(busyFrac))
	m.set("battery.achieved_speedup", "x", median(achieved))
	m.set("battery.ideal_speedup", "x", median(ideal))
	m.set("battery.emit_lag_ms", "ms", mean(lags))
	m.set("battery.count", "count", nb)
	m.set("catalog.generations", "count", ratio(gens, nb))
	m.set("catalog.hits", "count", ratio(hits, nb))
	m.set("catalog.disk_hits", "count", ratio(disk, nb))
	m.set("catalog.hit_ratio", "frac", ratio(hits+disk, lookups))
	printJSON(map[string]interface{}{"critical_path": map[string]interface{}{
		"nproc":               nproc,
		"batteries":           len(tbs),
		"longest_cell":        cs.longestKey,
		"longest_cell_ms":     cs.longestMS,
		"cell_floor_ms":       median(cs.maxRunMS),
		"longest_sweep_ms":    median(critical),
		"battery_ms":          1000 * median(wallsOf(tbs)),
		"achieved_speedup":    median(achieved),
		"ideal_speedup":       median(ideal),
		"cells_timed_locally": cs.localCells,
	}})
}

// engineLayers sets the engine.* and dist.report metrics from cell
// spans; per is the number of batteries or jobs the cells belong to.
func engineLayers(m metricSet, cs *cellStats, per float64) {
	m.set("engine.cells", "count", ratio(float64(cs.cells), per))
	m.set("engine.cell_busy_s", "s", median(cs.busyS))
	m.set("engine.cell_run_p50_ms", "ms", median(cs.runMS))
	m.set("engine.cell_run_p99_ms", "ms", quantile(cs.runMS, 0.99))
	m.set("engine.cell_run_max_ms", "ms", median(cs.maxRunMS))
	m.set("engine.cell_wait_p50_ms", "ms", median(cs.waitMS))
	m.set("dist.report_p50_ms", "ms", median(cs.reportMS))
}

// speedups returns the achieved speedup of a battery or job, Σ cell
// run ÷ wall, and the ideal one, Σ cell run ÷ max(Σ cell run ÷ nproc,
// longest cell): the longest cell is the critical-path floor.
func speedups(busy, longest, wall float64, nproc int) (achieved, ideal float64) {
	floor := busy / float64(nproc)
	if longest > floor {
		floor = longest
	}
	return ratio(busy, wall), ratio(busy, floor)
}

func wallsOf(tbs []tracedBattery) []float64 {
	out := make([]float64, len(tbs))
	for i, tb := range tbs {
		out[i] = tb.wall.Seconds()
	}
	return out
}

func clampMS(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return ms(d)
}

// liveHeapMB is the live heap after full collections; the second one
// empties the sync.Pool victim caches the first one filled.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / 1e6
}

// profiles is a running CPU profile of this process and, for the dist
// workload, of every worker process.
type profiles struct {
	dir  string
	file *os.File
	rig  *batteryRig
}

func startProfiles(dir string, rig *batteryRig) (*profiles, error) {
	dir, err := filepath.Abs(filepath.Join(dir, "profiles"))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "main.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p := &profiles{dir: dir, file: f, rig: rig}
	if rig != nil && rig.pool != nil {
		if err := workerCtl(rig.pool, rig.pids, "prof-start", dir); err != nil {
			p.stop()
			return nil, err
		}
		rig.prof = p
	}
	return p, nil
}

// stop ends every profile and returns the merged samples per layer.
func (p *profiles) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	if err := p.file.Close(); err != nil {
		return nil, err
	}
	if p.rig != nil && p.rig.prof == p {
		p.rig.prof = nil
		if err := workerCtl(p.rig.pool, p.rig.pids, "prof-stop", p.dir); err != nil {
			return nil, err
		}
	}
	// Every worker the profiled window saw, across pool restarts.
	workers, err := filepath.Glob(filepath.Join(p.dir, "worker-*.pprof"))
	if err != nil {
		return nil, err
	}
	paths := append([]string{p.file.Name()}, workers...)
	counts := map[string]int64{}
	for _, path := range paths {
		if err := attributeFile(path, counts); err != nil {
			return nil, err
		}
	}
	return counts, nil
}
