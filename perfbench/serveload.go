package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dsa/internal/engine/battery"
	"dsa/internal/experiments"
	"dsa/internal/metrics"
	"dsa/internal/serve"
	"dsa/internal/sim"
	"dsa/internal/workload/catalog"
)

const (
	// serveRate is the serve workload's open-loop arrival rate: a
	// quarter of the rate at which lateness climbs on a 2-core host,
	// where run-to-run spread stays inside the latency bounds
	// (README.md records the calibration).
	serveRate = 4.0
	// serveSLO is the per-job latency limit slo_frac counts against.
	serveSLO = 500 * time.Millisecond
	// serveTenants is the number of tenants jobs are spread over.
	serveTenants = 4
	// reuseLag is how long before a repeat or reseed job its target was
	// due, so the target has normally completed.
	reuseLag = time.Second
)

// freshNames is the sweep a fresh serve job submits: the battery's
// small sweeps, so admission, streaming and the result cache carry a
// large share of each job.
var freshNames = []string{"t0", "t2", "t3", "t5", "t7", "a2", "a4", "fig3"}

// scenarioPath is the declarative sweep upload jobs submit.
var scenarioPath = filepath.Join("examples", "scenarios", "t2-mirror.toml")

type jobKind int

const (
	kindFresh  jobKind = iota // new seed, freshNames
	kindRepeat                // exact resubmission of an earlier job
	kindReseed                // one sweep at an earlier fresh job's seed
	kindUpload                // the scenario file at a new seed
)

var kindNames = [...]string{"fresh", "repeat", "reseed", "upload"}

// plannedJob is one submission of the serve workload, fixed by the
// run's seed before any timing starts.
type plannedJob struct {
	due    time.Duration // offset from the start of the load
	kind   jobKind
	tenant string
	names  []string
	upload bool
	seed   uint64
	of     int // repeat and reseed: the earlier job reused
}

// planJobs draws the open-loop schedule: serveRate×window jobs with
// Poisson-process arrival times (independent uniform times over the
// window, sorted: a Poisson process conditioned on its count), and the
// job mix exactly 50% fresh, 25% repeat, 15% reseed (one of the
// fresh job's sweeps at an earlier fresh job's seed) and 10% upload,
// dealt in random order. Fixing the count and the mix keeps runs of
// different seeds comparable; the seed still moves every arrival,
// kind, tenant and workload seed. A repeat or reseed dealt before any
// target is due reuseLag earlier trades kinds with the next later
// fresh or upload job.
func planJobs(seed uint64, window time.Duration) []plannedJob {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	n := int(serveRate*window.Seconds() + 0.5)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	kinds := make([]jobKind, n)
	for i := range kinds {
		switch f := float64(i) / float64(n); {
		case f < 0.5:
			kinds[i] = kindFresh
		case f < 0.75:
			kinds[i] = kindRepeat
		case f < 0.9:
			kinds[i] = kindReseed
		default:
			kinds[i] = kindUpload
		}
	}
	rng.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	// Reseeds cycle through freshNames in a shuffled order, so every run
	// re-runs each sweep about equally often.
	deck := rng.Perm(len(freshNames))
	reseeds := 0

	jobs := make([]plannedJob, 0, n)
	for i, due := range dues {
		targets := func(k jobKind) []int {
			var out []int
			for t := range jobs {
				if jobs[t].due > due-reuseLag {
					break
				}
				if k == kindRepeat && jobs[t].kind != kindRepeat || k == kindReseed && jobs[t].kind == kindFresh {
					out = append(out, t)
				}
			}
			return out
		}
		if k := kinds[i]; k == kindRepeat || k == kindReseed {
			if len(targets(k)) == 0 {
				for t := i + 1; t < n; t++ {
					if kinds[t] == kindFresh || kinds[t] == kindUpload {
						kinds[i], kinds[t] = kinds[t], kinds[i]
						break
					}
				}
			}
		}
		j := plannedJob{due: due, kind: kinds[i], tenant: "tenant-" + strconv.Itoa(rng.IntN(serveTenants)), of: -1}
		switch j.kind {
		case kindRepeat, kindReseed:
			ts := targets(j.kind)
			if len(ts) == 0 { // no fresh or upload job left to trade with
				j.kind = kindFresh
				j.names, j.seed = freshNames, serveSeed(seed, i)
				break
			}
			j.of = ts[rng.IntN(len(ts))]
			if j.kind == kindRepeat {
				prev := jobs[j.of]
				j.names, j.upload, j.seed = prev.names, prev.upload, prev.seed
			} else {
				j.names, j.seed = []string{freshNames[deck[reseeds%len(deck)]]}, jobs[j.of].seed
				reseeds++
			}
		case kindUpload:
			j.upload, j.seed = true, serveSeed(seed, i)
		default:
			j.names, j.seed = freshNames, serveSeed(seed, i)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func serveSeed(runSeed uint64, i int) uint64 {
	if s := sim.SeedFor(runSeed, "perfbench/serve/"+strconv.Itoa(i)); s != 0 {
		return s
	}
	return 1
}

// clock is the open-loop generator's time source; tests inject one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop fires job i at start+dues[i] regardless of how earlier jobs
// fare, each on its own goroutine, and returns once every fired job has
// returned. fire receives the time the job was due as well as the time
// the generator fired it: latency is timed from due, so a stalled
// generator shows as latency, and fired-due is the generator's
// lateness.
func openLoop(clk clock, dues []time.Duration, fire func(i int, due, fired time.Time)) {
	start := clk.Now()
	var wg sync.WaitGroup
	for i, d := range dues {
		due := start.Add(d)
		if w := due.Sub(clk.Now()); w > 0 {
			clk.Sleep(w)
		}
		wg.Add(1)
		go func(i int, due, fired time.Time) {
			defer wg.Done()
			fire(i, due, fired)
		}(i, due, clk.Now())
	}
	wg.Wait()
}

// jobRecord is one job's observed timeline and output.
type jobRecord struct {
	due       time.Time
	fired     time.Time // the generator launched the job
	sent      time.Time // the submission got a connection
	posted    time.Time // the submission's response arrived
	firstByte time.Time
	lastByte  time.Time
	cached    bool
	names     []string // resolved by the daemon
	body      []byte
	err       error
	wrong     bool // err is wrong output, not a refusal or broken stream
}

func (r *jobRecord) latency() time.Duration { return r.lastByte.Sub(r.due) }

// genLate is how late the generator fired the job; sendLate adds the
// wait for one of the client's connections.
func (r *jobRecord) genLate() time.Duration  { return r.fired.Sub(r.due) }
func (r *jobRecord) sendLate() time.Duration { return r.sent.Sub(r.due) }

// daemon is a serve.Server behind a loopback http.Server.
type daemon struct {
	srv   *serve.Server
	hs    *http.Server
	store *catalog.Catalog
	base  string
	done  chan struct{}
}

// startDaemon brings a daemon up and returns once /healthz answers 200.
func startDaemon(runner func(store *catalog.Catalog, costs *battery.CostManifest) serve.Runner) (*daemon, error) {
	d := &daemon{store: catalog.New(), done: make(chan struct{})}
	costs := battery.LoadCosts("")
	o := serve.Options{Store: d.store, Costs: costs}
	if runner != nil {
		o.Runner = runner(d.store, costs)
	}
	d.srv = serve.New(o)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln)
	}()
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.close()
	return nil, errors.New("serve: /healthz never answered 200")
}

func (d *daemon) close() {
	d.hs.Close()
	d.srv.Close()
	<-d.done
}

// stats reads the daemon's /stats counters.
func (d *daemon) stats(c *http.Client) (map[string]interface{}, error) {
	resp, err := c.Get(d.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st map[string]interface{}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// submit runs one job against the daemon: POST /sweeps, then GET the
// job's stream to its last byte.
func submit(ctx context.Context, c *http.Client, base string, j plannedJob, scenarioSrc string, rec *jobRecord) {
	req := map[string]interface{}{"seed": j.seed}
	if len(j.names) > 0 {
		req["experiments"] = j.names
	}
	if j.upload {
		req["scenario"] = scenarioSrc
		req["scenario_file"] = filepath.Base(scenarioPath)
	}
	body, _ := json.Marshal(req)
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) {
		if rec.sent.IsZero() {
			rec.sent = time.Now()
		}
	}}
	hreq, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), "POST", base+"/sweeps", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Tenant", j.tenant)
	resp, err := c.Do(hreq)
	if err != nil {
		rec.err = err
		return
	}
	var sub struct {
		ID          string   `json:"id"`
		Cached      bool     `json:"cached"`
		Experiments []string `json:"experiments"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	rec.posted = time.Now()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		rec.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return
	}
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return
	}
	rec.cached, rec.names = sub.Cached, sub.Experiments

	sreq, err := http.NewRequestWithContext(ctx, "GET", base+"/sweeps/"+sub.ID+"/stream", nil)
	if err != nil {
		rec.err = err
		return
	}
	resp, err = c.Do(sreq)
	if err != nil {
		rec.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("stream: HTTP %d", resp.StatusCode)
		return
	}
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if rec.firstByte.IsZero() {
				rec.firstByte = time.Now()
			}
			rec.body = append(rec.body, buf[:n]...)
		}
		if err == io.EOF {
			rec.lastByte = time.Now()
			return
		}
		if err != nil {
			rec.err = fmt.Errorf("stream: %w", err)
			return
		}
	}
}

// tracedJob is one runner invocation of a traced daemon.
type tracedJob struct {
	names []string
	start time.Time
	end   time.Time
	emits []time.Time
	spans []*execSpan
}

// tracedRunner is the daemon's default runner — the experiments battery
// under the job's config, each table printed as the CLI prints it —
// with the tenant executor wrapped in a timing session.
type tracedRunner struct {
	mu   sync.Mutex
	jobs []tracedJob
}

func (tr *tracedRunner) runner(store *catalog.Catalog, costs *battery.CostManifest) serve.Runner {
	return func(ctx context.Context, run serve.Run, emit func([]byte)) error {
		sess := newSession()
		tj := tracedJob{names: run.Names, start: time.Now()}
		err := experiments.StreamConfig(ctx, experiments.Config{
			Seed:     run.Seed,
			Store:    store,
			Executor: sess.executor(run.Executor),
			Costs:    costs,
		}, func(t *metrics.Table) {
			tj.emits = append(tj.emits, time.Now())
			emit([]byte(t.String() + "\n"))
		}, run.Names...)
		tj.end = time.Now()
		tj.spans = sess.spans()
		tr.mu.Lock()
		tr.jobs = append(tr.jobs, tj)
		tr.mu.Unlock()
		return err
	}
}

// servePhase is one load phase against one daemon.
type servePhase struct {
	jobs      []plannedJob
	recs      []jobRecord
	wall      time.Duration
	heapDelta float64 // live heap growth over the phase, bytes
	stats     map[string]interface{}
	store     catalog.Stats
}

// runPhase plays the job plan against d over at most nproc client
// connections.
func runPhase(d *daemon, plan []plannedJob, scenarioSrc string, nproc int, window time.Duration) (*servePhase, error) {
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	c := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), window+time.Minute)
	defer cancel()

	p := &servePhase{jobs: plan, recs: make([]jobRecord, len(plan))}
	heap0 := liveHeapBytes()
	storeBefore := d.store.Stats()
	dues := make([]time.Duration, len(plan))
	for i, j := range plan {
		dues[i] = j.due
	}
	start := time.Now()
	openLoop(realClock{}, dues, func(i int, due, fired time.Time) {
		p.recs[i].due, p.recs[i].fired = due, fired
		submit(ctx, c, d.base, plan[i], scenarioSrc, &p.recs[i])
	})
	p.wall = time.Since(start)
	p.heapDelta = liveHeapBytes() - heap0
	st, err := d.stats(c)
	if err != nil {
		return nil, err
	}
	p.stats = st
	after := d.store.Stats()
	p.store = catalog.Stats{
		Generations: after.Generations - storeBefore.Generations,
		Hits:        after.Hits - storeBefore.Hits,
		DiskHits:    after.DiskHits - storeBefore.DiskHits,
	}
	return p, nil
}

func liveHeapBytes() float64 { return liveHeapMB() * 1e6 }

// verify applies the correctness gate to a phase: every stream
// complete and free of failure lines, every repeat byte-identical to
// the job it repeats, and a sample of each job kind equal to a serial
// in-process run of the same submission. It returns how many jobs
// failed (refused, broken off, or wrong) and how many of those
// delivered wrong output.
func (p *servePhase) verify() (failed, wrong int) {
	bad := make([]bool, len(p.recs))
	wrongOut := func(r *jobRecord, err error) {
		r.err, r.wrong = err, true
	}
	for i := range p.recs {
		r := &p.recs[i]
		switch {
		case r.err != nil: // refused or broken off: failed, not wrong
		case len(r.body) == 0:
			wrongOut(r, errors.New("empty stream"))
		case bytes.Contains(r.body, []byte("serve: sweep FAILED")):
			wrongOut(r, errors.New("stream reports a failed sweep"))
		}
		bad[i] = r.err != nil
	}
	for i := range p.recs {
		if j := p.jobs[i]; j.kind == kindRepeat && !bad[i] && !bad[j.of] && !bytes.Equal(p.recs[i].body, p.recs[j.of].body) {
			wrongOut(&p.recs[i], fmt.Errorf("repeat differs from job %d", j.of))
			bad[i] = true
		}
	}
	const perKind = 2
	sampled := map[jobKind]int{}
	for i := range p.recs {
		j, r := p.jobs[i], &p.recs[i]
		if bad[i] || j.kind == kindRepeat || sampled[j.kind] >= perKind {
			continue
		}
		sampled[j.kind]++
		// A named job's reference runs the sweeps the job asked for, and
		// the daemon must have resolved the request to exactly those.
		// Only an upload's sweep names come from the daemon alone.
		names := r.names
		if !j.upload {
			if !slices.Equal(r.names, j.names) {
				wrongOut(r, fmt.Errorf("daemon ran %v for a request of %v", r.names, j.names))
				bad[i] = true
				continue
			}
			names = j.names
		}
		var b strings.Builder
		err := experiments.StreamConfig(context.Background(), experiments.Config{Parallel: 1, Seed: j.seed},
			func(t *metrics.Table) { fmt.Fprintln(&b, t) }, names...)
		if err != nil || b.String() != string(r.body) {
			wrongOut(r, fmt.Errorf("%s job differs from the serial in-process run", kindNames[j.kind]))
			bad[i] = true
		}
	}
	for i, b := range bad {
		if !b {
			continue
		}
		failed++
		if p.recs[i].wrong {
			wrong++
		}
		fmt.Fprintf(os.Stderr, "perfbench: serve job %d (%s): %v\n", i, kindNames[p.jobs[i].kind], p.recs[i].err)
	}
	return failed, wrong
}

// latencies returns the latency of every successful job, in seconds,
// and how many jobs finished correctly within serveSLO.
func (p *servePhase) latencies() ([]float64, int) {
	var lat []float64
	within := 0
	for i := range p.recs {
		r := &p.recs[i]
		if r.err != nil {
			continue
		}
		l := r.latency()
		lat = append(lat, l.Seconds())
		if l <= serveSLO {
			within++
		}
	}
	return lat, within
}

// runServe measures the serve workload.
func runServe(o opts) (result, error) {
	nproc := runtime.NumCPU()
	src, err := os.ReadFile(scenarioPath)
	if err != nil {
		return result{}, fmt.Errorf("reading the upload scenario: %w", err)
	}
	m := metricSet{}
	var setups []float64
	var d *daemon
	for i := 0; i < 15; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		if d, err = startDaemon(nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	plan := planJobs(o.seed, window)
	if len(plan) == 0 {
		d.close()
		return result{}, errors.New("serve: the plan holds no jobs; raise --seconds")
	}
	phase, err := runPhase(d, plan, string(src), nproc, window)
	if err != nil {
		d.close()
		return result{}, err
	}
	res := result{Attempted: len(plan)}
	failed, wrong := phase.verify()
	res.Failed, res.Correct = failed, wrong == 0
	lat, within := phase.latencies()
	if !o.trace {
		m.set("setup_s", "s", median(setups))
		m.set("latency_p50_s", "s", hdQuantile(lat, 0.5))
		m.set("latency_p90_s", "s", hdQuantile(lat, 0.9))
		m.set("slo_frac", "frac", ratio(float64(within), float64(len(plan))))
		m.set("heap_live_mb", "MB", liveHeapMB())
		d.close()
		fmt.Fprintf(os.Stderr, "perfbench: %d jobs, %d failed\n", len(plan), res.Failed)
		res.Metrics = m
		return res, nil
	}
	d.close()

	// Traced half: a second daemon whose runner times every cell, the
	// same job plan, and a CPU profile.
	tr := &tracedRunner{}
	td, err := startDaemon(tr.runner)
	if err != nil {
		return result{}, err
	}
	defer td.close()
	plan2 := plan
	prof, err := startProfiles(o.buildDir, nil)
	if err != nil {
		return result{}, err
	}
	traced, err := runPhase(td, plan2, string(src), nproc, window)
	if err != nil {
		prof.stop()
		return result{}, err
	}
	cpu, err := prof.stop()
	if err != nil {
		return result{}, err
	}
	res.Attempted += len(plan2)
	failed, wrong = traced.verify()
	res.Failed += failed
	res.Correct = res.Correct && wrong == 0
	tlat, _ := traced.latencies()

	cpuShares(cpu, m)
	serveEngineLayers(m, tr.jobs, traced.wall, nproc)
	serveLayers(m, traced)
	serveCatalog(m, traced)
	m.set("dist.cells_remote", "count", 0)
	m.set("dist.cells_local", "count", 0)
	m.set("dist.steals", "count", 0)
	m.set("dist.crashes", "count", 0)
	m.set("trace.overhead_frac", "frac", hdQuantile(tlat, 0.5)/hdQuantile(lat, 0.5)-1)
	m.set("fail_frac", "frac", ratio(float64(res.Failed), float64(res.Attempted)))
	res.Metrics = m
	return res, nil
}

// serveEngineLayers derives the engine, battery and catalog metrics
// from a traced daemon's runner invocations.
func serveEngineLayers(m metricSet, jobs []tracedJob, wall time.Duration, nproc int) {
	var cs cellStats
	var achieved, ideal, critical, tails []float64
	perSweep := map[string][]float64{}
	for _, tj := range jobs {
		ran := cs.add(tj.spans)
		jw := tj.end.Sub(tj.start).Seconds()
		if k := len(cs.busyS); ran {
			a, i := speedups(cs.busyS[k-1], cs.maxRunMS[k-1]/1000, jw, nproc)
			achieved, ideal = append(achieved, a), append(ideal, i)
		}
		// The runner runs sweeps one after another, each emitting as it
		// ends, so sweep k spans emits[k-1]..emits[k].
		prev, longestSweep := tj.start, 0.0
		for k, at := range tj.emits {
			if k >= len(tj.names) || k >= len(tj.spans) {
				break
			}
			e := ms(at.Sub(prev))
			perSweep[tj.names[k]] = append(perSweep[tj.names[k]], e)
			if e > longestSweep {
				longestSweep = e
			}
			tails = append(tails, clampMS(at.Sub(tj.spans[k].lastReport())))
			prev = at
		}
		critical = append(critical, longestSweep)
	}
	engineLayers(m, &cs, float64(len(jobs)))
	m.set("engine.sweep_tail_ms", "ms", median(tails))
	for _, name := range experiments.Names() {
		m.set("battery."+name+"_ms", "ms", median(perSweep[name]))
	}
	m.set("battery.critical_path_ms", "ms", median(critical))
	m.set("battery.core_busy_frac", "frac", ratio(sum(cs.busyS), wall.Seconds()*float64(nproc)))
	m.set("battery.achieved_speedup", "x", median(achieved))
	m.set("battery.ideal_speedup", "x", median(ideal))
	m.set("battery.emit_lag_ms", "ms", 0) // one sweep at a time: nothing waits
	m.set("battery.count", "count", float64(len(jobs)))
	printJSON(map[string]interface{}{"critical_path": map[string]interface{}{
		"nproc":            nproc,
		"jobs_run":         len(jobs),
		"longest_cell":     cs.longestKey,
		"longest_cell_ms":  cs.longestMS,
		"cell_floor_ms":    median(cs.maxRunMS),
		"longest_sweep_ms": median(critical),
		"achieved_speedup": median(achieved),
		"ideal_speedup":    median(ideal),
	}})
}

// serveLayers sets the serve.* metrics of a phase. On workloads that
// never enter the serve layer it gets an empty phase and reports 0s.
func serveLayers(m metricSet, p *servePhase) {
	var submitNamed, submitUpload, firstByte, stream, repeat, genLate, sendLate []float64
	for i := range p.recs {
		r, j := &p.recs[i], p.jobs[i]
		genLate = append(genLate, ms(r.genLate()))
		if !r.sent.IsZero() {
			sendLate = append(sendLate, ms(r.sendLate()))
		}
		if r.err != nil {
			continue
		}
		if j.upload {
			submitUpload = append(submitUpload, ms(r.posted.Sub(r.sent)))
		} else {
			submitNamed = append(submitNamed, ms(r.posted.Sub(r.sent)))
		}
		firstByte = append(firstByte, ms(r.firstByte.Sub(r.posted)))
		stream = append(stream, ms(r.lastByte.Sub(r.firstByte)))
		if j.kind == kindRepeat {
			repeat = append(repeat, ms(r.latency()))
		}
	}
	n := float64(len(p.jobs))
	m.set("serve.jobs", "count", n)
	m.set("serve.submit_p50_ms", "ms", median(submitNamed))
	m.set("serve.submit_upload_p50_ms", "ms", median(submitUpload))
	m.set("serve.first_byte_p50_ms", "ms", median(firstByte))
	m.set("serve.stream_p50_ms", "ms", median(stream))
	m.set("serve.repeat_p50_ms", "ms", median(repeat))
	m.set("serve.rejected", "count", statNum(p.stats, "rejected"))
	m.set("serve.cached_hits", "count", statNum(p.stats, "cached_hits"))
	m.set("serve.gen_late_p90_ms", "ms", quantile(genLate, 0.9))
	m.set("serve.send_late_p90_ms", "ms", quantile(sendLate, 0.9))
	m.set("serve.heap_kb_per_job", "KB", ratio(p.heapDelta/1e3, n))
}

// serveCatalog sets the catalog.* metrics of a phase, per job.
func serveCatalog(m metricSet, p *servePhase) {
	n := float64(len(p.jobs))
	lookups := float64(p.store.Generations + p.store.Hits + p.store.DiskHits)
	m.set("catalog.generations", "count", float64(p.store.Generations)/n)
	m.set("catalog.hits", "count", float64(p.store.Hits)/n)
	m.set("catalog.disk_hits", "count", float64(p.store.DiskHits)/n)
	m.set("catalog.hit_ratio", "frac", ratio(float64(p.store.Hits+p.store.DiskHits), lookups))
}

func statNum(st map[string]interface{}, key string) float64 {
	v, _ := st[key].(float64)
	return v
}
