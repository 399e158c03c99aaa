package main

import (
	"context"
	"strings"
	"sync"
	"time"

	"dsa/internal/engine"
)

// cellSpan is one cell as the timing executor saw it. runStart/runEnd
// stay zero for cells that ran in another process (the dist pool ships
// a cell's Spec, not its Run closure).
type cellSpan struct {
	key                    string
	runStart, runEnd       time.Time
	reportStart, reportEnd time.Time
	reports                int
}

func (c cellSpan) ran() bool { return !c.runStart.IsZero() }

// execSpan is one Executor.Execute call: one sweep's cells.
type execSpan struct {
	sweep      string
	start, end time.Time
	cells      []cellSpan
}

// lastReport is when the sweep's last cell report returned.
func (e *execSpan) lastReport() time.Time {
	var t time.Time
	for _, c := range e.cells {
		if c.reportEnd.After(t) {
			t = c.reportEnd
		}
	}
	return t
}

// session records the spans of one battery (or one served job). Every
// sweep the engine runs calls Execute exactly once, so the execs list
// is the sweep list in the order sweeps started.
type session struct {
	mu    sync.Mutex
	execs []*execSpan
}

func newSession() *session { return &session{} }

// spans returns the recorded sweeps (call after the battery returned).
func (s *session) spans() []*execSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*execSpan(nil), s.execs...)
}

// executor wraps inner so every cell's Run and every report is timed.
// Jobs keep their Key and Spec, so seeding, distribution and output
// bytes are those of inner alone.
func (s *session) executor(inner engine.Executor) engine.Executor {
	return &timingExecutor{inner: inner, s: s}
}

type timingExecutor struct {
	inner engine.Executor
	s     *session
}

func (x *timingExecutor) Execute(ctx context.Context, sw engine.SweepEnv, jobs []engine.Job, report func(engine.Result)) {
	span := &execSpan{start: time.Now(), cells: make([]cellSpan, len(jobs))}
	if len(jobs) > 0 {
		span.sweep, _, _ = strings.Cut(jobs[0].Key, "/")
	}
	x.s.mu.Lock()
	x.s.execs = append(x.s.execs, span)
	x.s.mu.Unlock()

	// One lock per sweep: a cell's run and its report may land on
	// different goroutines, and executors report concurrently.
	var mu sync.Mutex
	wrapped := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		i, run := i, j.Run
		span.cells[i].key = j.Key
		j.Run = func(ctx context.Context, env engine.Env) (interface{}, error) {
			start := time.Now()
			v, err := run(ctx, env)
			end := time.Now()
			mu.Lock()
			span.cells[i].runStart, span.cells[i].runEnd = start, end
			mu.Unlock()
			return v, err
		}
		wrapped[i] = j
	}
	x.inner.Execute(ctx, sw, wrapped, func(r engine.Result) {
		start := time.Now()
		report(r)
		end := time.Now()
		mu.Lock()
		c := &span.cells[r.Index]
		c.reportStart, c.reportEnd = start, end
		c.reports++
		mu.Unlock()
	})
	end := time.Now()
	mu.Lock()
	span.end = end
	mu.Unlock()
}

// sweepTiming is one sweep of a concurrent battery, timed from its
// Execute span and the battery's cost manifest.
type sweepTiming struct {
	name     string
	elapsed  time.Duration
	end      time.Time // when the sweep's table was final
	emitted  time.Time // when the table left the battery in order
	lastCell time.Time // last cell report of the sweep
}

// cellStats accumulates cell-level observations across sessions.
type cellStats struct {
	cells      int
	localCells int
	runMS      []float64
	waitMS     []float64
	reportMS   []float64
	busyS      []float64 // Σ cell run per session
	maxRunMS   []float64 // longest cell per session
	longestKey string
	longestMS  float64
}

// add folds one session's spans into the stats and reports whether any
// of its cells ran in this process (and so appended to busyS and
// maxRunMS).
func (cs *cellStats) add(spans []*execSpan) bool {
	busy, longest := 0.0, 0.0
	ranAny := false
	for _, e := range spans {
		for _, c := range e.cells {
			cs.cells++
			cs.reportMS = append(cs.reportMS, ms(c.reportStart.Sub(e.start)))
			if !c.ran() {
				continue
			}
			ranAny = true
			cs.localCells++
			run := ms(c.runEnd.Sub(c.runStart))
			cs.runMS = append(cs.runMS, run)
			cs.waitMS = append(cs.waitMS, ms(c.runStart.Sub(e.start)))
			busy += run
			if run > longest {
				longest = run
			}
			if run > cs.longestMS {
				cs.longestMS, cs.longestKey = run, c.key
			}
		}
	}
	if ranAny {
		cs.busyS = append(cs.busyS, busy/1000)
		cs.maxRunMS = append(cs.maxRunMS, longest)
	}
	return ranAny
}
