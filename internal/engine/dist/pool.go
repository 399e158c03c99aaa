package dist

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dsa/internal/engine"
)

// Options configures a Pool.
type Options struct {
	// Workers is the number of local child processes. It must be >= 1
	// unless Remote supplies the slots instead, in which case 0 means a
	// purely remote pool.
	Workers int
	// Command is the worker executable — typically the running binary
	// itself (os.Executable()) so the handler registry is identical on
	// both sides. Required when Workers > 0.
	Command string
	// Args are passed to Command before the protocol starts, e.g.
	// ["worker"].
	Args []string
	// Env is the child environment; nil inherits the parent's.
	Env []string
	// Remote lists serve-worker endpoints ("host:port"); each
	// contributes one remote slot alongside the Workers local slots.
	// Remote slots dial lazily like local slots spawn lazily, share the
	// same batching, stealing and containment machinery, and degrade to
	// in-process execution when their reconnect budget (MaxRespawns) is
	// exhausted — a sweep never wedges on a dead endpoint.
	Remote []string
	// AuthToken is sent in the remote handshake; it must match the
	// serve-workers' -auth-token. Empty matches only servers that
	// require none.
	AuthToken string
	// LinkTimeout is how long a remote link may stay silent — no
	// heartbeat, no response — before it is declared dead and its
	// in-flight batch contained. <= 0 means DefaultLinkTimeout. Local
	// stdio children need no deadline: their death is pipe EOF.
	LinkTimeout time.Duration
	// DialTimeout bounds connecting (dial + handshake) to a remote
	// endpoint. <= 0 means DefaultDialTimeout.
	DialTimeout time.Duration
	// MaxRespawns bounds how many times one worker slot may be
	// respawned after a crash — or one remote slot reconnected after a
	// link failure — before the slot degrades to running its cells
	// in-process. <= 0 means DefaultMaxRespawns.
	MaxRespawns int
	// Batch is how many cells travel per protocol frame. One frame
	// each way then serves a whole batch, amortizing the gob+pipe
	// round trip across cells — the lever that makes small-cell sweeps
	// worth distributing. A worker crash costs at most one in-flight
	// batch (each cell a contained FAILED row). <= 0 means
	// DefaultBatch. Output bytes are identical at any batch size.
	Batch int
	// Stderr receives the children's stderr, each line prefixed with
	// the worker slot and its in-flight cell key so failures are
	// attributable. Nil means os.Stderr.
	Stderr io.Writer
}

// DefaultMaxRespawns is the per-slot crash-respawn budget.
const DefaultMaxRespawns = 2

// DefaultBatch is the per-frame cell count: one cell per frame, the
// maximally containment-friendly setting (a crash costs one cell).
const DefaultBatch = 1

// Stats counts a pool's traffic, for tests and operational summaries.
type Stats struct {
	// Remote is the number of cells executed in worker processes.
	Remote int
	// Local is the number of cells executed in the dispatching process
	// (spec-less jobs, exhausted slots, spawn failures).
	Local int
	// Crashes is the number of cells lost to a worker dying with work
	// in flight — at most one batch per crash; each lost cell surfaces
	// as one contained FAILED cell.
	Crashes int
	// Respawns is the number of replacement workers spawned after
	// crashes.
	Respawns int
	// Steals is the number of cells a worker took from another
	// worker's queue after draining its own.
	Steals int
}

// Pool shards engine sweeps across a pool of worker slots — local
// child processes (Workers) and/or remote serve-workers (Remote): the
// out-of-process counterpart of the engine's in-process Budget
// executor, implementing engine.Executor. Cells are pre-sharded
// round-robin onto the slots and travel Options.Batch to a frame; a
// slot that drains its own queue steals from the longest remaining
// queue, so one skewed-cost cell cannot idle the rest of the pool.
//
// Children are spawned — and endpoints dialed — lazily, and links are
// kept alive across sweeps (the workers' per-process workload catalogs
// persist with them); Close shuts them down. Execute is safe for
// concurrent use: the battery scheduler (internal/engine/battery) runs
// whole sweeps concurrently over one pool, each worker slot serving
// one batch at a time whichever sweep it came from, so the worker
// count bounds total cell concurrency battery-wide. Cancelling one
// sweep's context never disturbs a child serving another sweep: only
// children whose in-flight batch belongs to the cancelled sweep are
// killed. Close must not be called concurrently with Execute.
type Pool struct {
	opts   Options
	stderr io.Writer
	slots  []*slot

	mu     sync.Mutex
	stats  Stats
	closed bool
}

// SelfPool builds a pool of this binary's own `worker` subcommand —
// the shape every self-spawning CLI shares — plus one remote slot per
// endpoint in remote, dialed with authToken. cacheDir, when nonempty,
// travels to the children as their -cache-dir flag, so the workers'
// stores read and write the dispatcher's cache directory (remote
// serve-workers warm their own -cache-dir instead). workers may be 0
// when remote endpoints supply all the slots.
func SelfPool(workers, batch int, cacheDir string, remote []string, authToken string) (*Pool, error) {
	o := Options{Workers: workers, Batch: batch, Remote: remote, AuthToken: authToken}
	if workers > 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		o.Command = exe
		o.Args = []string{"worker"}
		if cacheDir != "" {
			o.Args = append(o.Args, "-cache-dir", cacheDir)
		}
	}
	return NewPool(o)
}

// NewPool validates the options and returns a pool. No children are
// spawned and no endpoints dialed until the first remote cell is
// dispatched.
func NewPool(o Options) (*Pool, error) {
	if o.Workers < 1 && len(o.Remote) == 0 {
		return nil, fmt.Errorf("dist: Workers = %d, need >= 1", o.Workers)
	}
	if o.Workers < 0 {
		return nil, fmt.Errorf("dist: Workers = %d, need >= 0", o.Workers)
	}
	if o.Workers > 0 && o.Command == "" {
		return nil, fmt.Errorf("dist: Command is required")
	}
	for _, ep := range o.Remote {
		if ep == "" {
			return nil, fmt.Errorf("dist: empty Remote endpoint")
		}
	}
	if o.MaxRespawns <= 0 {
		o.MaxRespawns = DefaultMaxRespawns
	}
	if o.Batch <= 0 {
		o.Batch = DefaultBatch
	}
	if o.LinkTimeout <= 0 {
		o.LinkTimeout = DefaultLinkTimeout
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	p := &Pool{opts: o, stderr: o.Stderr}
	if p.stderr == nil {
		p.stderr = os.Stderr
	}
	p.slots = make([]*slot, o.Workers+len(o.Remote))
	for i := range p.slots {
		s := &slot{id: i, pool: p, tok: make(chan struct{}, 1)}
		if i < o.Workers {
			s.name = fmt.Sprintf("worker[%d]", i)
		} else {
			s.endpoint = o.Remote[i-o.Workers]
			s.name = fmt.Sprintf("worker[%s]", s.endpoint)
		}
		s.currentKey.Store("")
		p.slots[i] = s
	}
	return p, nil
}

// Stats returns a snapshot of the pool's counters, accumulated across
// every sweep it has executed.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Summary renders the one-line operational summary the CLIs print on
// stderr after a distributed sweep, counting the pool's own slots
// (local workers plus remote endpoints). The smoke tests in
// internal/smoke match this exact phrasing to prove cells really
// distributed.
func (p *Pool) Summary() string {
	s := p.Stats()
	return fmt.Sprintf("%d cells in %d workers, %d in-process, %d crashes, %d steals",
		s.Remote, len(p.slots), s.Local, s.Crashes, s.Steals)
}

// Close kills and reaps every child. The pool's counters remain
// readable; Execute must not be called again.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	for _, s := range p.slots {
		s.teardown()
	}
	return nil
}

func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

func (p *Pool) count(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// Execute implements engine.Executor: it runs every job, reporting
// each exactly once. Cells with a Spec go to worker processes; cells
// without one run in this process through engine.RunJob (so mixed
// sweeps still complete, byte-identically). Cancellation kills the
// children whose in-flight batch belongs to this sweep — a child
// serving a concurrent sweep is untouched — and reports every
// unfinished cell with ctx.Err().
func (p *Pool) Execute(ctx context.Context, sw engine.SweepEnv, jobs []engine.Job, report func(engine.Result)) {
	if len(jobs) == 0 {
		return
	}
	qs := newQueues(len(p.slots), len(jobs))

	// Kill this sweep's children the moment it is cancelled, so a
	// worker stuck in a long cell cannot outlive its sweep. The kill is
	// ctx-scoped: a slot is only killed while its in-flight round trip
	// carries this sweep's context, which is what keeps concurrent
	// sweeps sharing the pool isolated from each other's cancellation.
	// (A killed child is torn down and its batch contained by the slot
	// goroutine's own round-trip error path.)
	watcherDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			for _, s := range p.slots {
				s.killIfServing(ctx)
			}
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	for _, s := range p.slots {
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			for {
				// Claim the slot before taking work — one batch at a time
				// per slot, whichever sweep it came from, so the worker
				// count bounds total in-flight cells battery-wide. Claiming
				// first (rather than popping first) keeps unpopped cells
				// stealable by this sweep's other slots while a concurrent
				// sweep holds this one, and lets a cancelled or fully-
				// drained sweep stop waiting on a busy slot immediately.
				select {
				case s.tok <- struct{}{}:
				case <-ctx.Done():
					// Drain whatever is still queued as cancelled; other
					// slot goroutines may be draining concurrently, and
					// nextBatch hands each cell out exactly once.
					for {
						idxs, _, ok := qs.nextBatch(s.id, p.opts.Batch)
						if !ok {
							return
						}
						for _, idx := range idxs {
							report(engine.Result{Key: jobs[idx].Key, Index: idx, Err: ctx.Err()})
						}
					}
				case <-qs.drained:
					return
				}
				idxs, stolen, ok := qs.nextBatch(s.id, p.opts.Batch)
				if !ok {
					<-s.tok
					return
				}
				if stolen > 0 {
					p.count(func(st *Stats) { st.Steals += stolen })
				}
				if err := ctx.Err(); err != nil {
					for _, idx := range idxs {
						report(engine.Result{Key: jobs[idx].Key, Index: idx, Err: err})
					}
					<-s.tok
					continue
				}
				s.runBatch(ctx, sw, idxs, jobs, report)
				<-s.tok
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	<-watcherDone
}

// slot is one worker seat: the protocol link to a worker — a local
// child process or a remote serve-worker — plus its crash accounting.
// The tok channel serializes batches onto the slot — concurrent sweeps
// sharing the pool take turns here, and unlike a mutex a waiter can
// abandon the claim on cancellation — and its holder owns every field
// except live/curCtx/currentKey, which have their own synchronization.
type slot struct {
	id       int
	pool     *Pool
	name     string // "worker[0]" for local slots, "worker[host:port]" for remote
	endpoint string // "" for local slots, "host:port" for remote

	tok     chan struct{} // slot ownership: send to claim, receive to release
	nextID  uint64
	crashes int  // crashes (local) or link failures (remote), against MaxRespawns
	local   bool // respawn/reconnect budget exhausted: run cells in-process

	// currentKey is the most recent cell (or batch) label, read
	// concurrently by the child's stderr prefixer; it is set before
	// each batch ships and deliberately never cleared (see runBatch).
	currentKey atomic.Value

	procMu sync.Mutex
	live   link            // the connected link; also read by the cancellation watchers
	curCtx context.Context // the in-flight batch's sweep context, nil when idle
	killed bool            // a watcher killed the link; reconnect before reuse
}

// runBatch executes one batch of cells and reports each exactly once:
// cells with a Spec go to the slot's worker in a single protocol
// frame, the rest run in this process. A worker dying mid-batch is
// contained as FAILED cells for exactly the in-flight batch — the
// shape of an in-process contained panic, once per cell — and the slot
// respawns for subsequent batches within its budget.
func (s *slot) runBatch(ctx context.Context, sw engine.SweepEnv, idxs []int, jobs []engine.Job, report func(engine.Result)) {
	if err := ctx.Err(); err != nil {
		// The sweep was cancelled while this batch waited its turn on
		// the slot (a concurrent sweep held it): report, don't ship.
		for _, idx := range idxs {
			report(engine.Result{Key: jobs[idx].Key, Index: idx, Err: err})
		}
		return
	}
	remote := make([]int, 0, len(idxs))
	for _, idx := range idxs {
		job := jobs[idx]
		if job.Spec == nil || job.Spec.Task == "" || s.local || s.pool.isClosed() {
			s.pool.count(func(st *Stats) { st.Local++ })
			report(engine.RunJob(ctx, idx, job, sw.Seed, sw.Catalog))
			continue
		}
		remote = append(remote, idx)
	}
	if len(remote) == 0 {
		return
	}
	if err := s.ensure(ctx); err != nil {
		// Could not (re)spawn a worker or (re)dial an endpoint: the
		// cells themselves are fine — run them here. Determinism is
		// key-derived, so the result is byte-identical either way.
		fmt.Fprintf(s.pool.stderr, "dist: %s: %v; running %s in-process\n",
			s.name, err, batchLabel(jobs, remote))
		for _, idx := range remote {
			s.pool.count(func(st *Stats) { st.Local++ })
			report(engine.RunJob(ctx, idx, jobs[idx], sw.Seed, sw.Catalog))
		}
		return
	}

	// The label stays set after the batch completes (rather than being
	// cleared) because the child's stderr reaches the prefixer through
	// exec's copier goroutine, which may run after the response frame
	// has been read — clearing on return would race the copier and
	// strip the attribution off the very lines it names. Output between
	// batches is thus attributed to the most recent batch, which is
	// also the only plausible source.
	s.currentKey.Store(batchLabel(jobs, remote))
	s.nextID++
	req := request{ID: s.nextID, Seed: sw.Seed, Cells: make([]cellReq, len(remote))}
	for i, idx := range remote {
		req.Cells[i] = cellReq{Index: idx, Key: jobs[idx].Key, Spec: *jobs[idx].Spec}
	}
	// Publish which sweep this round trip serves, so that sweep's
	// cancellation watcher — and only that sweep's — may kill the child
	// mid-batch. Re-check the context after publishing: a cancellation
	// that fired in between saw curCtx unset (its watcher killed
	// nothing and has already exited), so without this check the batch
	// would ship and block uninterruptibly on a child nothing will ever
	// kill. Publish-then-check and check-then-kill both take procMu, so
	// every cancellation is seen by at least one side.
	s.setCurCtx(ctx)
	if err := ctx.Err(); err != nil {
		s.setCurCtx(nil)
		for _, idx := range remote {
			report(engine.Result{Key: jobs[idx].Key, Index: idx, Err: err})
		}
		return
	}
	resp, err := s.roundTrip(&req)
	s.setCurCtx(nil)
	if err == nil && len(resp.Results) != len(remote) {
		err = fmt.Errorf("dist: %d results for %d cells", len(resp.Results), len(remote))
	}
	if err != nil {
		s.teardown()
		if ctx.Err() != nil {
			for _, idx := range remote {
				report(engine.Result{Key: jobs[idx].Key, Index: idx, Err: ctx.Err()})
			}
			return
		}
		// The worker died — or its link did — with this batch in
		// flight: contain every in-flight cell as a FAILED cell (the
		// sweep continues) and note one crash against the
		// respawn/reconnect budget. The next batch on this slot
		// respawns or redials within that budget.
		s.crashes++
		s.pool.count(func(st *Stats) { st.Crashes += len(remote) })
		if s.endpoint != "" {
			// A local child's own stderr shows why it died; a remote
			// worker's stderr stays on its host, so the dispatcher-side
			// line is the only attribution this side of the wire.
			fmt.Fprintf(s.pool.stderr, "dist: %s: link retired: %v (batch %s contained)\n",
				s.name, err, batchLabel(jobs, remote))
		}
		for _, idx := range remote {
			key := jobs[idx].Key
			report(engine.Result{
				Key: key, Index: idx, Panicked: true,
				Err: &engine.PanicError{Key: key, Value: fmt.Sprintf("%s crashed: %v", s.name, err)},
			})
		}
		return
	}
	s.pool.count(func(st *Stats) { st.Remote += len(remote) })
	for i, idx := range remote {
		report(resultFrom(idx, jobs[idx].Key, &resp.Results[i]))
	}
}

// batchLabel names an in-flight batch for stderr attribution: the
// first cell's key, with a count when more ride along.
func batchLabel(jobs []engine.Job, idxs []int) string {
	if len(idxs) == 1 {
		return jobs[idxs[0]].Key
	}
	return fmt.Sprintf("%s (+%d)", jobs[idxs[0]].Key, len(idxs)-1)
}

// roundTrip sends one request over the slot's link and blocks for its
// response. The link consumes heartbeat frames itself; for remote
// links each frame also re-arms the silence deadline.
func (s *slot) roundTrip(req *request) (*response, error) {
	s.procMu.Lock()
	ln := s.live
	s.procMu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("dist: %s: link closed", s.name)
	}
	return ln.roundTrip(req)
}

// resultFrom reconstructs an engine.Result from one wire cell result.
// A contained worker panic is rebuilt as a *engine.PanicError whose
// value is the worker's fmt.Sprint of the original panic value, so
// FAILED rows render byte-identically to in-process containment.
func resultFrom(idx int, key string, cr *cellResp) engine.Result {
	r := engine.Result{Key: key, Index: idx}
	switch {
	case cr.Panicked:
		r.Panicked = true
		r.Err = &engine.PanicError{Key: key, Value: cr.PanicVal, Stack: cr.Stack}
	case cr.Err != "":
		r.Err = fmt.Errorf("dist: %s", cr.Err)
	default:
		r.Value = cr.Value
	}
	return r
}

// ensure makes sure the slot has a live link, spawning a child or
// dialing the slot's endpoint (or re-doing either, within the shared
// crash/reconnect budget) as needed.
func (s *slot) ensure(ctx context.Context) error {
	s.procMu.Lock()
	alive := s.live != nil && !s.killed
	reap := s.live != nil && s.killed
	s.procMu.Unlock()
	if alive {
		return nil
	}
	if reap {
		// A cancellation watcher killed the link after its last batch
		// completed; reap it and fall through to a fresh connect.
		s.teardown()
	}
	if s.crashes > s.pool.opts.MaxRespawns {
		s.local = true
		if s.endpoint != "" {
			return fmt.Errorf("reconnect budget exhausted after %d link failures", s.crashes)
		}
		return fmt.Errorf("respawn budget exhausted after %d crashes", s.crashes)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.connect(ctx); err != nil {
		s.crashes++
		return err
	}
	if s.crashes > 0 {
		s.pool.count(func(st *Stats) { st.Respawns++ })
	}
	return nil
}

// connect establishes the slot's link: local slots spawn a worker
// child whose stderr flows through a line prefixer naming the slot and
// its in-flight cell key — so anything a crashing worker manages to
// say is attributable to the cell that killed it — and remote slots
// dial their serve-worker endpoint and handshake. (A remote worker's
// own stderr stays on its host, prefixed there per connection; this
// side attributes link events by endpoint instead.)
func (s *slot) connect(ctx context.Context) error {
	var (
		ln  link
		err error
	)
	if s.endpoint != "" {
		ln, err = dialRemote(ctx, s.endpoint, s.pool.opts.AuthToken, s.pool.opts.LinkTimeout, s.pool.opts.DialTimeout)
		if err != nil {
			return fmt.Errorf("dialing %s: %w", s.endpoint, err)
		}
	} else {
		prefixer := NewPrefixWriter(s.pool.stderr, func() string {
			if k, _ := s.currentKey.Load().(string); k != "" {
				return fmt.Sprintf("%s %s: ", s.name, k)
			}
			return s.name + ": "
		})
		ln, err = spawnProc(s.pool.opts.Command, s.pool.opts.Args, s.pool.opts.Env, prefixer)
		if err != nil {
			return fmt.Errorf("spawning %s: %w", s.pool.opts.Command, err)
		}
	}
	s.procMu.Lock()
	s.live = ln
	s.procMu.Unlock()
	return nil
}

// setCurCtx publishes (or clears) the sweep context of the slot's
// in-flight round trip for the cancellation watchers.
func (s *slot) setCurCtx(ctx context.Context) {
	s.procMu.Lock()
	s.curCtx = ctx
	s.procMu.Unlock()
}

// killIfServing takes the link down iff its in-flight batch belongs to
// ctx's sweep (safe from a watcher goroutine while a slot goroutine
// owns the link — kill is the link's one async-safe method). An idle
// link, or one serving a concurrent sweep, is left alone: the
// cancelled sweep's remaining cells are reported with ctx.Err()
// without ever reaching a worker, and killing a shared link would turn
// another sweep's healthy batch into FAILED rows.
func (s *slot) killIfServing(ctx context.Context) {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	if s.curCtx != ctx {
		return
	}
	if s.live != nil {
		s.live.kill()
		// Tombstone the corpse: the kill can land just after the batch's
		// response was read, in which case the slot goroutine sees a
		// clean round trip and would otherwise ship the next sweep's
		// batch over a dead link. ensure() reaps and reconnects instead —
		// without charging the crash budget, since nothing crashed.
		s.killed = true
	}
}

// teardown retires the slot's link: kills and reaps the child, or
// closes the connection.
func (s *slot) teardown() {
	s.procMu.Lock()
	ln := s.live
	s.live = nil
	s.killed = false
	s.procMu.Unlock()
	if ln != nil {
		ln.close()
	}
}

// queues pre-shards a sweep's cell indices round-robin across the
// worker slots and hands them out in batches with work stealing: a
// slot pops up to its batch size from the head of its own queue until
// empty, then steals up to a batch from the tail of the longest other
// queue. Round-robin keeps the no-contention path cheap and
// deterministic; stealing keeps every worker busy when cell costs are
// skewed. (Result bytes never depend on which worker runs a cell —
// seeding is key-derived and aggregation is index-ordered — so
// stealing is pure load balancing.)
type queues struct {
	mu      sync.Mutex
	q       [][]int
	left    int           // cells not yet handed out
	drained chan struct{} // closed when the last cell is handed out
}

func newQueues(slots, jobs int) *queues {
	qs := &queues{q: make([][]int, slots), left: jobs, drained: make(chan struct{})}
	for i := 0; i < jobs; i++ {
		s := i % slots
		qs.q[s] = append(qs.q[s], i)
	}
	if jobs == 0 {
		close(qs.drained)
	}
	return qs
}

// take accounts n cells handed out, signalling drained at zero so slot
// goroutines waiting on a busy slot can stop waiting once no work is
// left anywhere. Callers hold qs.mu.
func (qs *queues) take(n int) {
	qs.left -= n
	if qs.left == 0 {
		close(qs.drained)
	}
}

// nextBatch returns up to max cell indices for slot, with stolen
// counting how many came from another slot's queue, or ok=false when
// no work remains anywhere. A batch never mixes own and stolen work:
// partial own batches ship as-is rather than waiting on a steal, so a
// short queue drains promptly.
func (qs *queues) nextBatch(slot, max int) (idxs []int, stolen int, ok bool) {
	if max < 1 {
		max = 1
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if own := qs.q[slot]; len(own) > 0 {
		n := max
		if n > len(own) {
			n = len(own)
		}
		idxs = own[:n:n]
		qs.q[slot] = own[n:]
		qs.take(n)
		return idxs, 0, true
	}
	victim, longest := -1, 0
	for i, q := range qs.q {
		if i != slot && len(q) > longest {
			victim, longest = i, len(q)
		}
	}
	if victim < 0 {
		return nil, 0, false
	}
	vq := qs.q[victim]
	n := max
	if n > len(vq) {
		n = len(vq)
	}
	idxs = append(idxs, vq[len(vq)-n:]...)
	qs.q[victim] = vq[:len(vq)-n]
	qs.take(n)
	return idxs, n, true
}
