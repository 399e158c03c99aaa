package engine

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dsa/internal/sim"
)

// Budget bounds in-process cell execution: total cell slots shared by
// every sweep that runs through its executors (Budget.Executor is the
// engine's only in-process Executor), split across tenants, each
// capped at perTenant concurrently running cells. CLI and benchmark
// runs are the single tenant "" (so the budget is a plain battery-wide
// bound); the serve daemon gives each client tenant its own name. When
// a slot frees while several tenants have cells waiting, it goes to a
// tenant with the fewest running cells — ties broken by a random draw
// (Rabin's randomized mutual-exclusion posture: fairness from a coin
// flip, not a queue that can encode starvation) — and within one
// tenant strictly FIFO.
//
// Fairness: when a slot frees and k tenants with headroom have
// waiters and share the fewest running cells, each of them gets that
// slot with probability exactly 1/k, whatever the order in which the
// tenants queued and the slots were released. The draw sees only the
// tied tenants' names, in sorted order, and a coin independent of the
// schedule.
type Budget struct {
	mu        sync.Mutex
	free      int
	perTenant int
	// running and queues are built on first use, so constructing a
	// budget costs one allocation.
	running map[string]int
	queues  map[string][]chan struct{}
	ties    []string // dispatchLocked's scratch
	// rng breaks dispatch ties; made on the first tie (randomly
	// seeded), or set beforehand by in-package tests.
	rng *rand.Rand
}

// NewBudget builds a budget of total cell slots (<= 0 means
// GOMAXPROCS), at most perTenant of which one tenant may hold at once
// (<= 0 or > total means no per-tenant cap below the total).
func NewBudget(total, perTenant int) *Budget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	if perTenant <= 0 || perTenant > total {
		perTenant = total
	}
	return &Budget{free: total, perTenant: perTenant}
}

// Total reports the slot count.
func (b *Budget) Total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.free
	for _, r := range b.running {
		n += r
	}
	return n
}

// Running reports tenant's currently held slots.
func (b *Budget) Running(tenant string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.running[tenant]
}

// Acquire blocks until tenant holds a cell slot or ctx is done. A
// tenant below its cap with free slots and no earlier waiters of its
// own proceeds immediately; otherwise it queues FIFO behind its own
// waiters and competes fairly with other tenants for each freed slot.
func (b *Budget) Acquire(ctx context.Context, tenant string) error {
	var grant chan struct{}
	return b.acquire(ctx, tenant, &grant, nil)
}

// acquire is Acquire with a caller-owned grant channel, made on the
// caller's first wait and reused after, so a worker waits without
// allocating, and a drained channel that ends the wait (see wait).
func (b *Budget) acquire(ctx context.Context, tenant string, grant *chan struct{}, drained <-chan struct{}) error {
	b.mu.Lock()
	if b.free > 0 && b.running[tenant] < b.perTenant && len(b.queues[tenant]) == 0 {
		b.takeLocked(tenant)
		b.mu.Unlock()
		return nil
	}
	b.enqueueLocked(tenant, grant)
	// A slot may be free while this tenant queues (its earlier waiters
	// kept FIFO order); let dispatch hand out whatever is grantable.
	b.dispatchLocked()
	b.mu.Unlock()
	return b.wait(ctx, tenant, *grant, drained)
}

// Release returns one of tenant's slots and hands it to the fairest
// eligible waiter, if any.
func (b *Budget) Release(tenant string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.releaseLocked(tenant)
	b.dispatchLocked()
}

// handoff is called by a worker holding one of tenant's slots with
// more cells to run. With no eligible waiter it keeps the slot and
// reports false. Otherwise, under the same lock, it queues grant
// behind tenant's waiters and releases the slot to the fairest waiter
// — possibly itself — and reports true: the caller must wait for
// grant. Releasing and re-queuing separately would hand the slot to
// other tenants outright instead of letting the finished worker
// compete for it.
func (b *Budget) handoff(tenant string, grant *chan struct{}) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.releaseLocked(tenant)
	if !b.waiterLocked() {
		b.takeLocked(tenant)
		return false
	}
	b.enqueueLocked(tenant, grant)
	b.dispatchLocked()
	return true
}

// errDrained ends a worker's wait for a slot once every cell of its
// sweep has been claimed by other workers: the sweep must not wait
// for a slot nobody needs.
var errDrained = errors.New("engine: every cell claimed")

// wait blocks until grant delivers tenant's slot, ctx is done, or
// drained is closed (nil never is); in the latter two cases it leaves
// the queue holding no slot and returns ctx.Err() or errDrained.
func (b *Budget) wait(ctx context.Context, tenant string, grant chan struct{}, drained <-chan struct{}) error {
	var err error
	select {
	case <-grant:
		return nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-drained:
		err = errDrained
	}
	b.mu.Lock()
	q := b.queues[tenant]
	for i, g := range q {
		if g == grant {
			b.queues[tenant] = append(q[:i:i], q[i+1:]...)
			if len(b.queues[tenant]) == 0 {
				delete(b.queues, tenant)
			}
			b.mu.Unlock()
			return err
		}
	}
	b.mu.Unlock()
	// Lost the race: the grant landed while we were leaving. Take it
	// and hand the slot straight back so it is not leaked.
	<-grant
	b.Release(tenant)
	return err
}

func (b *Budget) takeLocked(tenant string) {
	if b.running == nil {
		b.running = make(map[string]int)
	}
	b.free--
	b.running[tenant]++
}

func (b *Budget) releaseLocked(tenant string) {
	if b.running[tenant] <= 1 {
		delete(b.running, tenant)
	} else {
		b.running[tenant]--
	}
	b.free++
}

func (b *Budget) enqueueLocked(tenant string, grant *chan struct{}) {
	if *grant == nil {
		*grant = make(chan struct{}, 1)
	}
	if b.queues == nil {
		b.queues = make(map[string][]chan struct{})
	}
	b.queues[tenant] = append(b.queues[tenant], *grant)
}

// waiterLocked reports whether some tenant has a waiter and headroom
// under the per-tenant cap — one that dispatch would grant a free
// slot to.
func (b *Budget) waiterLocked() bool {
	for tenant, q := range b.queues {
		if len(q) > 0 && b.running[tenant] < b.perTenant {
			return true
		}
	}
	return false
}

// dispatchLocked hands free slots to waiting tenants: among tenants
// with waiters and headroom under the per-tenant cap, the one with the
// fewest running cells wins each slot, ties broken uniformly at
// random (see Budget). Tenants at their cap are skipped — they hold
// running cells, so a future Release always re-triggers dispatch; free
// slots plus only capped waiters therefore never deadlocks, the slots
// just wait for headroom.
func (b *Budget) dispatchLocked() {
	for b.free > 0 {
		best := b.ties[:0]
		min := -1
		for tenant, q := range b.queues {
			if len(q) == 0 || b.running[tenant] >= b.perTenant {
				continue
			}
			switch r := b.running[tenant]; {
			case min < 0 || r < min:
				min, best = r, append(best[:0], tenant)
			case r == min:
				best = append(best, tenant)
			}
		}
		b.ties = best
		if len(best) == 0 {
			return
		}
		tenant := best[0]
		if len(best) > 1 {
			if b.rng == nil {
				b.rng = rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
			}
			// Map order is arbitrary, not random: sort so the draw
			// alone picks the winner.
			slices.Sort(best)
			tenant = best[b.rng.IntN(len(best))]
		}
		grant := b.queues[tenant][0]
		b.queues[tenant] = b.queues[tenant][1:]
		if len(b.queues[tenant]) == 0 {
			delete(b.queues, tenant)
		}
		b.takeLocked(tenant)
		grant <- struct{}{}
	}
}

// Executor returns the engine.Executor that runs a sweep's cells under
// tenant's share of the budget. Every Execute starts at most
// min(perTenant, jobs) workers; each takes a slot, claims the next
// cell index, runs the cell, and then keeps its slot or hands it off
// (see handoff) before claiming another. A worker reuses one RNG and
// one grant channel across its cells, so the steady-state cell path
// does not allocate. It follows the executor contract — exactly-once
// reporting, key-derived seeding, cancelled jobs reported with
// ctx.Err() — and is safe for concurrent Execute calls, so any number
// of sweeps and tenants can share one budget.
func (b *Budget) Executor(tenant string) Executor {
	return &budgetExecutor{b: b, tenant: tenant}
}

type budgetExecutor struct {
	b      *Budget
	tenant string
}

func (e *budgetExecutor) Execute(ctx context.Context, sw SweepEnv, jobs []Job, report func(Result)) {
	workers := e.b.perTenant
	if workers > len(jobs) {
		workers = len(jobs)
	}
	x := &execution{budgetExecutor: e, ctx: ctx, sw: sw, jobs: jobs, report: report, drained: make(chan struct{})}
	x.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go x.work()
	}
	x.wg.Wait()
}

// execution is one Execute call's shared state.
type execution struct {
	*budgetExecutor
	ctx    context.Context
	sw     SweepEnv
	jobs   []Job
	report func(Result)
	next   atomic.Int64
	// drained is closed when the last cell index is claimed, waking
	// workers still queued for a slot.
	drained chan struct{}
	wg      sync.WaitGroup
}

// claim takes the next unclaimed cell index; false means none is left.
func (x *execution) claim() (int, bool) {
	i := int(x.next.Add(1) - 1)
	if i == len(x.jobs)-1 {
		close(x.drained)
	}
	return i, i < len(x.jobs)
}

func (x *execution) work() {
	defer x.wg.Done()
	var (
		// One RNG per worker, reseeded per cell: the sequence each cell
		// sees depends only on (seed, key), so reuse cannot be observed.
		rng   sim.RNG
		grant chan struct{}
	)
	if err := x.b.acquire(x.ctx, x.tenant, &grant, x.drained); err != nil {
		x.cancelRest(err)
		return
	}
	for {
		i, ok := x.claim()
		if !ok {
			x.b.Release(x.tenant)
			return
		}
		x.report(runJobSeeded(x.ctx, i, x.jobs[i], x.sw.Seed, x.sw.Catalog, &rng))
		if int(x.next.Load()) >= len(x.jobs) {
			x.b.Release(x.tenant)
			return
		}
		if x.b.handoff(x.tenant, &grant) {
			if err := x.b.wait(x.ctx, x.tenant, grant, x.drained); err != nil {
				x.cancelRest(err)
				return
			}
		}
	}
}

// cancelRest reports every cell not yet claimed as failed with err —
// none, when err is errDrained.
func (x *execution) cancelRest(err error) {
	for {
		i, ok := x.claim()
		if !ok {
			return
		}
		x.report(Result{Key: x.jobs[i].Key, Index: i, Err: err})
	}
}
