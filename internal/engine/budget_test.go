package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBudgetPerTenantCapAndFairHandoff(t *testing.T) {
	b := NewBudget(4, 2)
	ctx := context.Background()

	// alice takes her full per-tenant share...
	for i := 0; i < 2; i++ {
		if err := b.Acquire(ctx, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	// ...and queues for more, beyond her cap.
	granted := make(chan string, 8)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Acquire(ctx, "alice"); err == nil {
				granted <- "alice"
			}
		}()
	}
	// Free slots exist, but alice is capped; bob walks straight in.
	done := make(chan error, 1)
	go func() { done <- b.Acquire(ctx, "bob") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bob blocked behind a capped tenant despite free slots")
	}
	if b.Running("bob") != 1 {
		t.Fatalf("bob running %d, want 1", b.Running("bob"))
	}
	select {
	case who := <-granted:
		t.Fatalf("%s acquired beyond the per-tenant cap", who)
	default:
	}

	// Releasing alice's slots hands them to her FIFO waiters.
	b.Release("alice")
	b.Release("alice")
	deadline := time.Now().Add(5 * time.Second)
	for b.Running("alice") != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("released slots never reached alice's waiters (running=%d)", b.Running("alice"))
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	// Cancellation removes a waiter without leaking a slot.
	cctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.Acquire(cctx, "alice") }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled acquire: %v", err)
	}
	b.Release("alice")
	b.Release("alice")
	b.Release("bob")
	if got := b.Total(); got != 4 {
		t.Fatalf("slots leaked: total %d, want 4", got)
	}
}

// checkBudget verifies the budget's invariants under its lock, which
// hold whenever no budget method is mid-update: every slot is free or
// held (free + Σrunning == total), no tenant holds more than its cap,
// and no free slot sits idle while a tenant with headroom waits.
func checkBudget(b *Budget, total int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	sum := 0
	for tenant, r := range b.running {
		if r <= 0 || r > b.perTenant {
			return fmt.Errorf("tenant %q running %d, want 1..%d", tenant, r, b.perTenant)
		}
		sum += r
	}
	if b.free+sum != total {
		return fmt.Errorf("free %d + running %d != total %d", b.free, sum, total)
	}
	if b.free > 0 && b.waiterLocked() {
		return fmt.Errorf("%d slots free while an eligible tenant waits", b.free)
	}
	return nil
}

// TestBudgetInvariantsUnderRandomSchedule drives a budget through
// seeded random multi-tenant schedules of Acquire, Release, Execute and
// cancellation, checking the invariants after every operation and
// continuously from a watcher, and the per-tenant and total cell
// bounds from inside every cell.
func TestBudgetInvariantsUnderRandomSchedule(t *testing.T) {
	const total, perTenant = 4, 2
	tenants := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBudget(total, perTenant)

		stop := make(chan struct{})
		watcher := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					watcher <- nil
					return
				default:
				}
				if err := checkBudget(b, total); err != nil {
					watcher <- err
					return
				}
				runtime.Gosched()
			}
		}()

		var inFlight [3]int64
		var cellsTotal int64
		type waiter struct {
			tenant string
			cancel context.CancelFunc
			done   chan error
		}
		type sweep struct {
			cancel   context.CancelFunc
			done     chan struct{}
			reported int64
			jobs     int
		}
		var (
			held    []string
			waiters []*waiter
			sweeps  []*sweep
		)
		// collect moves waiters whose Acquire returned to held.
		collect := func(block bool) {
			kept := waiters[:0]
			for _, w := range waiters {
				var err error
				if block {
					err = <-w.done
				} else {
					select {
					case err = <-w.done:
					default:
						kept = append(kept, w)
						continue
					}
				}
				if err == nil {
					held = append(held, w.tenant)
				}
			}
			waiters = kept
		}
		for step := 0; step < 200; step++ {
			collect(false)
			switch rng.Intn(5) {
			case 0: // a bare Acquire, held until a later Release
				tenant := tenants[rng.Intn(len(tenants))]
				ctx, cancel := context.WithCancel(context.Background())
				w := &waiter{tenant: tenant, cancel: cancel, done: make(chan error, 1)}
				go func() { w.done <- b.Acquire(ctx, tenant) }()
				waiters = append(waiters, w)
			case 1: // Release a held slot
				if len(held) > 0 {
					i := rng.Intn(len(held))
					b.Release(held[i])
					held = append(held[:i], held[i+1:]...)
				}
			case 2: // cancel a waiting Acquire
				if len(waiters) > 0 {
					i := rng.Intn(len(waiters))
					w := waiters[i]
					w.cancel()
					if err := <-w.done; err == nil {
						held = append(held, w.tenant)
					}
					waiters = append(waiters[:i], waiters[i+1:]...)
				}
			case 3: // Execute a sweep under one tenant's executor
				ti := rng.Intn(len(tenants))
				ctx, cancel := context.WithCancel(context.Background())
				sw := &sweep{cancel: cancel, done: make(chan struct{}), jobs: 1 + rng.Intn(6)}
				jobs := make([]Job, sw.jobs)
				for i := range jobs {
					jobs[i] = Job{Key: fmt.Sprintf("s%d/c%d", step, i), Run: func(ctx context.Context, env Env) (interface{}, error) {
						if n := atomic.AddInt64(&inFlight[ti], 1); n > perTenant {
							t.Errorf("tenant %s has %d cells in flight, cap %d", tenants[ti], n, perTenant)
						}
						if n := atomic.AddInt64(&cellsTotal, 1); n > total {
							t.Errorf("%d cells in flight, budget %d", n, total)
						}
						runtime.Gosched()
						atomic.AddInt64(&cellsTotal, -1)
						atomic.AddInt64(&inFlight[ti], -1)
						return nil, nil
					}}
				}
				exec := b.Executor(tenants[ti])
				go func() {
					defer close(sw.done)
					exec.Execute(ctx, SweepEnv{Seed: 1}, jobs, func(Result) { atomic.AddInt64(&sw.reported, 1) })
				}()
				sweeps = append(sweeps, sw)
			case 4: // cancel a sweep
				if len(sweeps) > 0 {
					sweeps[rng.Intn(len(sweeps))].cancel()
				}
			}
			for i := 0; i < 4; i++ {
				runtime.Gosched()
			}
			if err := checkBudget(b, total); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}

		// Drain: cancel every waiter, release every held slot, and let
		// every sweep finish; the budget must end whole and idle.
		for _, w := range waiters {
			w.cancel()
		}
		collect(true)
		for _, tenant := range held {
			b.Release(tenant)
		}
		for _, sw := range sweeps {
			<-sw.done
			sw.cancel()
			if got := atomic.LoadInt64(&sw.reported); got != int64(sw.jobs) {
				t.Errorf("seed %d: sweep reported %d of %d jobs", seed, got, sw.jobs)
			}
		}
		close(stop)
		if err := <-watcher; err != nil {
			t.Fatalf("seed %d: watcher: %v", seed, err)
		}
		if err := checkBudget(b, total); err != nil {
			t.Fatalf("seed %d: after drain: %v", seed, err)
		}
		if b.free != total {
			t.Fatalf("seed %d: %d of %d slots free after drain", seed, b.free, total)
		}
	}
}

// TestBudgetFinishedWorkerCompetesWithWaiter: a worker that has just
// finished a cell does not keep its slot while another tenant waits; it
// re-queues and the slot goes to the tenant with the fewest running
// cells, then comes back to the worker when that tenant releases it.
func TestBudgetFinishedWorkerCompetesWithWaiter(t *testing.T) {
	b := NewBudget(2, 2)
	gates := []chan struct{}{make(chan struct{}), make(chan struct{}), nil}
	started := make(chan int, 3)
	jobs := make([]Job, 3)
	for i := range jobs {
		i := i
		jobs[i] = Job{Key: fmt.Sprintf("c%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
			started <- i
			if gates[i] != nil {
				<-gates[i]
			}
			return nil, nil
		}}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Executor("alice").Execute(context.Background(), SweepEnv{}, jobs, func(Result) {})
	}()
	<-started
	<-started // alice holds both slots

	bob := make(chan error, 1)
	go func() { bob <- b.Acquire(context.Background(), "bob") }()
	waitFor(t, "bob to queue", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.queues["bob"]) == 1
	})

	// alice's worker finishes a cell with cell 2 still unclaimed:
	// after its release alice runs 1 cell and bob 0, so bob wins.
	close(gates[0])
	if err := <-bob; err != nil {
		t.Fatal(err)
	}
	if a, bb := b.Running("alice"), b.Running("bob"); a != 1 || bb != 1 {
		t.Fatalf("running alice=%d bob=%d, want 1 and 1", a, bb)
	}
	select {
	case i := <-started:
		t.Fatalf("cell %d started while bob held the handed-off slot", i)
	case <-time.After(20 * time.Millisecond):
	}

	// bob's release goes back to alice's queued worker.
	b.Release("bob")
	if i := <-started; i != 2 {
		t.Fatalf("started cell %d, want 2", i)
	}
	close(gates[1])
	<-done
	if err := checkBudget(b, 2); err != nil {
		t.Fatal(err)
	}
	if b.free != 2 {
		t.Fatalf("%d slots free after the sweep, want 2", b.free)
	}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBudgetDrainedSweepReturnsWithoutSlot: once another worker has
// claimed a sweep's last cell, its workers still queued for a slot
// leave the queue, so the sweep returns as soon as its cells are done
// instead of waiting behind other sweeps' long cells for a slot it
// does not need.
func TestBudgetDrainedSweepReturnsWithoutSlot(t *testing.T) {
	b := NewBudget(2, 0)
	exec := b.Executor("")
	queued := func(n int) func() bool {
		return func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return len(b.queues[""]) == n
		}
	}
	blocking := func(gate chan struct{}, n int) []Job {
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{Key: fmt.Sprintf("c%d", i), Run: func(ctx context.Context, env Env) (interface{}, error) {
				<-gate
				return nil, nil
			}}
		}
		return jobs
	}
	run := func(jobs []Job) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			exec.Execute(context.Background(), SweepEnv{}, jobs, func(Result) {})
		}()
		return done
	}

	// Sweep B's two long cells hold both slots.
	gateB0, gateB1 := make(chan struct{}), make(chan struct{})
	bDone := run([]Job{blocking(gateB0, 1)[0], blocking(gateB1, 1)[0]})
	waitFor(t, "sweep B to hold both slots", func() bool { return b.Running("") == 2 })
	// Sweep A's two instant cells queue two workers, then sweep C's
	// long cell queues one behind them.
	aDone := run(blocking(closedGate(), 2))
	waitFor(t, "sweep A's workers to queue", queued(2))
	gateC := make(chan struct{})
	cDone := run(blocking(gateC, 1))
	waitFor(t, "sweep C's worker to queue", queued(3))

	// One of B's cells ends: A's first worker runs a cell and re-queues
	// behind C, its second takes the last cell — which must release the
	// first from the queue, while C's long cell holds the freed slot.
	close(gateB0)
	select {
	case <-aDone:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep A waited for a slot after its last cell was claimed")
	}
	close(gateB1)
	close(gateC)
	<-bDone
	<-cDone
	if err := checkBudget(b, 2); err != nil {
		t.Fatal(err)
	}
}

func closedGate() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}
