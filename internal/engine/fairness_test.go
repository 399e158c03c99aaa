package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// TestBudgetTieBreakIsUniform checks Budget's fairness property: with k
// equally starved tenants waiting, each gets the next freed slot with
// probability 1/k, whatever the order of queueing and release.
//
// The schedule is adversarial and adapts to the coin: every trial, the
// previous trial's winner queues first and the rest follow in reverse
// name order, and the slot is freed by a holder tenant — so a dispatcher
// that favoured the first or last waiter, or the least or greatest name,
// would hand one tenant nearly every slot. Over n trials each tenant's
// win count is Binomial(n, 1/k); the test requires every count within
// 5σ of n/k (σ = sqrt(n·(1/k)·(1−1/k))), which a fair draw misses with
// probability below 3e-6. The seed is fixed, so the run is deterministic.
func TestBudgetTieBreakIsUniform(t *testing.T) {
	const k, n = 4, 4000
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(18, 6))
	tenants := make([]string, k)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	wins := make([]int, k)
	prev := 0
	for trial := 0; trial < n; trial++ {
		b := NewBudget(1, 0)
		b.rng = rng
		if err := b.Acquire(ctx, "holder"); err != nil {
			t.Fatal(err)
		}
		order := []int{prev}
		for i := k - 1; i >= 0; i-- {
			if i != prev {
				order = append(order, i)
			}
		}
		grants := make([]chan struct{}, k)
		b.mu.Lock()
		for _, i := range order {
			b.enqueueLocked(tenants[i], &grants[i])
		}
		b.mu.Unlock()
		b.Release("holder")

		winner := -1
		for i, g := range grants {
			select {
			case <-g:
				if winner >= 0 {
					t.Fatalf("trial %d: one slot granted to %s and %s", trial, tenants[winner], tenants[i])
				}
				winner = i
			default:
			}
		}
		if winner < 0 {
			t.Fatalf("trial %d: freed slot granted to nobody", trial)
		}
		wins[winner]++
		prev = winner
	}
	mean := float64(n) / k
	sigma := math.Sqrt(n * (1.0 / k) * (1 - 1.0/k))
	for i, w := range wins {
		if math.Abs(float64(w)-mean) > 5*sigma {
			t.Errorf("%s won %d of %d slots, want %.0f ± %.0f (5σ)", tenants[i], w, n, mean, 5*sigma)
		}
	}
}
