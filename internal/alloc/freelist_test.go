package alloc

import (
	"errors"
	"fmt"
	"testing"

	"dsa/internal/sim"
)

// This file pins the free-list index to the original implementation: a
// trimmed copy of the seed heap (full-list linear scans, the exact
// probe accounting the experiment tables were generated with) is driven
// in lockstep with the real heap through random operation sequences,
// and every observable — chosen addresses, error classes, probe and
// coalesce counters, the full block list — must match at every step.

type refBlock struct {
	addr, size int
	free       bool
	requested  int
	prev, next *refBlock
}

type refHeap struct {
	size        int
	mode        Mode
	head        *refBlock
	byAddr      map[int]*refBlock
	minFragment int
	rover       int // next-fit state

	probes, coalesces int64
	allocated         int
}

func newRefHeap(size int, mode Mode) *refHeap {
	r := &refHeap{size: size, mode: mode, byAddr: make(map[int]*refBlock), minFragment: 1}
	r.head = &refBlock{addr: 0, size: size, free: true}
	return r
}

// choose reproduces the seed policies' full-list scans by name.
func (r *refHeap) choose(policy string, n int) (*refBlock, bool) {
	switch policy {
	case "first-fit", "rice-chain":
		for b := r.head; b != nil; b = b.next {
			r.probes++
			if b.free && b.size >= n {
				return b, false
			}
		}
		return nil, false
	case "best-fit":
		var best *refBlock
		for b := r.head; b != nil; b = b.next {
			r.probes++
			if !b.free || b.size < n {
				continue
			}
			if best == nil || b.size < best.size {
				best = b
				if best.size == n {
					break
				}
			}
		}
		return best, false
	case "worst-fit":
		var best *refBlock
		for b := r.head; b != nil; b = b.next {
			r.probes++
			if !b.free || b.size < n {
				continue
			}
			if best == nil || b.size > best.size {
				best = b
			}
		}
		return best, false
	case "next-fit":
		for b := r.head; b != nil; b = b.next {
			if b.addr+b.size <= r.rover {
				continue
			}
			r.probes++
			if b.free && b.size >= n {
				r.rover = b.addr + n
				return b, false
			}
		}
		for b := r.head; b != nil && b.addr < r.rover; b = b.next {
			r.probes++
			if b.free && b.size >= n {
				r.rover = b.addr + n
				return b, false
			}
		}
		return nil, false
	case "two-ended":
		if n < 256 {
			return r.choose("first-fit", n)
		}
		var best *refBlock
		for b := r.head; b != nil; b = b.next {
			r.probes++
			if b.free && b.size >= n {
				best = b
			}
		}
		return best, true
	}
	panic("unknown policy " + policy)
}

func (r *refHeap) alloc(policy string, n int) (int, bool) {
	b, carveHigh := r.choose(policy, n)
	if b == nil && r.mode == CoalesceDeferred {
		if r.coalesceAll() > 0 {
			b, carveHigh = r.choose(policy, n)
		}
	}
	if b == nil {
		return 0, false
	}
	got := r.carve(b, n, carveHigh)
	got.free = false
	got.requested = n
	r.byAddr[got.addr] = got
	r.allocated += got.size
	return got.addr, true
}

func (r *refHeap) carve(b *refBlock, n int, carveHigh bool) *refBlock {
	rem := b.size - n
	if rem < r.minFragment {
		return b
	}
	if carveHigh {
		nb := &refBlock{addr: b.addr + rem, size: n}
		b.size = rem
		r.insertAfter(b, nb)
		return nb
	}
	nb := &refBlock{addr: b.addr + n, size: rem, free: true}
	b.size = n
	r.insertAfter(b, nb)
	return b
}

func (r *refHeap) insertAfter(b, nb *refBlock) {
	nb.prev = b
	nb.next = b.next
	if b.next != nil {
		b.next.prev = nb
	}
	b.next = nb
}

func (r *refHeap) freeAddr(addr int) bool {
	b, ok := r.byAddr[addr]
	if !ok {
		return false
	}
	delete(r.byAddr, addr)
	r.allocated -= b.size
	b.free = true
	b.requested = 0
	if r.mode == CoalesceImmediate {
		if p := b.prev; p != nil && p.free {
			p.size += b.size
			p.next = b.next
			if b.next != nil {
				b.next.prev = p
			}
			r.coalesces++
			b = p
		}
		if n := b.next; n != nil && n.free {
			b.size += n.size
			b.next = n.next
			if n.next != nil {
				n.next.prev = b
			}
			r.coalesces++
		}
	}
	return true
}

func (r *refHeap) coalesceAll() int {
	merges := 0
	for b := r.head; b != nil; {
		if b.free && b.next != nil && b.next.free {
			n := b.next
			b.size += n.size
			b.next = n.next
			if n.next != nil {
				n.next.prev = b
			}
			merges++
			continue
		}
		b = b.next
	}
	r.coalesces += int64(merges)
	return merges
}

func (r *refHeap) compact() {
	next := 0
	var order []*refBlock
	for b := r.head; b != nil; b = b.next {
		if b.free {
			continue
		}
		if b.addr != next {
			delete(r.byAddr, b.addr)
			b.addr = next
			r.byAddr[b.addr] = b
		}
		next += b.size
		order = append(order, b)
	}
	r.head = nil
	var tail *refBlock
	link := func(b *refBlock) {
		b.prev = tail
		b.next = nil
		if tail != nil {
			tail.next = b
		} else {
			r.head = b
		}
		tail = b
	}
	for _, b := range order {
		link(b)
	}
	if next < r.size {
		link(&refBlock{addr: next, size: r.size - next, free: true})
	}
}

func (r *refHeap) blocks() []Block {
	var out []Block
	for b := r.head; b != nil; b = b.next {
		out = append(out, Block{Addr: b.addr, Size: b.size, Free: b.free, Requested: b.requested})
	}
	return out
}

func (r *refHeap) largestFree() int {
	best := 0
	for b := r.head; b != nil; b = b.next {
		if b.free && b.size > best {
			best = b.size
		}
	}
	return best
}

func (r *refHeap) freeBlockCount() int {
	n := 0
	for b := r.head; b != nil; b = b.next {
		if b.free {
			n++
		}
	}
	return n
}

func mkPolicy(name string) Policy {
	switch name {
	case "first-fit":
		return FirstFit{}
	case "best-fit":
		return BestFit{}
	case "worst-fit":
		return WorstFit{}
	case "next-fit":
		return &NextFit{}
	case "two-ended":
		return TwoEnded{Threshold: 256}
	case "rice-chain":
		return RiceChain{}
	}
	panic("unknown policy " + name)
}

func compareState(t *testing.T, step int, h *Heap, r *refHeap) {
	t.Helper()
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if h.probes != r.probes {
		t.Fatalf("step %d: probes %d, reference %d", step, h.probes, r.probes)
	}
	if h.coalesces != r.coalesces {
		t.Fatalf("step %d: coalesces %d, reference %d", step, h.coalesces, r.coalesces)
	}
	if got, want := h.LargestFree(), r.largestFree(); got != want {
		t.Fatalf("step %d: largest free %d, reference %d", step, got, want)
	}
	if got, want := h.FreeBlockCount(), r.freeBlockCount(); got != want {
		t.Fatalf("step %d: free blocks %d, reference %d", step, got, want)
	}
	hb, rb := h.Blocks(), r.blocks()
	if len(hb) != len(rb) {
		t.Fatalf("step %d: %d blocks, reference %d", step, len(hb), len(rb))
	}
	for i := range hb {
		got := Block{Addr: hb[i].Addr, Size: hb[i].Size, Free: hb[i].Free, Requested: hb[i].Requested}
		if got != rb[i] {
			t.Fatalf("step %d: block %d = %+v, reference %+v", step, i, got, rb[i])
		}
	}
}

// TestFreeListMatchesReference drives the indexed heap and the seed
// implementation through identical random workloads for every policy
// and coalescing mode and requires identical state throughout —
// including the probe counters the experiment tables print.
func TestFreeListMatchesReference(t *testing.T) {
	policies := []string{"first-fit", "best-fit", "worst-fit", "next-fit", "two-ended", "rice-chain"}
	for _, pol := range policies {
		for _, mode := range []Mode{CoalesceImmediate, CoalesceDeferred} {
			name := fmt.Sprintf("%s/mode=%d", pol, mode)
			t.Run(name, func(t *testing.T) {
				const heapSize = 4096
				h := New(heapSize, mkPolicy(pol), mode)
				r := newRefHeap(heapSize, mode)
				rng := sim.NewRNG(99)
				var live []int
				for step := 0; step < 4000; step++ {
					switch op := rng.Intn(20); {
					case op < 11: // alloc, biased to fill the heap
						n := 1 + rng.Intn(600)
						addr, err := h.Alloc(n)
						raddr, rok := r.alloc(pol, n)
						if (err == nil) != rok {
							t.Fatalf("step %d: alloc(%d) err=%v, reference ok=%v", step, n, err, rok)
						}
						if err == nil {
							if addr != raddr {
								t.Fatalf("step %d: alloc(%d) = %d, reference %d", step, n, addr, raddr)
							}
							live = append(live, addr)
						} else if !errors.Is(err, ErrNoSpace) {
							t.Fatalf("step %d: alloc(%d) unexpected error %v", step, n, err)
						}
					case op < 18: // free a random live block
						if len(live) == 0 {
							continue
						}
						j := rng.Intn(len(live))
						addr := live[j]
						live = append(live[:j], live[j+1:]...)
						if err := h.Free(addr); err != nil {
							t.Fatalf("step %d: free(%d): %v", step, addr, err)
						}
						if !r.freeAddr(addr) {
							t.Fatalf("step %d: reference missing block %d", step, addr)
						}
					case op < 19: // occasional explicit coalesce
						if got, want := h.CoalesceAll(), r.coalesceAll(); got != want {
							t.Fatalf("step %d: CoalesceAll %d, reference %d", step, got, want)
						}
					default: // occasional compaction
						moves := h.Compact()
						r.compact()
						// Compaction rewrites addresses; refresh the handles.
						live = live[:0]
						for _, b := range h.Blocks() {
							if !b.Free {
								live = append(live, b.Addr)
							}
						}
						_ = moves
					}
					if step%37 == 0 || step > 3900 {
						compareState(t, step, h, r)
					}
				}
				compareState(t, 4000, h, r)
			})
		}
	}
}

// chunkShape walks the free-list chunks and reports how many there
// are and how many carry a stale bound (above their largest member).
func chunkShape(h *Heap) (chunks, stale int) {
	for b := h.freeHead; b != nil; {
		c := b.chunk
		hi := 0
		for x := c.first; ; x = x.freeNext {
			hi = max(hi, x.Size)
			if x == c.last {
				break
			}
		}
		chunks++
		if c.max > hi {
			stale++
		}
		b = c.last.freeNext
	}
	return chunks, stale
}

// TestLongChainsMatchReference is the lockstep test in the regime the
// 4096-word one never reaches: many small requests in a large heap, so
// the free list (under deferred coalescing especially) runs to many
// times 2*chunkK blocks. Chunks split, merge and go stale, CoalesceAll
// and Compact rebuild them. Probes are compared with the full-list
// reference after every step, the whole state every 100 steps.
func TestLongChainsMatchReference(t *testing.T) {
	const steps = 8000
	policies := []string{"first-fit", "best-fit", "worst-fit", "next-fit", "two-ended", "rice-chain"}
	for _, pol := range policies {
		for _, mode := range []Mode{CoalesceImmediate, CoalesceDeferred} {
			t.Run(fmt.Sprintf("%s/mode=%d", pol, mode), func(t *testing.T) {
				const heapSize = 1 << 16
				h := New(heapSize, mkPolicy(pol), mode)
				r := newRefHeap(heapSize, mode)
				rng := sim.NewRNG(7)
				var live []int
				longest, mostChunks, staleSeen, coalesced := 0, 0, 0, 0
				filled := false // allocate-heavy until the first failure
				alloc := func(step, n int) {
					addr, err := h.Alloc(n)
					raddr, rok := r.alloc(pol, n)
					if (err == nil) != rok {
						t.Fatalf("step %d: alloc(%d) err=%v, reference ok=%v", step, n, err, rok)
					}
					if err == nil {
						if addr != raddr {
							t.Fatalf("step %d: alloc(%d) = %d, reference %d", step, n, addr, raddr)
						}
						live = append(live, addr)
					}
					filled = filled || err != nil
				}
				for step := 0; step < steps; step++ {
					allocShare := 500
					if !filled {
						allocShare = 800
					}
					switch op := rng.Intn(1000); {
					case op < allocShare:
						// Mostly small requests, a few large enough to
						// make the search pass over long runs of holes.
						n := 1 + rng.Intn(24)
						if rng.Intn(20) == 0 {
							n = 40 + rng.Intn(400)
						}
						alloc(step, n)
					case op < allocShare+3:
						// A burst of tiny requests eats the lowest holes
						// whole, so the front chunks shrink and merge.
						for i := 0; i < 200; i++ {
							alloc(step, 1+rng.Intn(2))
						}
					case op < 996:
						if len(live) == 0 {
							continue
						}
						j := rng.Intn(len(live))
						addr := live[j]
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						if err := h.Free(addr); err != nil {
							t.Fatalf("step %d: free(%d): %v", step, addr, err)
						}
						if !r.freeAddr(addr) {
							t.Fatalf("step %d: reference missing block %d", step, addr)
						}
					case op < 999:
						got, want := h.CoalesceAll(), r.coalesceAll()
						if got != want {
							t.Fatalf("step %d: CoalesceAll %d, reference %d", step, got, want)
						}
						coalesced += got
					default:
						h.Compact()
						r.compact()
						live = live[:0]
						for _, b := range h.Blocks() {
							if !b.Free {
								live = append(live, b.Addr)
							}
						}
					}
					longest = max(longest, h.FreeBlockCount())
					if h.probes != r.probes {
						t.Fatalf("step %d: probes %d, reference %d", step, h.probes, r.probes)
					}
					if step%100 == 0 {
						chunks, stale := chunkShape(h)
						mostChunks = max(mostChunks, chunks)
						staleSeen += stale
						compareState(t, step, h, r)
					}
				}
				compareState(t, steps, h, r)
				// The policies the chunk walk serves must reach the regime.
				if mode == CoalesceDeferred && (pol == "first-fit" || pol == "rice-chain") {
					if longest <= 5*2*chunkK || mostChunks <= 5 || staleSeen == 0 || coalesced == 0 {
						t.Fatalf("regime not reached: longest free list %d, most chunks %d, stale bounds seen %d, CoalesceAll merges %d",
							longest, mostChunks, staleSeen, coalesced)
					}
				}
				t.Logf("longest free list %d, most chunks %d, stale bounds seen %d, CoalesceAll merges %d",
					longest, mostChunks, staleSeen, coalesced)
			})
		}
	}
}

// TestHeapSteadyStateAllocs pins the allocation behaviour of the
// rewritten free list: once warm, an alloc/free cycle runs without any
// heap allocations (the block and chunk pools and the block index
// absorb all churn), so sweeps no longer pay GC for allocator
// bookkeeping.
func TestHeapSteadyStateAllocs(t *testing.T) {
	t.Run("whole-block cycle", func(t *testing.T) {
		h := New(1024, FirstFit{}, CoalesceImmediate)
		addrs := make([]int, 0, 8)
		cycle := func() {
			for len(addrs) > 0 {
				last := len(addrs) - 1
				if err := h.Free(addrs[last]); err != nil {
					t.Fatal(err)
				}
				addrs = addrs[:last]
			}
			for i := 0; i < 8; i++ {
				a, err := h.Alloc(128)
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, a)
			}
		}
		cycle() // warm: establishes the 8 blocks and the map size
		cycle()
		if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
			t.Fatalf("steady-state alloc/free cycle allocates %.1f times per run", avg)
		}
	})
	t.Run("split-coalesce cycle", func(t *testing.T) {
		h := New(1024, BestFit{}, CoalesceImmediate)
		cycle := func() {
			a, err := h.Alloc(100)
			if err != nil {
				t.Fatal(err)
			}
			b, err := h.Alloc(200)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Free(a); err != nil {
				t.Fatal(err)
			}
			if err := h.Free(b); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm the block pool
		cycle()
		if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
			t.Fatalf("split+coalesce cycle allocates %.1f times per run", avg)
		}
	})
	t.Run("deferred coalesce cycle", func(t *testing.T) {
		const blocks = 100 // past 2*chunkK, so the free list splits chunks
		h := New(blocks*128, RiceChain{}, CoalesceDeferred)
		addrs := make([]int, 0, blocks)
		cycle := func() {
			for i := 0; i < blocks; i++ {
				a, err := h.Alloc(128)
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, a)
			}
			for _, a := range addrs {
				if err := h.Free(a); err != nil {
					t.Fatal(err)
				}
			}
			addrs = addrs[:0]
			// The freed blocks stay apart until this request fails and
			// CoalesceAll merges them and rebuilds the chunks.
			a, err := h.Alloc(blocks * 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Free(a); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm the block and chunk pools and the index
		cycle()
		if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
			t.Fatalf("deferred alloc/free/coalesce cycle allocates %.1f times per run", avg)
		}
		if c := h.Counters(); c.Coalesces == 0 {
			t.Fatal("cycle never coalesced")
		}
	})
}
