package mapping

import (
	"fmt"
	"testing"

	"dsa/internal/addr"
	"dsa/internal/sim"
)

// refTLB is the seed associative memory: frame and recency-stamp maps,
// eviction by scanning every register for the minimum stamp. The
// stamps are unique, so min-stamp eviction is strict LRU — which is
// what the intrusive recency list must reproduce exactly.
type refTLB struct {
	capacity int
	frames   map[TLBKey]int
	stamp    map[TLBKey]uint64
	clock    uint64
	hits     int64
	misses   int64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{
		capacity: capacity,
		frames:   make(map[TLBKey]int, capacity),
		stamp:    make(map[TLBKey]uint64, capacity),
	}
}

func (t *refTLB) lookup(k TLBKey) (int, bool) {
	f, ok := t.frames[k]
	if ok {
		t.hits++
		t.clock++
		t.stamp[k] = t.clock
		return f, true
	}
	t.misses++
	return 0, false
}

func (t *refTLB) install(k TLBKey, frame int) {
	if t.capacity == 0 {
		return
	}
	if _, ok := t.frames[k]; !ok && len(t.frames) >= t.capacity {
		var victim TLBKey
		var oldest uint64
		first := true
		for key, s := range t.stamp {
			if first || s < oldest {
				victim = key
				oldest = s
				first = false
			}
		}
		delete(t.frames, victim)
		delete(t.stamp, victim)
	}
	t.frames[k] = frame
	t.clock++
	t.stamp[k] = t.clock
}

func (t *refTLB) invalidate(k TLBKey) {
	delete(t.frames, k)
	delete(t.stamp, k)
}

func (t *refTLB) flush() {
	clear(t.frames)
	clear(t.stamp)
}

// listEntry is one register of listTLB.
type listEntry struct {
	key        TLBKey
	frame      int
	prev, next *listEntry
}

// listTLB is the associative memory the register array replaced: a map
// from key to register, threaded on an intrusive recency list whose
// tail is the LRU victim, with a free list of recycled registers.
type listTLB struct {
	capacity   int
	entries    map[TLBKey]*listEntry
	head, tail *listEntry
	free       *listEntry
	hits       int64
	misses     int64
}

func newListTLB(capacity int) *listTLB {
	return &listTLB{capacity: capacity, entries: make(map[TLBKey]*listEntry, capacity)}
}

func (t *listTLB) pushFront(e *listEntry) {
	e.prev = nil
	e.next = t.head
	if t.head != nil {
		t.head.prev = e
	} else {
		t.tail = e
	}
	t.head = e
}

func (t *listTLB) unlink(e *listEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
}

func (t *listTLB) release(e *listEntry) {
	*e = listEntry{next: t.free}
	t.free = e
}

func (t *listTLB) lookup(k TLBKey) (int, bool) {
	e, ok := t.entries[k]
	if !ok {
		t.misses++
		return 0, false
	}
	t.hits++
	t.unlink(e)
	t.pushFront(e)
	return e.frame, true
}

func (t *listTLB) install(k TLBKey, frame int) {
	if t.capacity == 0 {
		return
	}
	if e, ok := t.entries[k]; ok {
		e.frame = frame
		t.unlink(e)
		t.pushFront(e)
		return
	}
	if len(t.entries) >= t.capacity {
		victim := t.tail
		t.unlink(victim)
		delete(t.entries, victim.key)
		t.release(victim)
	}
	e := t.free
	if e == nil {
		e = &listEntry{}
	} else {
		t.free = e.next
		*e = listEntry{}
	}
	e.key = k
	e.frame = frame
	t.pushFront(e)
	t.entries[k] = e
}

func (t *listTLB) invalidate(k TLBKey) {
	if e, ok := t.entries[k]; ok {
		t.unlink(e)
		delete(t.entries, k)
		t.release(e)
	}
}

func (t *listTLB) flush() {
	for k, e := range t.entries {
		delete(t.entries, k)
		t.release(e)
	}
	t.head, t.tail = nil, nil
}

// TestTLBMatchesReference drives the register-array TLB, the
// recency-list TLB it replaced and the seed stamp-map implementation
// through identical random workloads and requires identical lookup
// results, statistics, and (critically) identical eviction decisions
// throughout.
func TestTLBMatchesReference(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 8, 9, 44} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			tlb := NewTLB(capacity)
			ref := newRefTLB(capacity)
			list := newListTLB(capacity)
			rng := sim.NewRNG(uint64(capacity) + 17)
			key := func() TLBKey {
				return TLBKey{
					Seg:  addr.SegID(rng.Intn(4)),
					Page: uint64(rng.Intn(3 * (capacity + 2))),
				}
			}
			for step := 0; step < 8000; step++ {
				switch op := rng.Intn(20); {
				case op < 10:
					k := key()
					gf, gok := tlb.Lookup(k)
					wf, wok := ref.lookup(k)
					lf, lok := list.lookup(k)
					if gok != wok || (gok && gf != wf) || lok != wok || lf != wf {
						t.Fatalf("step %d: Lookup(%v) = (%d,%v), references (%d,%v) and (%d,%v)",
							step, k, gf, gok, wf, wok, lf, lok)
					}
				case op < 18:
					k := key()
					f := rng.Intn(256)
					tlb.Install(k, f)
					ref.install(k, f)
					list.install(k, f)
				case op < 19:
					k := key()
					tlb.InvalidatePage(k)
					ref.invalidate(k)
					list.invalidate(k)
				default:
					if rng.Intn(10) == 0 { // flushes are rare
						tlb.Flush()
						ref.flush()
						list.flush()
					}
				}
				if tlb.Len() != len(ref.frames) || len(list.entries) != len(ref.frames) {
					t.Fatalf("step %d: Len = %d, references %d and %d",
						step, tlb.Len(), len(ref.frames), len(list.entries))
				}
				h, m := tlb.Stats()
				if h != ref.hits || m != ref.misses {
					t.Fatalf("step %d: stats (%d,%d), reference (%d,%d)", step, h, m, ref.hits, ref.misses)
				}
			}
			// The register contents themselves must agree at the end.
			for k, f := range ref.frames {
				if got, ok := tlb.Lookup(k); !ok || got != f {
					t.Fatalf("final: entry %v = (%d,%v), reference %d", k, got, ok, f)
				}
			}
		})
	}
}

// TestTLBSteadyStateAllocs pins the install/evict hot path: the
// miss→install→evict churn of a sweep must not allocate.
func TestTLBSteadyStateAllocs(t *testing.T) {
	tlb := NewTLB(8)
	page := uint64(0)
	cycle := func() {
		for i := 0; i < 16; i++ {
			page++
			k := TLBKey{Seg: 1, Page: page % 24}
			if _, ok := tlb.Lookup(k); !ok {
				tlb.Install(k, int(page)%32)
			}
		}
	}
	cycle() // warm: fills the registers
	if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
		t.Fatalf("TLB lookup/install/evict cycle allocates %.1f times per run", avg)
	}
}
