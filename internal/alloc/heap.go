// Package alloc implements dynamic storage allocation with a
// *nonuniform* unit of allocation — the paper's fourth characteristic
// in its variable-size form — together with the placement strategies
// its Placement Strategies section discusses:
//
//   - first fit ("a common and frequently satisfactory strategy is to
//     place the information in the smallest space which is sufficient"
//     describes best fit; first fit is the cheaper common default),
//   - best fit (B5000: "choosing the smallest available block of
//     sufficient size"),
//   - two-ended ("place large blocks of information starting at one
//     end of storage and small blocks starting at the other"),
//   - the Rice University inactive-block chain with deferred
//     coalescing (Appendix A.4),
//   - next fit and worst fit as baselines,
//
// plus storage packing (compaction), the "corrective data movement"
// alternative to tolerating fragmentation.
//
// The heap is a word-addressed range managed as an address-ordered
// doubly linked list of blocks, so external fragmentation, search
// effort (probes), and failure modes are all directly measurable.
//
// Alongside the full block list the heap threads an intrusive list of
// just the free blocks, in the same address order, with a per-free-
// block count of the allocated blocks immediately preceding it (its
// "gap"). Placement policies walk the free list — skipping allocated
// runs in O(1) — while the gap counts let them report exactly the
// probe totals a linear scan of the full list would have accumulated,
// so the measured search effort (and every golden table derived from
// it) is byte-identical to the original implementation. The probes
// counter remains the *model's* cost of a sequential search; the free
// list is only how the simulator computes it quickly.
//
// The free list is cut into chunks: runs of at most 2*chunkK
// consecutive free blocks, each recording its block count, the sum of
// gap+1 over its members, and an upper bound on its largest member.
// The bound is raised when a member grows and left alone when one
// shrinks or leaves, so it may be stale but never too low; a scan that
// finds no fit resets it to the exact maximum it saw. First fit (and
// so the Rice chain and two-ended's small requests) skips a chunk whose
// bound is below the request, adding the chunk's gap+1 sum to the probe
// position: every member is too small, so the linear walk would have
// charged exactly that sum and chosen none of them. Skipping is thus
// exact however stale the bound, and chunk upkeep is O(1) per change
// (O(chunkK) when a chunk splits or merges).
//
// There is no balanced tree over the free blocks. Free lists are short
// under immediate coalescing — T2's first fit walks about 15 free
// blocks per search — and long only under deferred coalescing, where
// the Rice chain walks up to 375. An address-ordered treap augmented
// with subtree maxima and gap sums gave the same exact probes but made
// every T2 cell 1.8× slower: its upkeep costs more than a 15-block walk
// saves.
package alloc

import (
	"errors"
	"fmt"

	"dsa/internal/metrics"
)

// ErrNoSpace reports an allocation failure.
var ErrNoSpace = errors.New("alloc: no space")

// ErrBadFree reports a Free of an address that is not the base of an
// allocated block.
var ErrBadFree = errors.New("alloc: bad free")

// Allocation failures are returned as cached errors: adversarial
// workloads fail tens of thousands of times per cell, and callers only
// ever test errors.Is(err, ErrNoSpace) — the request details are
// recoverable from Stats/Counters, so formatting them per failure
// bought nothing but garbage.
var (
	errFragmented = fmt.Errorf("%w: request fragmented (sufficient free words, no hole)", ErrNoSpace)
	errExhausted  = fmt.Errorf("%w: request exceeds free words", ErrNoSpace)
)

// Mode selects when free neighbours are merged.
type Mode int

const (
	// CoalesceImmediate merges a freed block with free neighbours at
	// Free time (boundary-tag style).
	CoalesceImmediate Mode = iota
	// CoalesceDeferred leaves freed blocks fragmented until an
	// allocation fails, then merges adjacent free blocks and retries —
	// the Rice University scheme: "an attempt is made to make [a block]
	// by finding groups of adjacent inactive blocks which can be
	// combined".
	CoalesceDeferred
)

// Block is one contiguous region of the heap.
type Block struct {
	// Addr is the block's base address (word index within the heap).
	Addr int
	// Size is the block's extent in words.
	Size int
	// Free reports whether the block is inactive.
	Free bool
	// Requested is the size originally asked for (Free blocks: 0);
	// Size-Requested is internal slack from unsplit remainders.
	Requested int

	prev, next *Block

	// freePrev/freeNext thread the free blocks, in address order.
	freePrev, freeNext *Block
	// gap is the number of allocated blocks between the previous free
	// block (or the list head) and this block. Meaningful only while
	// the block is on the free list.
	gap int
	// chunk is the free-list chunk holding this block while it is free.
	chunk *chunk
}

// chunkK sizes the free-list chunks: a chunk splits above 2*chunkK
// blocks, merges into its successor below chunkK/2, and a rebuild
// fills chunks of chunkK.
const chunkK = 32

// chunk summarizes a run of consecutive free-list blocks, first..last
// (see the package comment).
type chunk struct {
	first, last *Block
	n           int // member count
	cnt         int // sum of gap+1 over the members
	max         int // upper bound on the largest member's size
}

// Heap is a variable-unit storage allocator over [0, size) words.
type Heap struct {
	size   int
	policy Policy
	mode   Mode
	head   *Block
	tail   *Block
	byAddr blockIndex // allocated blocks by base address

	// Free-list index: the free blocks in address order, plus the
	// counters that keep probe accounting exact (see package comment).
	freeHead  *Block
	freeTail  *Block
	freeCount int
	blocks    int // total blocks on the full list
	tailGap   int // allocated blocks after the last free block

	// pool recycles Block nodes (linked through next), and spareChunks
	// chunk nodes, so steady-state alloc/free traffic does not allocate.
	pool        *Block
	spareChunks []*chunk

	// Compact scratch, reused across calls (see Compact's contract).
	moveScratch  []Move
	orderScratch []*Block

	// MinFragment is the smallest remainder worth keeping as a separate
	// free block; smaller remainders are left attached to the allocated
	// block as internal slack. 1 means always split.
	MinFragment int

	probes    int64
	allocs    int64
	frees     int64
	failures  int64 // failed allocations
	fragFails int64 // failures with sufficient total free words
	coalesces int64
	requested int
	allocated int
}

// New creates a heap of the given extent managed by the policy.
func New(size int, policy Policy, mode Mode) *Heap {
	if size <= 0 {
		panic("alloc: non-positive heap size")
	}
	if policy == nil {
		panic("alloc: nil policy")
	}
	h := &Heap{
		size:        size,
		policy:      policy,
		mode:        mode,
		MinFragment: 1,
	}
	h.head = &Block{Addr: 0, Size: size, Free: true}
	h.tail = h.head
	h.freeHead = h.head
	h.freeTail = h.head
	h.freeCount = 1
	h.blocks = 1
	h.buildChunks()
	return h
}

// Size reports the heap extent in words.
func (h *Heap) Size() int { return h.size }

// Policy reports the placement policy in use.
func (h *Heap) Policy() Policy { return h.policy }

// newBlock takes a node from the pool, or allocates one.
func (h *Heap) newBlock(addr, size int, free bool) *Block {
	b := h.pool
	if b == nil {
		return &Block{Addr: addr, Size: size, Free: free}
	}
	h.pool = b.next
	*b = Block{Addr: addr, Size: size, Free: free}
	return b
}

// releaseBlock returns a node no longer on any list to the pool.
func (h *Heap) releaseBlock(b *Block) {
	*b = Block{next: h.pool}
	h.pool = b
}

// newChunk takes an empty chunk node from the pool, or allocates one.
func (h *Heap) newChunk() *chunk {
	if k := len(h.spareChunks); k > 0 {
		c := h.spareChunks[k-1]
		h.spareChunks = h.spareChunks[:k-1]
		return c
	}
	return &chunk{}
}

// releaseChunk returns a chunk that no block references to the pool.
func (h *Heap) releaseChunk(c *chunk) {
	*c = chunk{}
	h.spareChunks = append(h.spareChunks, c)
}

// addGap adds delta to free block b's gap, keeping its chunk's sum.
func addGap(b *Block, delta int) {
	b.gap += delta
	b.chunk.cnt += delta
}

// grew raises the bound of free block b's chunk after b grew.
func grew(b *Block) {
	if c := b.chunk; b.Size > c.max {
		c.max = b.Size
	}
}

// chunkJoin adds b, already linked into the free list with its gap
// set, to the chunk of a free-list neighbour (or a new chunk when b is
// the only free block), splitting that chunk if it grows too long.
func (h *Heap) chunkJoin(b *Block) {
	var c *chunk
	if p := b.freePrev; p != nil {
		c = p.chunk
		if c.last == p {
			c.last = b
		}
	} else if nx := b.freeNext; nx != nil {
		c = nx.chunk
		c.first = b
	} else {
		c = h.newChunk()
		c.first, c.last = b, b
	}
	b.chunk = c
	c.n++
	c.cnt += b.gap + 1
	grew(b)
	if c.n > 2*chunkK {
		h.chunkSplit(c)
	}
}

// chunkSplit moves the upper half of c into a new chunk, recomputing
// both halves' sums and exact maxima.
func (h *Heap) chunkSplit(c *chunk) {
	keep := c.n / 2
	b := c.first
	cnt, hi := 0, 0
	for i := 0; ; i++ {
		cnt += b.gap + 1
		hi = max(hi, b.Size)
		if i == keep-1 {
			break
		}
		b = b.freeNext
	}
	d := h.newChunk()
	d.first, d.last = b.freeNext, c.last
	d.n, d.cnt = c.n-keep, c.cnt-cnt
	c.last, c.n, c.cnt, c.max = b, keep, cnt, hi
	for b = d.first; ; b = b.freeNext {
		b.chunk = d
		d.max = max(d.max, b.Size)
		if b == d.last {
			break
		}
	}
}

// chunkMerge folds the short chunk c into the chunk after it, if any.
func (h *Heap) chunkMerge(c *chunk) {
	nx := c.last.freeNext
	if nx == nil {
		return
	}
	d := nx.chunk
	for b := c.first; ; b = b.freeNext {
		b.chunk = d
		if b == c.last {
			break
		}
	}
	d.first = c.first
	d.n += c.n
	d.cnt += c.cnt
	d.max = max(d.max, c.max)
	h.releaseChunk(c)
	if d.n > 2*chunkK {
		h.chunkSplit(d)
	}
}

// dropChunks releases every chunk; the free blocks keep stale chunk
// pointers until buildChunks runs.
func (h *Heap) dropChunks() {
	for b := h.freeHead; b != nil; {
		c := b.chunk
		b = c.last.freeNext
		h.releaseChunk(c)
	}
}

// buildChunks cuts the free list into chunks of chunkK blocks with
// exact sums and maxima.
func (h *Heap) buildChunks() {
	var c *chunk
	for b := h.freeHead; b != nil; b = b.freeNext {
		if c == nil || c.n == chunkK {
			c = h.newChunk()
			c.first = b
		}
		b.chunk = c
		c.last = b
		c.n++
		c.cnt += b.gap + 1
		c.max = max(c.max, b.Size)
	}
}

// Alloc allocates n words and returns the base address. On failure
// with deferred coalescing it first combines adjacent inactive blocks
// and retries, as the Rice system did. The returned error wraps
// ErrNoSpace; Stats distinguishes fragmentation failures (enough total
// free words existed) from genuine exhaustion.
func (h *Heap) Alloc(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("alloc: non-positive request %d", n)
	}
	b, carveHigh := h.policy.Choose(h, n)
	if b == nil && h.mode == CoalesceDeferred {
		if h.CoalesceAll() > 0 {
			b, carveHigh = h.policy.Choose(h, n)
		}
	}
	if b == nil {
		h.failures++
		if h.FreeWords() >= n {
			h.fragFails++
			return 0, errFragmented
		}
		return 0, errExhausted
	}
	if !b.Free || b.Size < n {
		panic("alloc: policy returned unusable block")
	}
	got := h.carve(b, n, carveHigh)
	got.Free = false
	got.Requested = n
	h.byAddr.insert(got)
	h.allocs++
	h.requested += n
	h.allocated += got.Size
	return got.Addr, nil
}

// carve splits free block b to produce an allocated block of at least n
// words, from the low end (carveHigh false) or high end (true). The
// remainder, if any and at least MinFragment, stays free.
func (h *Heap) carve(b *Block, n int, carveHigh bool) *Block {
	rem := b.Size - n
	if rem < h.MinFragment {
		// Allocate the whole block; slack becomes internal. The run of
		// allocated blocks before b joins the following free block's gap.
		h.freeRemove(b, b.gap+1)
		return b
	}
	if carveHigh {
		// Free remainder keeps the low end; new block at the high end.
		nb := h.newBlock(b.Addr+rem, n, false)
		b.Size = rem
		h.insertAfter(b, nb)
		h.blocks++
		// b stays free in place; the new allocated block extends the gap
		// run in front of the next free block.
		h.bumpNextGap(b, 1)
		return nb
	}
	// New block takes the low end; remainder stays free above it.
	nb := h.newBlock(b.Addr+n, rem, true)
	b.Size = n
	h.insertAfter(b, nb)
	h.blocks++
	// The remainder takes b's place on the free list and in its chunk;
	// b itself becomes one more allocated block in the remainder's gap
	// run. The chunk's bound stays valid: nb is smaller than b was.
	c := b.chunk
	nb.gap = b.gap + 1
	c.cnt++
	nb.chunk = c
	if c.first == b {
		c.first = nb
	}
	if c.last == b {
		c.last = nb
	}
	nb.freePrev = b.freePrev
	nb.freeNext = b.freeNext
	if nb.freePrev != nil {
		nb.freePrev.freeNext = nb
	} else {
		h.freeHead = nb
	}
	if nb.freeNext != nil {
		nb.freeNext.freePrev = nb
	} else {
		h.freeTail = nb
	}
	b.freePrev, b.freeNext, b.gap, b.chunk = nil, nil, 0, nil
	return b
}

// bumpNextGap adds delta allocated blocks to the gap run after free
// block b: to the next free block's gap, or to the tail gap.
func (h *Heap) bumpNextGap(b *Block, delta int) {
	if b.freeNext != nil {
		addGap(b.freeNext, delta)
	} else {
		h.tailGap += delta
	}
}

// freeRemove unlinks free block b from the free list and its chunk,
// crediting gapCarry allocated blocks to the following gap run: b.gap+1
// when b itself becomes allocated, b.gap when b is merged away
// entirely. A chunk left empty is released; one left short is merged
// into its successor. The chunk's bound stays valid without b.
func (h *Heap) freeRemove(b *Block, gapCarry int) {
	h.bumpNextGap(b, gapCarry)
	prev, next := b.freePrev, b.freeNext
	if prev != nil {
		prev.freeNext = next
	} else {
		h.freeHead = next
	}
	if next != nil {
		next.freePrev = prev
	} else {
		h.freeTail = prev
	}
	c := b.chunk
	c.n--
	c.cnt -= b.gap + 1
	switch {
	case c.n == 0:
		h.releaseChunk(c)
	case c.first == b:
		c.first = next
	case c.last == b:
		c.last = prev
	}
	b.freePrev, b.freeNext, b.gap, b.chunk = nil, nil, 0, nil
	h.freeCount--
	if c.n > 0 && c.n < chunkK/2 {
		h.chunkMerge(c)
	}
}

func (h *Heap) insertAfter(b, nb *Block) {
	nb.prev = b
	nb.next = b.next
	if b.next != nil {
		b.next.prev = nb
	} else {
		h.tail = nb
	}
	b.next = nb
}

// unlinkFull removes b from the full block list.
func (h *Heap) unlinkFull(b *Block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		h.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		h.tail = b.prev
	}
	h.blocks--
}

// Free releases the block based at addr.
func (h *Heap) Free(addr int) error {
	b := h.byAddr.remove(addr)
	if b == nil {
		return fmt.Errorf("%w: address %d", ErrBadFree, addr)
	}
	h.frees++
	h.requested -= b.Requested
	h.allocated -= b.Size
	b.Free = true
	b.Requested = 0
	h.freeInsert(b)
	if h.mode == CoalesceImmediate {
		h.coalesceAround(b)
	}
	return nil
}

// freeInsert links the just-freed b into the free list and fixes the
// gap accounting. It walks the full list outward from b in both
// directions at once, stopping at the nearest free neighbour, so the
// cost is bounded by the shorter distance — O(1) when a neighbour is
// free, which immediate coalescing makes the common case.
func (h *Heap) freeInsert(b *Block) {
	fwd, bwd := b.next, b.prev
	k2 := 0 // allocated blocks strictly between b and the next free block
	k1 := 0 // allocated blocks strictly between the previous free block and b
	for {
		if fwd != nil {
			if fwd.Free {
				// Found the successor first: its gap covered b and both
				// runs; split it around b.
				b.gap = fwd.gap - k2 - 1
				addGap(fwd, k2-fwd.gap)
				b.freeNext = fwd
				b.freePrev = fwd.freePrev
				fwd.freePrev = b
				if b.freePrev != nil {
					b.freePrev.freeNext = b
				} else {
					h.freeHead = b
				}
				h.freeCount++
				h.chunkJoin(b)
				return
			}
			k2++
			fwd = fwd.next
		}
		if bwd != nil {
			if bwd.Free {
				// Found the predecessor first: b splits the gap run that
				// followed it.
				b.gap = k1
				h.bumpNextGap(bwd, -(k1 + 1))
				b.freePrev = bwd
				b.freeNext = bwd.freeNext
				bwd.freeNext = b
				if b.freeNext != nil {
					b.freeNext.freePrev = b
				} else {
					h.freeTail = b
				}
				h.freeCount++
				h.chunkJoin(b)
				return
			}
			k1++
			bwd = bwd.prev
		}
		if fwd == nil && bwd == nil {
			// No other free block: b becomes the whole free list. Every
			// other block is allocated; k1 of them precede b.
			b.gap = k1
			h.tailGap = k2
			b.freePrev, b.freeNext = nil, nil
			h.freeHead, h.freeTail = b, b
			h.freeCount = 1
			h.chunkJoin(b)
			return
		}
	}
}

// coalesceAround merges b with free neighbours.
func (h *Heap) coalesceAround(b *Block) {
	if p := b.prev; p != nil && p.Free {
		p.Size += b.Size
		grew(p)
		h.unlinkFull(b)
		h.freeRemove(b, b.gap) // b merges away; its gap run (0) carries over
		h.releaseBlock(b)
		h.coalesces++
		b = p
	}
	if n := b.next; n != nil && n.Free {
		b.Size += n.Size
		grew(b)
		h.unlinkFull(n)
		h.freeRemove(n, n.gap)
		h.releaseBlock(n)
		h.coalesces++
	}
}

// CoalesceAll merges every run of adjacent free blocks and reports the
// number of merges performed. Adjacent free blocks are exactly the
// free-list neighbours with a zero gap between them, so only the free
// list is walked. The chunks are rebuilt afterwards, with exact bounds.
func (h *Heap) CoalesceAll() int {
	merges := 0
	for b := h.freeHead; b != nil; b = b.freeNext {
		for {
			n := b.freeNext
			if n == nil || n.gap != 0 {
				break
			}
			if merges == 0 {
				h.dropChunks()
			}
			// gap 0 means no allocated block separates them, so n is
			// b's immediate neighbour on the full list too.
			b.Size += n.Size
			h.unlinkFull(n)
			b.freeNext = n.freeNext
			if b.freeNext != nil {
				b.freeNext.freePrev = b
			} else {
				h.freeTail = b
			}
			h.freeCount--
			h.releaseBlock(n)
			merges++
		}
	}
	if merges > 0 {
		h.buildChunks()
	}
	h.coalesces += int64(merges)
	return merges
}

// Move describes one block relocation performed by Compact, so the
// caller can mirror it onto a store.Level (and charge transfer time).
type Move struct {
	Src, Dst, Words int
}

// Compact slides every allocated block toward address zero, leaving
// all free space as a single block at the top — the paper's "move
// information around in storage so as to remove any unused spaces".
// It returns the moves performed, in execution order; the slice is
// only valid until the next Compact (it is reused scratch — callers
// mirror the moves immediately and never retain them). Note compaction
// is only possible because access is via the heap's handles; the paper
// makes the same point about stored absolute addresses.
func (h *Heap) Compact() []Move {
	h.dropChunks()
	moves := h.moveScratch[:0]
	next := 0
	newOrder := h.orderScratch[:0]
	var stale *Block // old free blocks, chained for release
	for b := h.head; b != nil; {
		nb := b.next
		if b.Free {
			b.next = stale
			stale = b
			b = nb
			continue
		}
		if b.Addr != next {
			moves = append(moves, Move{Src: b.Addr, Dst: next, Words: b.Size})
			b.Addr = next
		}
		next += b.Size
		newOrder = append(newOrder, b)
		b = nb
	}
	for stale != nil {
		nb := stale.next
		h.releaseBlock(stale)
		stale = nb
	}
	// Rebuild the list: allocated blocks packed low, one free block on top.
	h.head = nil
	h.tail = nil
	var tailb *Block
	link := func(b *Block) {
		b.prev = tailb
		b.next = nil
		b.freePrev, b.freeNext, b.gap, b.chunk = nil, nil, 0, nil
		if tailb != nil {
			tailb.next = b
		} else {
			h.head = b
		}
		tailb = b
	}
	h.byAddr.clear()
	for _, b := range newOrder {
		link(b)
		h.byAddr.insert(b)
	}
	h.blocks = len(newOrder)
	h.freeHead, h.freeTail = nil, nil
	h.freeCount, h.tailGap = 0, 0
	if next < h.size {
		fb := h.newBlock(next, h.size-next, true)
		link(fb)
		fb.gap = len(newOrder)
		h.freeHead, h.freeTail = fb, fb
		h.freeCount = 1
		h.blocks++
	} else {
		h.tailGap = len(newOrder)
	}
	h.tail = tailb
	h.buildChunks()
	h.moveScratch = moves
	h.orderScratch = newOrder[:0]
	return moves
}

// FreeWords reports the total free words.
func (h *Heap) FreeWords() int { return h.size - h.allocated }

// LargestFree reports the size of the largest free block. Chunks
// whose bound cannot beat the largest seen so far are skipped; a
// scanned chunk's bound becomes exact.
func (h *Heap) LargestFree() int {
	best := 0
	for b := h.freeHead; b != nil; {
		c := b.chunk
		if c.max <= best {
			b = c.last.freeNext
			continue
		}
		seen := 0
		for {
			seen = max(seen, b.Size)
			if b == c.last {
				break
			}
			b = b.freeNext
		}
		c.max = seen
		best = max(best, seen)
		b = b.freeNext
	}
	return best
}

// FreeBlockCount reports the number of free blocks.
func (h *Heap) FreeBlockCount() int { return h.freeCount }

// Stats summarizes the heap state for fragmentation reporting.
func (h *Heap) Stats() metrics.FragStats {
	return metrics.FragStats{
		TotalWords:     h.size,
		AllocatedWords: h.allocated,
		FreeWords:      h.FreeWords(),
		FreeBlocks:     h.FreeBlockCount(),
		LargestFree:    h.LargestFree(),
		RequestedWords: h.requested,
	}
}

// Counters reports operation counts accumulated by the heap.
type Counters struct {
	Allocs, Frees, Failures, FragFailures, Coalesces, Probes int64
}

// Counters returns the accumulated operation counts.
func (h *Heap) Counters() Counters {
	return Counters{
		Allocs: h.allocs, Frees: h.frees, Failures: h.failures,
		FragFailures: h.fragFails, Coalesces: h.coalesces, Probes: h.probes,
	}
}

// Blocks returns a snapshot of the block list in address order, for
// reports and tests.
func (h *Heap) Blocks() []Block {
	out := make([]Block, 0, h.blocks)
	for b := h.head; b != nil; b = b.next {
		out = append(out, *b)
	}
	return out
}

// CheckInvariants verifies the block list tiles [0, size) exactly, the
// links are consistent, the free-list index mirrors the free blocks of
// the full list (membership, order, gap counts), and the accounting
// matches. Tests call it after random operation sequences.
func (h *Heap) CheckInvariants() error {
	addr := 0
	allocated := 0
	var prev *Block
	freeSeen := 0
	gapRun := 0
	expectFree := h.freeHead
	for b := h.head; b != nil; b = b.next {
		if b.Addr != addr {
			return fmt.Errorf("alloc: block at %d, expected %d (gap or overlap)", b.Addr, addr)
		}
		if b.Size <= 0 {
			return fmt.Errorf("alloc: block at %d has size %d", b.Addr, b.Size)
		}
		if b.prev != prev {
			return fmt.Errorf("alloc: bad prev link at %d", b.Addr)
		}
		if b.Free {
			if expectFree != b {
				return fmt.Errorf("alloc: free block %d not next on free list", b.Addr)
			}
			if b.gap != gapRun {
				return fmt.Errorf("alloc: free block %d gap %d, actual %d", b.Addr, b.gap, gapRun)
			}
			if b.freePrev == nil && h.freeHead != b {
				return fmt.Errorf("alloc: free block %d has nil freePrev but is not freeHead", b.Addr)
			}
			if b.freePrev != nil && b.freePrev.freeNext != b {
				return fmt.Errorf("alloc: bad freePrev link at %d", b.Addr)
			}
			expectFree = b.freeNext
			gapRun = 0
			freeSeen++
		} else {
			gapRun++
			allocated += b.Size
			if h.byAddr.get(b.Addr) != b {
				return fmt.Errorf("alloc: allocated block %d missing from index", b.Addr)
			}
		}
		addr += b.Size
		prev = b
	}
	if addr != h.size {
		return fmt.Errorf("alloc: blocks cover %d of %d words", addr, h.size)
	}
	if h.tail != prev {
		return fmt.Errorf("alloc: stale tail pointer")
	}
	if expectFree != nil {
		return fmt.Errorf("alloc: free list longer than free blocks (next %d)", expectFree.Addr)
	}
	if freeSeen != h.freeCount {
		return fmt.Errorf("alloc: freeCount %d, actual %d", h.freeCount, freeSeen)
	}
	if gapRun != h.tailGap {
		return fmt.Errorf("alloc: tailGap %d, actual %d", h.tailGap, gapRun)
	}
	if h.freeCount == 0 && (h.freeHead != nil || h.freeTail != nil) {
		return fmt.Errorf("alloc: empty free list with non-nil ends")
	}
	if h.freeCount > 0 && (h.freeHead == nil || h.freeTail == nil || h.freeTail.freeNext != nil) {
		return fmt.Errorf("alloc: bad free list ends")
	}
	blocks := freeSeen
	for b := h.head; b != nil; b = b.next {
		if !b.Free {
			blocks++
		}
	}
	if blocks != h.blocks {
		return fmt.Errorf("alloc: block counter %d, actual %d", h.blocks, blocks)
	}
	if allocated != h.allocated {
		return fmt.Errorf("alloc: allocated accounting %d, actual %d", h.allocated, allocated)
	}
	if h.byAddr.n != int(h.allocs-h.frees) {
		return fmt.Errorf("alloc: index size %d, allocs-frees %d", h.byAddr.n, h.allocs-h.frees)
	}
	return h.checkChunks()
}

// checkChunks verifies that the chunks tile the free list in order,
// that each one's ends, count and gap sum are exact, that its bound is
// at least each member's size, and that chunk lengths stay within
// [chunkK/2, 2*chunkK] (the last chunk may be shorter).
func (h *Heap) checkChunks() error {
	for b := h.freeHead; b != nil; {
		c := b.chunk
		if c == nil || c.first != b {
			return fmt.Errorf("alloc: free block %d does not start its chunk", b.Addr)
		}
		n, cnt := 0, 0
		for {
			if b.chunk != c {
				return fmt.Errorf("alloc: free block %d in the wrong chunk", b.Addr)
			}
			n++
			cnt += b.gap + 1
			if b.Size > c.max {
				return fmt.Errorf("alloc: free block %d size %d above its chunk bound %d", b.Addr, b.Size, c.max)
			}
			if b == c.last {
				break
			}
			if b = b.freeNext; b == nil {
				return fmt.Errorf("alloc: chunk last block not on the free list")
			}
		}
		if n != c.n || cnt != c.cnt {
			return fmt.Errorf("alloc: chunk at %d has n=%d cnt=%d, actual %d, %d", c.first.Addr, c.n, c.cnt, n, cnt)
		}
		b = b.freeNext
		if n > 2*chunkK || (b != nil && n < chunkK/2) {
			return fmt.Errorf("alloc: chunk at %d holds %d blocks", c.first.Addr, n)
		}
	}
	return nil
}

// blockIndex maps the base addresses of allocated blocks to their
// nodes: an open-addressed table with linear probing, backward-shift
// deletion and doubling at load 1/2, so it holds O(live blocks) slots,
// never O(heap words). The key is read from the stored block, so a
// block's Addr must not change while it is indexed.
type blockIndex struct {
	slots []*Block // nil = empty; len is a power of two or zero
	n     int
	shift uint // 64 - log2(len(slots))
}

// home is addr's preferred slot (Fibonacci hashing).
func (t *blockIndex) home(addr int) int {
	return int(uint64(addr) * 0x9E3779B97F4A7C15 >> t.shift)
}

// slot returns the index of the slot holding addr's block, or -1.
func (t *blockIndex) slot(addr int) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		switch b := t.slots[i]; {
		case b == nil:
			return -1
		case b.Addr == addr:
			return i
		}
	}
}

// get returns the block based at addr, or nil.
func (t *blockIndex) get(addr int) *Block {
	if i := t.slot(addr); i >= 0 {
		return t.slots[i]
	}
	return nil
}

// insert adds b, whose address is not yet indexed.
func (t *blockIndex) insert(b *Block) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(b.Addr)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = b
	t.n++
}

// grow doubles the table (16 slots at first) and rehashes.
func (t *blockIndex) grow() {
	old := t.slots
	size := max(16, 2*len(old))
	t.slots = make([]*Block, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
	for _, b := range old {
		if b != nil {
			t.insert(b)
		}
	}
}

// remove deletes and returns the block based at addr, or returns nil.
// Later entries of the probe run shift back into the hole, so lookups
// never need tombstones.
func (t *blockIndex) remove(addr int) *Block {
	i := t.slot(addr)
	if i < 0 {
		return nil
	}
	mask := len(t.slots) - 1
	found := t.slots[i]
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		k := t.home(t.slots[j].Addr)
		if (i < j && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = nil
	t.n--
	return found
}

// clear empties the table, keeping its slots.
func (t *blockIndex) clear() {
	clear(t.slots)
	t.n = 0
}
