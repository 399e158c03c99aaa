package alloc

// Policy is a placement strategy: given a request of n words it selects
// a free block to carve, and whether to carve from the block's high
// end. Returning nil reports that no suitable block exists.
//
// Policies may keep private state (the next-fit rover) but must treat
// the heap's block list as the single source of truth.
//
// The probes counter models the cost of the sequential search each
// strategy performs over the full address-ordered block list — the
// search effort the paper's placement discussion weighs. The
// implementations below walk only the heap's free-block index, using
// the per-free-block gap counts to charge exactly the probes the full
// scan would have: the numbers in the experiment tables are unchanged,
// only the time to compute them.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Choose selects a free block of at least n words, or nil.
	Choose(h *Heap, n int) (b *Block, carveHigh bool)
}

// FirstFit places each request in the lowest-addressed sufficient free
// block.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// Choose implements Policy. A full-list first-fit scan probes every
// block up to and including the first sufficient free one; on failure
// it probes the whole list. Chunks whose bound is below n are skipped
// whole, charging the probes their blocks would have cost; a chunk
// scanned without a fit has its bound tightened to its exact maximum.
func (FirstFit) Choose(h *Heap, n int) (*Block, bool) {
	pos := int64(0)
	for b := h.freeHead; b != nil; {
		c := b.chunk
		if c.max < n {
			pos += int64(c.cnt)
			b = c.last.freeNext
			continue
		}
		seen := 0
		for {
			pos += int64(b.gap) + 1
			if b.Size >= n {
				h.probes += pos
				return b, false
			}
			seen = max(seen, b.Size)
			if b == c.last {
				break
			}
			b = b.freeNext
		}
		c.max = seen
		b = b.freeNext
	}
	h.probes += int64(h.blocks)
	return nil, false
}

// BestFit places each request in the smallest sufficient free block —
// the strategy the paper reports as effective on the B5000 ("choosing
// the smallest available block of sufficient size").
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// Choose implements Policy. The full scan stops early only at an exact
// fit (probing every block up to it); otherwise it probes the whole
// list and takes the first block of the winning size.
func (BestFit) Choose(h *Heap, n int) (*Block, bool) {
	pos := int64(0)
	var best *Block
	for b := h.freeHead; b != nil; b = b.freeNext {
		pos += int64(b.gap) + 1
		if b.Size < n {
			continue
		}
		if best == nil || b.Size < best.Size {
			best = b
			if b.Size == n {
				h.probes += pos
				return best, false
			}
		}
	}
	h.probes += int64(h.blocks)
	return best, false
}

// WorstFit places each request in the largest free block, a baseline
// that maximizes the leftover remainder.
type WorstFit struct{}

// Name implements Policy.
func (WorstFit) Name() string { return "worst-fit" }

// Choose implements Policy. The scan never stops early: every block is
// probed, and the first block of the winning size is taken.
func (WorstFit) Choose(h *Heap, n int) (*Block, bool) {
	var best *Block
	for b := h.freeHead; b != nil; b = b.freeNext {
		if b.Size < n {
			continue
		}
		if best == nil || b.Size > best.Size {
			best = b
		}
	}
	h.probes += int64(h.blocks)
	return best, false
}

// NextFit is first fit with a roving start position, trading slightly
// worse placement for much shorter searches.
type NextFit struct {
	// rover is the address after the last placement; searching resumes
	// from the first block at or beyond it.
	rover int
}

// Name implements Policy.
func (*NextFit) Name() string { return "next-fit" }

// Choose implements Policy. The modelled search skips (without probing)
// every block that ends at or before the rover, probes onward to the
// end of the list, then wraps and probes blocks below the rover. The
// free-list walk reproduces those probe counts: the backward walks over
// an allocated run touch only blocks the full scan would probe anyway.
func (p *NextFit) Choose(h *Heap, n int) (*Block, bool) {
	// Pass 1: from the rover to the end.
	probes := int64(0)
	var f0 *Block // first free block ending beyond the rover
	for f := h.freeHead; f != nil; f = f.freeNext {
		if f.Addr+f.Size > p.rover {
			f0 = f
			break
		}
	}
	if f0 != nil {
		// Allocated blocks of f0's gap run that end beyond the rover are
		// probed before f0 is reached.
		for b := f0.prev; b != nil && !b.Free && b.Addr+b.Size > p.rover; b = b.prev {
			probes++
		}
		for f := f0; f != nil; f = f.freeNext {
			if f != f0 {
				probes += int64(f.gap)
			}
			probes++
			if f.Size >= n {
				h.probes += probes
				p.rover = f.Addr + n
				return f, false
			}
		}
		probes += int64(h.tailGap)
	} else {
		// Every free block ends at or before the rover, so pass 1 probes
		// only the trailing run of allocated blocks ending beyond it.
		for b := h.tail; b != nil && !b.Free && b.Addr+b.Size > p.rover; b = b.prev {
			probes++
		}
	}
	// Wrap around: probe blocks starting below the rover.
	var lastF *Block
	for f := h.freeHead; f != nil && f.Addr < p.rover; f = f.freeNext {
		probes += int64(f.gap) + 1
		if f.Size >= n {
			h.probes += probes
			p.rover = f.Addr + n
			return f, false
		}
		lastF = f
	}
	// Failure: the wrap pass also probed the allocated blocks between
	// the last free block below the rover and the rover itself.
	start := h.head
	if lastF != nil {
		start = lastF.next
	}
	for b := start; b != nil && !b.Free && b.Addr < p.rover; b = b.next {
		probes++
	}
	h.probes += probes
	return nil, false
}

// TwoEnded implements the paper's low-bookkeeping alternative: "place
// large blocks of information starting at one end of storage and small
// blocks starting at the other end". Requests below Threshold are
// first-fit from the bottom; larger requests are placed at the top end
// of the highest sufficient free block.
type TwoEnded struct {
	// Threshold separates small from large requests, in words.
	Threshold int
}

// Name implements Policy.
func (TwoEnded) Name() string { return "two-ended" }

// Choose implements Policy. The large-request scan probes every block
// and takes the last sufficient one.
func (p TwoEnded) Choose(h *Heap, n int) (*Block, bool) {
	if n < p.Threshold {
		return FirstFit{}.Choose(h, n)
	}
	// Highest sufficient free block, carved from its high end.
	var best *Block
	for b := h.freeTail; b != nil; b = b.freePrev {
		if b.Size >= n {
			best = b
			break
		}
	}
	h.probes += int64(h.blocks)
	return best, true
}

// RiceChain is the Appendix A.4 scheme viewed as a placement policy:
// a sequential search of the chain of inactive blocks for the first of
// sufficient size. Combined with CoalesceDeferred it reproduces the
// Rice behaviour: leftover space "replaces the original inactive block
// in the chain", and only on failure are adjacent inactive blocks
// combined. (The iterative replacement fallback lives at the segment
// layer, which decides what to evict.)
type RiceChain struct{}

// Name implements Policy.
func (RiceChain) Name() string { return "rice-chain" }

// Choose implements Policy.
func (RiceChain) Choose(h *Heap, n int) (*Block, bool) {
	return FirstFit{}.Choose(h, n)
}

// NewRiceHeap builds a heap configured as the Rice University system:
// sequential inactive-block chain, deferred coalescing.
func NewRiceHeap(size int) *Heap {
	return New(size, RiceChain{}, CoalesceDeferred)
}
