package mapping

import "dsa/internal/addr"

// TLBKey identifies a (segment, page) pair in the associative memory.
type TLBKey struct {
	Seg  addr.SegID
	Page uint64
}

// TLB models the small associative memory "in which recently-used
// segment and/or page locations are kept": 8+1 registers on the IBM
// 360/67, 44 thin-film words on the B8500. Hits bypass the mapping
// tables entirely; replacement within the TLB is least-recently-used,
// which content-addressable hardware of the era approximated with
// usage flip-flops.
//
// The model is a fixed set of registers probed by a linear scan — the
// software image of hardware that matched every register at once.
// With at most a few dozen registers the scan beats hashing the
// (segment, page) key. The valid registers are packed at the front in
// recency order, most recent first: a use moves its register to the
// front, so the scan meets the pages a program is working in first,
// and the last valid register is the strict-LRU victim. The registers
// are parallel arrays so the scan reads only page numbers.
type TLB struct {
	pages  []uint64 // per register, most recently used first; [:n] are valid
	segs   []addr.SegID
	frames []int
	n      int
	hits   int64
	misses int64
}

// NewTLB creates an associative memory of the given capacity.
// Capacity 0 is legal and models a machine without one: every lookup
// misses.
func NewTLB(capacity int) *TLB {
	if capacity < 0 {
		panic("mapping: negative TLB capacity")
	}
	return &TLB{
		pages:  make([]uint64, capacity),
		segs:   make([]addr.SegID, capacity),
		frames: make([]int, capacity),
	}
}

// Capacity reports the number of associative registers.
func (t *TLB) Capacity() int { return len(t.pages) }

// find returns the index of the valid register holding k, or -1.
func (t *TLB) find(k TLBKey) int {
	for i, p := range t.pages[:t.n] {
		if p == k.Page && t.segs[i] == k.Seg {
			return i
		}
	}
	return -1
}

// toFront moves register i to the front, shifting the more recently
// used registers back by one, and stores k and frame there.
func (t *TLB) toFront(i int, k TLBKey, frame int) {
	copy(t.pages[1:i+1], t.pages[:i])
	copy(t.segs[1:i+1], t.segs[:i])
	copy(t.frames[1:i+1], t.frames[:i])
	t.pages[0], t.segs[0], t.frames[0] = k.Page, k.Seg, frame
}

// Lookup probes the associative memory.
func (t *TLB) Lookup(k TLBKey) (frame int, ok bool) {
	i := t.find(k)
	if i < 0 {
		t.misses++
		return 0, false
	}
	t.hits++
	frame = t.frames[i]
	if i > 0 {
		t.toFront(i, k, frame)
	}
	return frame, true
}

// Install records a translation, evicting the least recently used
// entry if the memory is full.
func (t *TLB) Install(k TLBKey, frame int) {
	if len(t.pages) == 0 {
		return
	}
	i := t.find(k)
	if i < 0 {
		// A new register; when all are valid, the least recently used
		// (the last) falls off the end.
		if t.n < len(t.pages) {
			t.n++
		}
		i = t.n - 1
	}
	t.toFront(i, k, frame)
}

// InvalidatePage removes any entry for the (segment, page) pair; it
// must be called when a page is evicted from its frame.
func (t *TLB) InvalidatePage(k TLBKey) {
	if i := t.find(k); i >= 0 {
		copy(t.pages[i:t.n], t.pages[i+1:t.n])
		copy(t.segs[i:t.n], t.segs[i+1:t.n])
		copy(t.frames[i:t.n], t.frames[i+1:t.n])
		t.n--
	}
}

// Flush empties the associative memory (e.g. on program switch).
func (t *TLB) Flush() { t.n = 0 }

// Len reports the number of valid entries.
func (t *TLB) Len() int { return t.n }

// Stats reports hit and miss counts.
func (t *TLB) Stats() (hits, misses int64) { return t.hits, t.misses }

// HitRatio reports hits / (hits+misses), 0 when unused.
func (t *TLB) HitRatio() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}
