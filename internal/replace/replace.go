// Package replace implements the replacement strategies the paper
// discusses and cites (Belady [1], Kilburn et al. [14]):
//
//   - FIFO and Random as Belady's baselines,
//   - LRU as the recency policy his study evaluates,
//   - Clock, the "essentially cyclical" strategy found effective on
//     the Burroughs B5000 (Appendix A.3),
//   - M44Random, the M44/44X policy that "selects at random from a set
//     of equally acceptable candidates determined on the basis of
//     frequency of usage and whether or not a page has been modified"
//     (Appendix A.2),
//   - Learning, the ATLAS "learning program" that records time since
//     last use and previous duration of inactivity, evicting a page
//     that appears no longer in use, else the one predicted to be the
//     last required (Appendix A.1),
//   - MIN, Belady's offline optimal, the yardstick every table of
//     experiment T1 is normalized against.
//
// A Policy tracks only residency metadata; the paging engine owns the
// frames. All policies are deterministic given their RNG seed.
//
// # Dense page ids
//
// Page ids are small integers, and every policy indexes its per-page
// state by id in slices that grow to the largest id seen, so a
// reference costs array indexing rather than hashing an id through a
// map. The callers keep ids bounded:
//
//   - a page string from PageString renames its pages 0, 1, 2, … in
//     increasing page order, so its ids are bounded by its distinct
//     pages however sparse the name space;
//   - paging.Pager passes virtual page numbers, bounded by its extent;
//   - segment.Manager passes segment ids, which its dictionary hands
//     out in sequence;
//   - paging.SegPager packs (segment, page) into a 64-bit key that is
//     far from dense, so it assigns each page a dense id on first
//     residency and translates victims back.
//   - KeyedLRU gives each resident key a dense id and reuses the ids
//     of evicted keys.
//
// No policy compares ids except MIN, whose tie-break prefers the lower
// id; PageString's renaming preserves id order, so renaming pages
// changes no victim.
package replace

import (
	"errors"
	"slices"

	"dsa/internal/sim"
)

// PageID identifies a page (or segment) for replacement purposes.
type PageID uint64

// ErrEmpty reports a victim request with no resident pages.
var ErrEmpty = errors.New("replace: no resident pages")

// Policy is a replacement strategy over a set of resident pages.
//
// Contract: Insert records that a page became resident *because of a
// reference* at `now` — it counts as that page's first use. Touch is
// called only for subsequent references to an already-resident page.
// Calling Touch immediately after Insert for the same reference
// corrupts inter-reference statistics (the ATLAS learning policy would
// mistake the fetch delay for the page's period of use).
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Insert records that a page became resident due to a reference.
	Insert(id PageID, now sim.Time)
	// Touch records a further reference to a resident page. write
	// reports whether the reference modified the page (the hardware
	// "sensor" of the paper's information-gathering facilities).
	Touch(id PageID, now sim.Time, write bool)
	// Victim selects a page to evict. It does not remove the page;
	// the caller must call Remove once the eviction happens.
	Victim(now sim.Time) (PageID, error)
	// Remove records that a page left working storage.
	Remove(id PageID)
	// Len reports the number of resident pages tracked.
	Len() int
}

// slots maps page ids to positions in a policy's dense array of
// resident pages. It is indexed by id and stores position+1, so the
// zero value means absent and growing it zero-fills.
type slots []int

// get reports id's position, if it is resident.
func (s slots) get(id PageID) (int, bool) {
	if uint64(id) >= uint64(len(s)) || s[id] == 0 {
		return 0, false
	}
	return s[id] - 1, true
}

// set records id at position i, growing the index to cover id.
func (s *slots) set(id PageID, i int) {
	*s = grow(*s, id)
	(*s)[id] = i + 1
}

// grow returns s extended with zero values so that s[id] is valid.
func grow[T any](s []T, id PageID) []T {
	if uint64(id) < uint64(len(s)) {
		return s
	}
	return append(s, make([]T, int(id)+1-len(s))...)
}

// FIFO evicts the page resident longest. The queue is a slice behind
// an advancing head index: re-slicing the head away (queue = queue[1:])
// made every append past capacity reallocate forever, because the
// consumed front of the backing array could never be reused. Compacting
// in place when growth would otherwise allocate keeps steady-state
// insert/evict traffic on one backing array.
type FIFO struct {
	queue []PageID
	head  int
	in    []bool // indexed by page id
	n     int
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (*FIFO) Name() string { return "fifo" }

func (f *FIFO) resident(id PageID) bool { return uint64(id) < uint64(len(f.in)) && f.in[id] }

// Insert implements Policy.
func (f *FIFO) Insert(id PageID, _ sim.Time) {
	if f.resident(id) {
		return
	}
	f.in = grow(f.in, id)
	f.in[id] = true
	f.n++
	if len(f.queue) == cap(f.queue) && f.head > 0 {
		n := copy(f.queue, f.queue[f.head:])
		f.queue = f.queue[:n]
		f.head = 0
	}
	f.queue = append(f.queue, id)
}

// Touch implements Policy. FIFO ignores references.
func (f *FIFO) Touch(PageID, sim.Time, bool) {}

// Victim implements Policy.
func (f *FIFO) Victim(sim.Time) (PageID, error) {
	if f.n == 0 {
		return 0, ErrEmpty
	}
	return f.queue[f.head], nil
}

// Remove implements Policy.
func (f *FIFO) Remove(id PageID) {
	if !f.resident(id) {
		return
	}
	f.in[id] = false
	f.n--
	if f.queue[f.head] == id {
		f.head++
		return
	}
	for i := f.head + 1; i < len(f.queue); i++ {
		if f.queue[i] == id {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			break
		}
	}
}

// Len implements Policy.
func (f *FIFO) Len() int { return f.n }

// noPage terminates the LRU recency list.
const noPage = ^PageID(0)

// lruLink is one page's place on the LRU recency list.
type lruLink struct {
	prev, next PageID
	in         bool
}

// LRU evicts the least recently used page. The resident pages live on
// a recency list (head = most recent) threaded through a slice indexed
// by page id, so victim selection is O(1) instead of a scan for the
// oldest timestamp. Because the simulation clock never runs backward
// and references at equal times were ordered by a strictly increasing
// sequence number, recency-list order is exactly the (timestamp,
// sequence) order the scan minimized: the victims are identical.
type LRU struct {
	links      []lruLink
	head, tail PageID // noPage when empty
	n          int
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{head: noPage, tail: noPage} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

func (l *LRU) resident(id PageID) bool { return uint64(id) < uint64(len(l.links)) && l.links[id].in }

// pushFront links a detached page at the head of the recency list.
func (l *LRU) pushFront(id PageID) {
	e := &l.links[id]
	e.prev = noPage
	e.next = l.head
	if l.head != noPage {
		l.links[l.head].prev = id
	} else {
		l.tail = id
	}
	l.head = id
}

// unlink detaches a resident page from the recency list.
func (l *LRU) unlink(id PageID) {
	e := &l.links[id]
	if e.prev != noPage {
		l.links[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next != noPage {
		l.links[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
}

// moveToFront makes a resident page the most recently used.
func (l *LRU) moveToFront(id PageID) {
	if l.head != id {
		l.unlink(id)
		l.pushFront(id)
	}
}

// Insert implements Policy. Re-inserting a resident page refreshes its
// recency, matching the timestamp overwrite of the original
// implementation.
func (l *LRU) Insert(id PageID, _ sim.Time) {
	if l.resident(id) {
		l.moveToFront(id)
		return
	}
	l.links = grow(l.links, id)
	l.links[id].in = true
	l.n++
	l.pushFront(id)
}

// Touch implements Policy.
func (l *LRU) Touch(id PageID, _ sim.Time, _ bool) {
	if l.resident(id) {
		l.moveToFront(id)
	}
}

// Victim implements Policy.
func (l *LRU) Victim(sim.Time) (PageID, error) {
	if l.tail == noPage {
		return 0, ErrEmpty
	}
	return l.tail, nil
}

// Remove implements Policy.
func (l *LRU) Remove(id PageID) {
	if !l.resident(id) {
		return
	}
	l.unlink(id)
	l.links[id].in = false
	l.n--
}

// Len implements Policy.
func (l *LRU) Len() int { return l.n }

// Random evicts a uniformly random resident page.
type Random struct {
	rng   *sim.RNG
	ids   []PageID
	index slots
}

// NewRandom returns a Random policy drawing from rng.
func NewRandom(rng *sim.RNG) *Random { return &Random{rng: rng} }

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Insert implements Policy.
func (r *Random) Insert(id PageID, _ sim.Time) {
	if _, ok := r.index.get(id); ok {
		return
	}
	r.index.set(id, len(r.ids))
	r.ids = append(r.ids, id)
}

// Touch implements Policy.
func (r *Random) Touch(PageID, sim.Time, bool) {}

// Victim implements Policy.
func (r *Random) Victim(sim.Time) (PageID, error) {
	if len(r.ids) == 0 {
		return 0, ErrEmpty
	}
	return r.ids[r.rng.Intn(len(r.ids))], nil
}

// Remove implements Policy.
func (r *Random) Remove(id PageID) {
	i, ok := r.index.get(id)
	if !ok {
		return
	}
	last := len(r.ids) - 1
	r.ids[i] = r.ids[last]
	r.index[r.ids[i]] = i + 1
	r.ids = r.ids[:last]
	r.index[id] = 0
}

// Len implements Policy.
func (r *Random) Len() int { return len(r.ids) }

// FaultCount replays a page-reference string against a policy with a
// fixed frame capacity and returns the fault count — the harness of
// Belady's cited study, behind experiment T1 and declarative
// replacement scenarios. The resident set is indexed by page id, so
// refs should carry dense ids (see PageString); after the set is
// sized, a reference allocates nothing here.
func FaultCount(p Policy, refs []PageID, capacity int) int {
	var bound PageID
	for _, r := range refs {
		bound = max(bound, r+1)
	}
	var clock sim.Clock
	resident := make([]bool, bound)
	n, faults := 0, 0
	for _, r := range refs {
		clock.Advance(1)
		if resident[r] {
			p.Touch(r, clock.Now(), false)
			continue
		}
		faults++
		if n == capacity {
			v, err := p.Victim(clock.Now())
			if err != nil {
				panic(err)
			}
			p.Remove(v)
			resident[v] = false
			n--
		}
		resident[r] = true
		n++
		p.Insert(r, clock.Now())
	}
	return faults
}

// PageString turns a trace's page numbers into a page-reference string
// with dense ids: the distinct pages are renamed 0, 1, 2, … in
// increasing page order. The renaming preserves id order, so every
// policy picks the same victims (and FaultCount the same count) as on
// the raw page numbers, while ids stay bounded by the number of
// distinct pages however sparse the name space.
func PageString(pages []uint64) []PageID {
	var top uint64
	for _, p := range pages {
		top = max(top, p)
	}
	out := make([]PageID, len(pages))
	if top < uint64(len(pages)) {
		// Dense enough to rank through a table indexed by page.
		rank := make([]PageID, top+1)
		for _, p := range pages {
			rank[p] = 1
		}
		next := PageID(0)
		for p, seen := range rank {
			if seen != 0 {
				rank[p] = next
				next++
			}
		}
		for i, p := range pages {
			out[i] = rank[p]
		}
		return out
	}
	distinct := slices.Clone(pages)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	for i, p := range pages {
		r, _ := slices.BinarySearch(distinct, p)
		out[i] = PageID(r)
	}
	return out
}
