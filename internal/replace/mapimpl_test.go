package replace

import (
	"fmt"
	"testing"

	"dsa/internal/sim"
	"dsa/internal/trace"
	"dsa/internal/workload"
)

// This file pins the dense-id policies to the map-keyed
// implementations they replaced. The map versions below are trimmed
// copies of that code; mapFaultCount is the map-resident harness
// FaultCount replaced. Both are driven in lockstep through page strings
// and random operation mixes and must pick identical victims.

type mapFIFO struct {
	queue []PageID
	head  int
	pos   map[PageID]bool
}

func newMapFIFO() *mapFIFO { return &mapFIFO{pos: make(map[PageID]bool)} }

func (*mapFIFO) Name() string { return "fifo" }

func (f *mapFIFO) Insert(id PageID, _ sim.Time) {
	if f.pos[id] {
		return
	}
	f.pos[id] = true
	if len(f.queue) == cap(f.queue) && f.head > 0 {
		n := copy(f.queue, f.queue[f.head:])
		f.queue = f.queue[:n]
		f.head = 0
	}
	f.queue = append(f.queue, id)
}

func (f *mapFIFO) Touch(PageID, sim.Time, bool) {}

func (f *mapFIFO) Victim(sim.Time) (PageID, error) {
	for f.head < len(f.queue) {
		id := f.queue[f.head]
		if f.pos[id] {
			return id, nil
		}
		f.head++ // lazily drop removed entries
	}
	return 0, ErrEmpty
}

func (f *mapFIFO) Remove(id PageID) {
	if !f.pos[id] {
		return
	}
	delete(f.pos, id)
	if f.head < len(f.queue) && f.queue[f.head] == id {
		f.head++
		return
	}
	for i := f.head; i < len(f.queue); i++ {
		if f.queue[i] == id {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			break
		}
	}
}

func (f *mapFIFO) Len() int { return len(f.pos) }

type mapLRUEntry struct {
	id         PageID
	prev, next *mapLRUEntry
}

type mapLRU struct {
	entries    map[PageID]*mapLRUEntry
	head, tail *mapLRUEntry
	free       *mapLRUEntry // recycled entries, chained through next
}

func newMapLRU() *mapLRU {
	return &mapLRU{entries: make(map[PageID]*mapLRUEntry)}
}

func (*mapLRU) Name() string { return "lru" }

func (l *mapLRU) pushFront(e *mapLRUEntry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	} else {
		l.tail = e
	}
	l.head = e
}

func (l *mapLRU) moveToFront(e *mapLRUEntry) {
	if l.head == e {
		return
	}
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	l.pushFront(e)
}

func (l *mapLRU) Insert(id PageID, _ sim.Time) {
	if e, ok := l.entries[id]; ok {
		l.moveToFront(e)
		return
	}
	e := l.free
	if e == nil {
		e = &mapLRUEntry{}
	} else {
		l.free = e.next
		*e = mapLRUEntry{}
	}
	e.id = id
	l.pushFront(e)
	l.entries[id] = e
}

func (l *mapLRU) Touch(id PageID, _ sim.Time, _ bool) {
	if e, ok := l.entries[id]; ok {
		l.moveToFront(e)
	}
}

func (l *mapLRU) Victim(sim.Time) (PageID, error) {
	if l.tail == nil {
		return 0, ErrEmpty
	}
	return l.tail.id, nil
}

func (l *mapLRU) Remove(id PageID) {
	e, ok := l.entries[id]
	if !ok {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	delete(l.entries, id)
	*e = mapLRUEntry{next: l.free}
	l.free = e
}

func (l *mapLRU) Len() int { return len(l.entries) }

type mapRandom struct {
	rng   *sim.RNG
	ids   []PageID
	index map[PageID]int
}

func newMapRandom(rng *sim.RNG) *mapRandom {
	return &mapRandom{rng: rng, index: make(map[PageID]int)}
}

func (*mapRandom) Name() string { return "random" }

func (r *mapRandom) Insert(id PageID, _ sim.Time) {
	if _, ok := r.index[id]; ok {
		return
	}
	r.index[id] = len(r.ids)
	r.ids = append(r.ids, id)
}

func (r *mapRandom) Touch(PageID, sim.Time, bool) {}

func (r *mapRandom) Victim(sim.Time) (PageID, error) {
	if len(r.ids) == 0 {
		return 0, ErrEmpty
	}
	return r.ids[r.rng.Intn(len(r.ids))], nil
}

func (r *mapRandom) Remove(id PageID) {
	i, ok := r.index[id]
	if !ok {
		return
	}
	last := len(r.ids) - 1
	r.ids[i] = r.ids[last]
	r.index[r.ids[i]] = i
	r.ids = r.ids[:last]
	delete(r.index, id)
}

func (r *mapRandom) Len() int { return len(r.ids) }

type mapClock struct {
	ring []PageID
	use  map[PageID]bool
	pos  map[PageID]int
	hand int
}

func newMapClock() *mapClock {
	return &mapClock{use: make(map[PageID]bool), pos: make(map[PageID]int)}
}

func (*mapClock) Name() string { return "clock" }

func (c *mapClock) Insert(id PageID, _ sim.Time) {
	if _, ok := c.pos[id]; ok {
		return
	}
	c.pos[id] = len(c.ring)
	c.ring = append(c.ring, id)
	c.use[id] = true
}

func (c *mapClock) Touch(id PageID, _ sim.Time, _ bool) {
	if _, ok := c.pos[id]; ok {
		c.use[id] = true
	}
}

func (c *mapClock) Victim(sim.Time) (PageID, error) {
	if len(c.ring) == 0 {
		return 0, ErrEmpty
	}
	for sweeps := 0; sweeps < 2*len(c.ring)+1; sweeps++ {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		id := c.ring[c.hand]
		if c.use[id] {
			c.use[id] = false
			c.hand++
			continue
		}
		return id, nil
	}
	return c.ring[0], nil
}

func (c *mapClock) Remove(id PageID) {
	i, ok := c.pos[id]
	if !ok {
		return
	}
	last := len(c.ring) - 1
	c.ring[i] = c.ring[last]
	c.pos[c.ring[i]] = i
	c.ring = c.ring[:last]
	delete(c.pos, id)
	delete(c.use, id)
	if c.hand > last {
		c.hand = 0
	}
}

func (c *mapClock) Len() int { return len(c.ring) }

type mapM44 struct {
	rng        *sim.RNG
	ids        []PageID
	index      map[PageID]int
	used       []bool
	dirty      []bool
	candidates []int // scratch for Victim, indices into ids
}

func newMapM44(rng *sim.RNG) *mapM44 {
	return &mapM44{
		rng:   rng,
		index: make(map[PageID]int),
	}
}

func (*mapM44) Name() string { return "m44-random" }

func (m *mapM44) Insert(id PageID, _ sim.Time) {
	if _, ok := m.index[id]; ok {
		return
	}
	m.index[id] = len(m.ids)
	m.ids = append(m.ids, id)
	m.used = append(m.used, true)
	m.dirty = append(m.dirty, false)
}

func (m *mapM44) Touch(id PageID, _ sim.Time, write bool) {
	i, ok := m.index[id]
	if !ok {
		return
	}
	m.used[i] = true
	if write {
		m.dirty[i] = true
	}
}

func (m *mapM44) class(i int) int {
	c := 0
	if m.used[i] {
		c += 2
	}
	if m.dirty[i] {
		c++
	}
	return c
}

func (m *mapM44) Victim(sim.Time) (PageID, error) {
	if len(m.ids) == 0 {
		return 0, ErrEmpty
	}
	best := 4
	m.candidates = m.candidates[:0]
	for i := range m.ids {
		c := m.class(i)
		if c < best {
			best = c
			m.candidates = m.candidates[:0]
		}
		if c == best {
			m.candidates = append(m.candidates, i)
		}
	}
	victim := m.ids[m.candidates[m.rng.Intn(len(m.candidates))]]
	for i := range m.used {
		m.used[i] = false
	}
	return victim, nil
}

func (m *mapM44) Remove(id PageID) {
	i, ok := m.index[id]
	if !ok {
		return
	}
	last := len(m.ids) - 1
	m.ids[i] = m.ids[last]
	m.used[i] = m.used[last]
	m.dirty[i] = m.dirty[last]
	m.index[m.ids[i]] = i
	m.ids = m.ids[:last]
	m.used = m.used[:last]
	m.dirty = m.dirty[:last]
	delete(m.index, id)
}

func (m *mapM44) Len() int { return len(m.ids) }

type mapLearnEntry struct {
	id       PageID
	lastUse  sim.Time
	interval sim.Time
	seq      uint64
}

type mapLearning struct {
	entries []mapLearnEntry
	index   map[PageID]int
	n       uint64
	Slack   sim.Time
}

func newMapLearning() *mapLearning {
	return &mapLearning{
		index: make(map[PageID]int),
		Slack: 1,
	}
}

func (*mapLearning) Name() string { return "atlas-learning" }

func (l *mapLearning) Insert(id PageID, now sim.Time) {
	if _, ok := l.index[id]; ok {
		return
	}
	l.n++
	l.index[id] = len(l.entries)
	l.entries = append(l.entries, mapLearnEntry{
		id:       id,
		lastUse:  now,
		interval: 0, // no history yet
		seq:      l.n,
	})
}

func (l *mapLearning) Touch(id PageID, now sim.Time, _ bool) {
	i, ok := l.index[id]
	if !ok {
		return
	}
	e := &l.entries[i]
	if gap := now - e.lastUse; gap > 0 {
		e.interval = gap
	}
	e.lastUse = now
}

func (l *mapLearning) Victim(now sim.Time) (PageID, error) {
	if len(l.entries) == 0 {
		return 0, ErrEmpty
	}
	var outOfUse *mapLearnEntry
	var bestOver sim.Time = -1
	for i := range l.entries {
		e := &l.entries[i]
		T := e.interval
		if T == 0 {
			continue // no established period yet
		}
		t := now - e.lastUse
		if t > T*l.Slack {
			over := t - T
			if over > bestOver || (over == bestOver && e.seq < outOfUse.seq) {
				bestOver = over
				outOfUse = e
			}
		}
	}
	if outOfUse != nil {
		return outOfUse.id, nil
	}
	var victim *mapLearnEntry
	var bestScore sim.Time
	for i := range l.entries {
		e := &l.entries[i]
		score := e.interval - (now - e.lastUse)
		if victim == nil || score > bestScore ||
			(score == bestScore && e.seq < victim.seq) {
			victim = e
			bestScore = score
		}
	}
	return victim.id, nil
}

func (l *mapLearning) Remove(id PageID) {
	i, ok := l.index[id]
	if !ok {
		return
	}
	last := len(l.entries) - 1
	l.entries[i] = l.entries[last]
	l.index[l.entries[i].id] = i
	l.entries = l.entries[:last]
	delete(l.index, id)
}

func (l *mapLearning) Len() int { return len(l.entries) }

type mapMIN struct {
	future   []PageID
	next     []int
	nextUse  map[PageID]int
	cursor   int
	resident map[PageID]bool
}

func newMapMIN(refs []PageID) *mapMIN {
	m := &mapMIN{
		future:   refs,
		next:     make([]int, len(refs)),
		nextUse:  make(map[PageID]int),
		resident: make(map[PageID]bool),
	}
	last := make(map[PageID]int)
	for i := len(refs) - 1; i >= 0; i-- {
		p := refs[i]
		if j, ok := last[p]; ok {
			m.next[i] = j
		} else {
			m.next[i] = len(refs) + 1 // never used again
		}
		last[p] = i
	}
	return m
}

func (*mapMIN) Name() string { return "belady-min" }

func (m *mapMIN) consume(id PageID) {
	if m.cursor < len(m.next) {
		m.nextUse[id] = m.next[m.cursor]
	} else {
		m.nextUse[id] = len(m.future) + 1
	}
	m.cursor++
}

func (m *mapMIN) Insert(id PageID, _ sim.Time) {
	m.resident[id] = true
	m.consume(id)
}

func (m *mapMIN) Touch(id PageID, _ sim.Time, _ bool) { m.consume(id) }

func (m *mapMIN) Victim(sim.Time) (PageID, error) {
	if len(m.resident) == 0 {
		return 0, ErrEmpty
	}
	var victim PageID
	bestNext := -1
	first := true
	for id := range m.resident {
		next := m.nextUse[id]
		if first || next > bestNext || (next == bestNext && id < victim) {
			victim = id
			bestNext = next
			first = false
		}
	}
	return victim, nil
}

func (m *mapMIN) Remove(id PageID) { delete(m.resident, id) }

func (m *mapMIN) Len() int { return len(m.resident) }

func mapFaultCount(p Policy, refs []PageID, capacity int) int {
	var clock sim.Clock
	resident := make(map[PageID]bool, capacity)
	faults := 0
	for _, r := range refs {
		clock.Advance(1)
		if resident[r] {
			p.Touch(r, clock.Now(), false)
			continue
		}
		faults++
		if len(resident) == capacity {
			v, err := p.Victim(clock.Now())
			if err != nil {
				panic(err)
			}
			p.Remove(v)
			delete(resident, v)
		}
		resident[r] = true
		p.Insert(r, clock.Now())
	}
	return faults
}

// policyPair names a dense policy and its map-keyed original. The
// stochastic pairs get identically seeded RNGs.
type policyPair struct {
	name       string
	dense, ref func(future []PageID) Policy
}

var policyPairs = []policyPair{
	{"belady-min",
		func(f []PageID) Policy { return NewMIN(f) },
		func(f []PageID) Policy { return newMapMIN(f) }},
	{"lru",
		func([]PageID) Policy { return NewLRU() },
		func([]PageID) Policy { return newMapLRU() }},
	{"clock",
		func([]PageID) Policy { return NewClock() },
		func([]PageID) Policy { return newMapClock() }},
	{"fifo",
		func([]PageID) Policy { return NewFIFO() },
		func([]PageID) Policy { return newMapFIFO() }},
	{"random",
		func([]PageID) Policy { return NewRandom(sim.NewRNG(99)) },
		func([]PageID) Policy { return newMapRandom(sim.NewRNG(99)) }},
	{"m44-random",
		func([]PageID) Policy { return NewM44Random(sim.NewRNG(99)) },
		func([]PageID) Policy { return newMapM44(sim.NewRNG(99)) }},
	{"atlas-learning",
		func([]PageID) Policy { return NewLearning() },
		func([]PageID) Policy { return newMapLearning() }},
}

// victimLog records every victim a policy picks.
type victimLog struct {
	Policy
	victims []PageID
}

func (v *victimLog) Victim(now sim.Time) (PageID, error) {
	id, err := v.Policy.Victim(now)
	if err == nil {
		v.victims = append(v.victims, id)
	}
	return id, err
}

// t1Strings are the page strings of experiment T1 (256-word pages over
// a 64-page extent) at a few seeds.
func t1Strings(t *testing.T) map[string][]uint64 {
	t.Helper()
	const pageSize = 256
	out := map[string][]uint64{
		"loop(17 pages)": workload.Loop(17, pageSize, 100).PageString(pageSize),
	}
	for seed := uint64(0); seed < 3; seed++ {
		ws, err := workload.WorkingSet(sim.NewRNG(seed), workload.WorkingSetConfig{
			Extent: 64 * pageSize, SetWords: 8 * pageSize,
			PhaseLen: 5000, Phases: 6, LocalityProb: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("working-set@%d", seed)] = ws.PageString(pageSize)
		var random trace.Trace = workload.UniformRandom(sim.NewRNG(seed), 64*pageSize, 20000)
		out[fmt.Sprintf("random@%d", seed)] = random.PageString(pageSize)
	}
	return out
}

// sparseString draws a page string over a few dozen pages scattered
// through a wide id range, with locality, so dense slices grow far
// beyond the resident set.
func sparseString(seed uint64, n int) []PageID {
	rng := sim.NewRNG(seed)
	ids := make([]PageID, 40)
	for i := range ids {
		ids[i] = PageID(rng.Intn(1 << 16))
	}
	refs := make([]PageID, n)
	for i := range refs {
		if rng.Float64() < 0.8 {
			refs[i] = ids[rng.Intn(8)]
		} else {
			refs[i] = ids[rng.Intn(len(ids))]
		}
	}
	return refs
}

func checkFaultCountLockstep(t *testing.T, name string, refs []PageID, capacity int) {
	t.Helper()
	for _, pp := range policyPairs {
		got, want := &victimLog{Policy: pp.dense(refs)}, &victimLog{Policy: pp.ref(refs)}
		gf, wf := FaultCount(got, refs, capacity), mapFaultCount(want, refs, capacity)
		if gf != wf {
			t.Fatalf("%s/%s/frames=%d: FaultCount %d, map original %d", name, pp.name, capacity, gf, wf)
		}
		for i := range want.victims {
			if got.victims[i] != want.victims[i] {
				t.Fatalf("%s/%s/frames=%d: victim %d is %d, map original %d",
					name, pp.name, capacity, i, got.victims[i], want.victims[i])
			}
		}
	}
}

// TestFaultCountMatchesMapImplementations replays the T1 page strings
// (raw and renamed by PageString) and sparse random strings through
// all seven policies and the map-keyed originals: every fault count
// and every victim must agree.
func TestFaultCountMatchesMapImplementations(t *testing.T) {
	for name, pages := range t1Strings(t) {
		raw := make([]PageID, len(pages))
		for i, p := range pages {
			raw[i] = PageID(p)
		}
		for _, frames := range []int{8, 16, 24} {
			checkFaultCountLockstep(t, name, raw, frames)
			checkFaultCountLockstep(t, name+"/dense", PageString(pages), frames)
		}
	}
	for seed := uint64(0); seed < 6; seed++ {
		refs := sparseString(seed, 3000)
		for _, frames := range []int{1, 3, 8, 39} {
			checkFaultCountLockstep(t, fmt.Sprintf("sparse@%d", seed), refs, frames)
		}
	}
}

// TestPageStringPreservesFaultCounts checks the renaming PageString
// performs: ids are dense and order-preserving, and every dense policy
// faults on the renamed string exactly as often as its map original
// on the raw one, even when the raw ids are far too sparse to index.
func TestPageStringPreservesFaultCounts(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		rng := sim.NewRNG(seed)
		pages := make([]uint64, 2000)
		for i := range pages {
			pages[i] = uint64(rng.Intn(50)) * uint64(1+rng.Intn(2)) << (16 * seed) // sparse for seed > 0
		}
		dense := PageString(pages)
		for i := range pages {
			for _, j := range []int{0, i / 2, len(pages) - 1} {
				if (pages[i] < pages[j]) != (dense[i] < dense[j]) || (pages[i] == pages[j]) != (dense[i] == dense[j]) {
					t.Fatalf("seed %d: PageString does not preserve order at %d,%d", seed, i, j)
				}
			}
		}
		distinct := map[uint64]bool{}
		for _, p := range pages {
			distinct[p] = true
		}
		for _, id := range dense {
			if int(id) >= len(distinct) {
				t.Fatalf("seed %d: id %d not below the %d distinct pages", seed, id, len(distinct))
			}
		}
		raw := make([]PageID, len(pages))
		for i, p := range pages {
			raw[i] = PageID(p)
		}
		for _, pp := range policyPairs {
			for _, frames := range []int{4, 12} {
				x := mapFaultCount(pp.ref(raw), raw, frames)
				if y := FaultCount(pp.dense(dense), dense, frames); x != y {
					t.Fatalf("seed %d %s frames=%d: %d faults raw, %d renamed", seed, pp.name, frames, x, y)
				}
			}
		}
	}
}

// TestPoliciesMatchMapImplementations drives every dense policy and
// its map-keyed original through the random operation mix of
// driveLockstep, which also re-inserts evicted ids so stale dense
// state would show.
func TestPoliciesMatchMapImplementations(t *testing.T) {
	for _, pp := range policyPairs {
		for seed := uint64(0); seed < 3; seed++ {
			future := sparseString(seed, 4000)
			dense, ref := pp.dense(future), pp.ref(future)
			driveLockstep(t, seed, 4000,
				func(id PageID, now sim.Time) {
					dense.Insert(id, now)
					ref.Insert(id, now)
				},
				func(id PageID, now sim.Time, w bool) {
					dense.Touch(id, now, w)
					ref.Touch(id, now, w)
				},
				func(now sim.Time) (PageID, bool) {
					got, gerr := dense.Victim(now)
					want, werr := ref.Victim(now)
					if (gerr == nil) != (werr == nil) || got != want {
						t.Fatalf("%s seed %d: Victim = (%d, %v), map original (%d, %v)",
							pp.name, seed, got, gerr, want, werr)
					}
					return got, gerr == nil
				},
				func(id PageID) {
					dense.Remove(id)
					ref.Remove(id)
				},
				func() (int, int) { return dense.Len(), ref.Len() },
			)
		}
	}
}

// TestFaultCountAllocsPerReference pins FaultCount's steady state:
// replaying a string eight times over allocates exactly as often as
// replaying it once, so a reference allocates nothing.
func TestFaultCountAllocsPerReference(t *testing.T) {
	once := sparseString(1, 2000)
	var eight []PageID
	for i := 0; i < 8; i++ {
		eight = append(eight, once...)
	}
	for _, pp := range policyPairs {
		allocs := func(refs []PageID) float64 {
			return testing.AllocsPerRun(3, func() {
				FaultCount(pp.dense(refs), refs, 6)
			})
		}
		if a, b := allocs(once), allocs(eight); a != b {
			t.Errorf("%s: %.0f allocations for %d refs, %.0f for %d", pp.name, a, len(once), b, len(eight))
		}
	}
}
