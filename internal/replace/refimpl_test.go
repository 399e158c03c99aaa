package replace

import (
	"fmt"
	"testing"

	"dsa/internal/sim"
)

// This file pins the rewritten policies (intrusive-list LRU,
// slice-backed Learning, buffer-reusing M44Random) to the original
// map-scan implementations: trimmed copies of the seed code are driven
// in lockstep through random workloads and must produce identical
// victim sequences throughout.

// refLRU is the seed LRU: timestamp map plus sequence tiebreak, victim
// by full scan for the minimum (last, seq).
type refLRU struct {
	last map[PageID]sim.Time
	seq  map[PageID]uint64
	n    uint64
}

func newRefLRU() *refLRU {
	return &refLRU{last: make(map[PageID]sim.Time), seq: make(map[PageID]uint64)}
}

func (l *refLRU) Insert(id PageID, now sim.Time) {
	l.last[id] = now
	l.n++
	l.seq[id] = l.n
}

func (l *refLRU) Touch(id PageID, now sim.Time) {
	if _, ok := l.last[id]; ok {
		l.last[id] = now
		l.n++
		l.seq[id] = l.n
	}
}

func (l *refLRU) Victim() (PageID, bool) {
	if len(l.last) == 0 {
		return 0, false
	}
	var victim PageID
	first := true
	for id, t := range l.last {
		if first || t < l.last[victim] ||
			(t == l.last[victim] && l.seq[id] < l.seq[victim]) {
			victim = id
			first = false
		}
	}
	return victim, true
}

func (l *refLRU) Remove(id PageID) {
	delete(l.last, id)
	delete(l.seq, id)
}

// refLearning is the seed ATLAS policy: three maps, victim by two
// map-iteration passes with sequence tiebreaks.
type refLearning struct {
	lastUse  map[PageID]sim.Time
	interval map[PageID]sim.Time
	seq      map[PageID]uint64
	n        uint64
	slack    sim.Time
}

func newRefLearning() *refLearning {
	return &refLearning{
		lastUse:  make(map[PageID]sim.Time),
		interval: make(map[PageID]sim.Time),
		seq:      make(map[PageID]uint64),
		slack:    1,
	}
}

func (l *refLearning) Insert(id PageID, now sim.Time) {
	if _, ok := l.lastUse[id]; ok {
		return
	}
	l.lastUse[id] = now
	l.interval[id] = 0
	l.n++
	l.seq[id] = l.n
}

func (l *refLearning) Touch(id PageID, now sim.Time) {
	last, ok := l.lastUse[id]
	if !ok {
		return
	}
	if gap := now - last; gap > 0 {
		l.interval[id] = gap
	}
	l.lastUse[id] = now
}

func (l *refLearning) Victim(now sim.Time) (PageID, bool) {
	if len(l.lastUse) == 0 {
		return 0, false
	}
	var outOfUse PageID
	var bestOver sim.Time = -1
	for id, last := range l.lastUse {
		T := l.interval[id]
		if T == 0 {
			continue
		}
		t := now - last
		if t > T*l.slack {
			over := t - T
			if over > bestOver || (over == bestOver && l.seq[id] < l.seq[outOfUse]) {
				bestOver = over
				outOfUse = id
			}
		}
	}
	if bestOver >= 0 {
		return outOfUse, true
	}
	var victim PageID
	var bestScore sim.Time
	first := true
	for id, last := range l.lastUse {
		T := l.interval[id]
		t := now - last
		score := T - t
		if first || score > bestScore ||
			(score == bestScore && l.seq[id] < l.seq[victim]) {
			victim = id
			bestScore = score
			first = false
		}
	}
	return victim, true
}

func (l *refLearning) Remove(id PageID) {
	delete(l.lastUse, id)
	delete(l.interval, id)
	delete(l.seq, id)
}

// refM44 is the seed M44/44X policy: use/dirty bits in maps, a fresh
// candidates slice per victim selection.
type refM44 struct {
	rng   *sim.RNG
	ids   []PageID
	index map[PageID]int
	used  map[PageID]bool
	dirty map[PageID]bool
}

func newRefM44(rng *sim.RNG) *refM44 {
	return &refM44{
		rng:   rng,
		index: make(map[PageID]int),
		used:  make(map[PageID]bool),
		dirty: make(map[PageID]bool),
	}
}

func (m *refM44) Insert(id PageID) {
	if _, ok := m.index[id]; ok {
		return
	}
	m.index[id] = len(m.ids)
	m.ids = append(m.ids, id)
	m.used[id] = true
}

func (m *refM44) Touch(id PageID, write bool) {
	if _, ok := m.index[id]; !ok {
		return
	}
	m.used[id] = true
	if write {
		m.dirty[id] = true
	}
}

func (m *refM44) class(id PageID) int {
	c := 0
	if m.used[id] {
		c += 2
	}
	if m.dirty[id] {
		c++
	}
	return c
}

func (m *refM44) Victim() (PageID, bool) {
	if len(m.ids) == 0 {
		return 0, false
	}
	best := 4
	var candidates []PageID
	for _, id := range m.ids {
		c := m.class(id)
		if c < best {
			best = c
			candidates = candidates[:0]
		}
		if c == best {
			candidates = append(candidates, id)
		}
	}
	victim := candidates[m.rng.Intn(len(candidates))]
	for _, id := range m.ids {
		m.used[id] = false
	}
	return victim, true
}

func (m *refM44) Remove(id PageID) {
	i, ok := m.index[id]
	if !ok {
		return
	}
	last := len(m.ids) - 1
	m.ids[i] = m.ids[last]
	m.index[m.ids[i]] = i
	m.ids = m.ids[:last]
	delete(m.index, id)
	delete(m.used, id)
	delete(m.dirty, id)
}

// driveLockstep runs a random insert/touch/victim/remove workload
// against a policy and a shadow, failing on any divergence. The clock
// advances monotonically, as the paging engine's clock does. Evicted
// pages come back now and then, as they do under paging.
func driveLockstep(t *testing.T, seed uint64, steps int,
	insert func(PageID, sim.Time),
	touch func(PageID, sim.Time, bool),
	victim func(sim.Time) (PageID, bool),
	remove func(PageID),
	length func() (int, int),
) {
	t.Helper()
	rng := sim.NewRNG(seed)
	var now sim.Time
	var resident, gone []PageID
	nextID := PageID(1)
	for step := 0; step < steps; step++ {
		now += sim.Time(rng.Intn(3)) // monotonic, with ties
		switch op := rng.Intn(10); {
		case op < 3: // insert a new page, or re-insert a resident one
			if len(resident) > 0 && rng.Intn(6) == 0 {
				// Re-insert while resident, as the pager does when it
				// returns a sidelined page: LRU refreshes recency, the
				// others must no-op.
				insert(resident[rng.Intn(len(resident))], now)
				continue
			}
			id := nextID
			if len(gone) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(gone))
				id = gone[j]
				gone = append(gone[:j], gone[j+1:]...)
			} else {
				nextID++
			}
			insert(id, now)
			resident = append(resident, id)
		case op < 7: // touch a resident page (or a bogus one)
			if len(resident) > 0 && rng.Intn(8) > 0 {
				touch(resident[rng.Intn(len(resident))], now, rng.Intn(4) == 0)
			} else {
				touch(nextID+1000, now, false) // non-resident: must no-op
			}
		case op < 9: // select and evict a victim
			id, ok := victim(now)
			if !ok {
				continue
			}
			remove(id)
			gone = append(gone, id)
			for i, r := range resident {
				if r == id {
					resident = append(resident[:i], resident[i+1:]...)
					break
				}
			}
		default: // remove an arbitrary page
			if len(resident) > 0 {
				j := rng.Intn(len(resident))
				remove(resident[j])
				gone = append(gone, resident[j])
				resident = append(resident[:j], resident[j+1:]...)
			}
		}
		if got, want := length(); got != want {
			t.Fatalf("step %d: Len() = %d, reference %d", step, got, want)
		}
	}
}

// TestLRUMatchesReference proves the intrusive recency list selects
// exactly the victims the seed's (timestamp, sequence) scan selected.
func TestLRUMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			l := NewLRU()
			r := newRefLRU()
			driveLockstep(t, seed, 6000,
				func(id PageID, now sim.Time) {
					l.Insert(id, now)
					r.Insert(id, now)
				},
				func(id PageID, now sim.Time, w bool) {
					l.Touch(id, now, w)
					r.Touch(id, now)
				},
				func(now sim.Time) (PageID, bool) {
					got, err := l.Victim(now)
					want, ok := r.Victim()
					if (err == nil) != ok {
						t.Fatalf("Victim err=%v, reference ok=%v", err, ok)
					}
					if !ok {
						return 0, false
					}
					if got != want {
						t.Fatalf("Victim = %d, reference %d", got, want)
					}
					return got, true
				},
				func(id PageID) {
					l.Remove(id)
					r.Remove(id)
				},
				func() (int, int) { return l.Len(), len(r.last) },
			)
		})
	}
}

// TestLearningMatchesReference proves the dense-slice scan selects
// exactly the victims the seed's map-iteration passes selected.
func TestLearningMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			l := NewLearning()
			r := newRefLearning()
			driveLockstep(t, seed, 6000,
				func(id PageID, now sim.Time) {
					l.Insert(id, now)
					r.Insert(id, now)
				},
				func(id PageID, now sim.Time, w bool) {
					l.Touch(id, now, w)
					r.Touch(id, now)
				},
				func(now sim.Time) (PageID, bool) {
					got, err := l.Victim(now)
					want, ok := r.Victim(now)
					if (err == nil) != ok {
						t.Fatalf("Victim err=%v, reference ok=%v", err, ok)
					}
					if !ok {
						return 0, false
					}
					if got != want {
						t.Fatalf("Victim = %d, reference %d", got, want)
					}
					return got, true
				},
				func(id PageID) {
					l.Remove(id)
					r.Remove(id)
				},
				func() (int, int) { return l.Len(), len(r.lastUse) },
			)
		})
	}
}

// TestM44MatchesReference proves the slice-backed classing and reused
// candidate buffer build the same candidate lists (same order, same
// length), so the paired RNGs draw the same victims.
func TestM44MatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := NewM44Random(sim.NewRNG(1234))
			r := newRefM44(sim.NewRNG(1234))
			driveLockstep(t, seed, 6000,
				func(id PageID, now sim.Time) {
					m.Insert(id, now)
					r.Insert(id)
				},
				func(id PageID, now sim.Time, w bool) {
					m.Touch(id, now, w)
					r.Touch(id, w)
				},
				func(now sim.Time) (PageID, bool) {
					got, err := m.Victim(now)
					want, ok := r.Victim()
					if (err == nil) != ok {
						t.Fatalf("Victim err=%v, reference ok=%v", err, ok)
					}
					if !ok {
						return 0, false
					}
					if got != want {
						t.Fatalf("Victim = %d, reference %d", got, want)
					}
					return got, true
				},
				func(id PageID) {
					m.Remove(id)
					r.Remove(id)
				},
				func() (int, int) { return m.Len(), len(r.ids) },
			)
		})
	}
}

// TestPolicySteadyStateAllocs pins the allocation behaviour of the hot
// policy operations: once the resident set is established, the
// touch/victim traffic of a sweep must not allocate.
func TestPolicySteadyStateAllocs(t *testing.T) {
	now := sim.Time(0)
	t.Run("lru", func(t *testing.T) {
		l := NewLRU()
		for i := PageID(0); i < 64; i++ {
			l.Insert(i, now)
		}
		cycle := func() {
			now++
			l.Touch(PageID(now)%64, now, false)
			v, err := l.Victim(now)
			if err != nil {
				t.Fatal(err)
			}
			l.Remove(v)
			l.Insert(v, now) // its slot already exists
		}
		cycle()
		if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
			t.Fatalf("LRU touch/victim/replace cycle allocates %.1f times per run", avg)
		}
	})
	t.Run("atlas-learning", func(t *testing.T) {
		l := NewLearning()
		for i := PageID(0); i < 64; i++ {
			l.Insert(i, now)
		}
		cycle := func() {
			now++
			l.Touch(PageID(now)%64, now, false)
			if _, err := l.Victim(now); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
			t.Fatalf("Learning touch/victim cycle allocates %.1f times per run", avg)
		}
	})
	t.Run("m44-random", func(t *testing.T) {
		m := NewM44Random(sim.NewRNG(7))
		for i := PageID(0); i < 64; i++ {
			m.Insert(i, now)
		}
		cycle := func() {
			now++
			m.Touch(PageID(now)%64, now, now%4 == 0)
			if _, err := m.Victim(now); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm the candidate buffer
		if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
			t.Fatalf("M44 touch/victim cycle allocates %.1f times per run", avg)
		}
	})
}
