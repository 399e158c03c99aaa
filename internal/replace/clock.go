package replace

import "dsa/internal/sim"

// Clock is the "essentially cyclical" replacement strategy reported
// effective on the Burroughs B5000: a hand sweeps the resident pages in
// a fixed circular order; a page whose use bit is set gets a second
// chance (the bit is cleared), and the first page found with a clear
// bit is the victim.
type Clock struct {
	ring []PageID
	use  []bool // indexed by page id
	pos  slots
	hand int
}

// NewClock returns an empty Clock policy.
func NewClock() *Clock { return &Clock{} }

// Name implements Policy.
func (*Clock) Name() string { return "clock" }

// Insert implements Policy.
func (c *Clock) Insert(id PageID, _ sim.Time) {
	if _, ok := c.pos.get(id); ok {
		return
	}
	c.pos.set(id, len(c.ring))
	c.ring = append(c.ring, id)
	c.use = grow(c.use, id)
	c.use[id] = true
}

// Touch implements Policy.
func (c *Clock) Touch(id PageID, _ sim.Time, _ bool) {
	if _, ok := c.pos.get(id); ok {
		c.use[id] = true
	}
}

// Victim implements Policy.
func (c *Clock) Victim(sim.Time) (PageID, error) {
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
	// All bits were set repeatedly (cannot happen: first sweep clears).
	return c.ring[0], nil
}

// Remove implements Policy.
func (c *Clock) Remove(id PageID) {
	i, ok := c.pos.get(id)
	if !ok {
		return
	}
	last := len(c.ring) - 1
	c.ring[i] = c.ring[last]
	c.pos[c.ring[i]] = i + 1
	c.ring = c.ring[:last]
	c.pos[id] = 0
	if c.hand > last {
		c.hand = 0
	}
}

// Len implements Policy.
func (c *Clock) Len() int { return len(c.ring) }

// M44Random reproduces the M44/44X replacement of Appendix A.2: the
// resident pages are classed by recent usage and by whether they have
// been modified; the victim is drawn at random from the most acceptable
// class (unused & clean, then unused & dirty, then used & clean, then
// used & dirty). Use bits age on every victim selection, standing in
// for the periodic sensor interrogation of the real hardware.
//
// The use and modify bits live in slices parallel to ids, the
// id→position index is a slice indexed by page id, and the candidate
// set is a reusable buffer, so victim selection neither iterates maps
// nor allocates. Candidates accumulate in ids order exactly as before,
// so the single rng.Intn draw picks the same victim.
type M44Random struct {
	rng        *sim.RNG
	ids        []PageID
	index      slots
	used       []bool
	dirty      []bool
	candidates []int // scratch for Victim, indices into ids
}

// NewM44Random returns an M44Random policy drawing from rng.
func NewM44Random(rng *sim.RNG) *M44Random {
	return &M44Random{rng: rng}
}

// Name implements Policy.
func (*M44Random) Name() string { return "m44-random" }

// Insert implements Policy.
func (m *M44Random) Insert(id PageID, _ sim.Time) {
	if _, ok := m.index.get(id); ok {
		return
	}
	m.index.set(id, len(m.ids))
	m.ids = append(m.ids, id)
	m.used = append(m.used, true)
	m.dirty = append(m.dirty, false)
}

// Touch implements Policy.
func (m *M44Random) Touch(id PageID, _ sim.Time, write bool) {
	i, ok := m.index.get(id)
	if !ok {
		return
	}
	m.used[i] = true
	if write {
		m.dirty[i] = true
	}
}

// class orders candidates: lower is more acceptable.
func (m *M44Random) class(i int) int {
	c := 0
	if m.used[i] {
		c += 2
	}
	if m.dirty[i] {
		c++
	}
	return c
}

// Victim implements Policy.
func (m *M44Random) Victim(sim.Time) (PageID, error) {
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
	// Age the use bits, as the periodic hardware interrogation would.
	for i := range m.used {
		m.used[i] = false
	}
	return victim, nil
}

// Remove implements Policy.
func (m *M44Random) Remove(id PageID) {
	i, ok := m.index.get(id)
	if !ok {
		return
	}
	last := len(m.ids) - 1
	m.ids[i] = m.ids[last]
	m.used[i] = m.used[last]
	m.dirty[i] = m.dirty[last]
	m.index[m.ids[i]] = i + 1
	m.ids = m.ids[:last]
	m.used = m.used[:last]
	m.dirty = m.dirty[:last]
	m.index[id] = 0
}

// Len implements Policy.
func (m *M44Random) Len() int { return len(m.ids) }
