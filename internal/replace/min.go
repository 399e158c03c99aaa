package replace

import "dsa/internal/sim"

// MIN is Belady's optimal offline replacement policy [1]: evict the
// resident page whose next use lies farthest in the future. It needs
// the full future reference string, so it is constructed from the page
// string the experiment is about to replay and advances an internal
// cursor on every Touch. It exists as the unreachable yardstick that
// the paper's cited study measures every realizable policy against.
type MIN struct {
	future []PageID
	// next[i] holds, for reference position i, the position of the
	// next reference to the same page (len(future)+1 if none — the
	// "never used again" sentinel Victim compares against). One flat
	// precomputed array replaces the per-page position queues, whose
	// construction dominated NewMIN's allocations.
	next []int
	// nextUse holds, indexed by page id, the position of each resident
	// page's next reference after the reference that last consumed it.
	nextUse []int
	cursor  int
	// ids lists the resident pages, which Victim scans; pos indexes
	// them by page id.
	ids []PageID
	pos slots
}

// NewMIN builds the policy for a known future page-reference string.
// The caller must Touch pages in exactly the order of refs.
func NewMIN(refs []PageID) *MIN {
	m := &MIN{
		future: refs,
		next:   make([]int, len(refs)),
	}
	var bound PageID
	for _, p := range refs {
		bound = max(bound, p+1)
	}
	last := make([]int, bound) // position+1 of the page's next reference; 0 = none
	for i := len(refs) - 1; i >= 0; i-- {
		p := refs[i]
		if j := last[p]; j > 0 {
			m.next[i] = j - 1
		} else {
			m.next[i] = len(refs) + 1 // never used again
		}
		last[p] = i + 1
	}
	return m
}

// Name implements Policy.
func (*MIN) Name() string { return "belady-min" }

// consume advances the cursor past the current reference and records
// the consumed page's next use.
func (m *MIN) consume(id PageID) {
	m.nextUse = grow(m.nextUse, id)
	if m.cursor < len(m.next) {
		m.nextUse[id] = m.next[m.cursor]
	} else {
		m.nextUse[id] = len(m.future) + 1
	}
	m.cursor++
}

// Insert implements Policy. The insertion reference consumes one
// position of the future string.
func (m *MIN) Insert(id PageID, _ sim.Time) {
	if _, ok := m.pos.get(id); !ok {
		m.pos.set(id, len(m.ids))
		m.ids = append(m.ids, id)
	}
	m.consume(id)
}

// Touch implements Policy. Each Touch consumes one position of the
// future string.
func (m *MIN) Touch(id PageID, _ sim.Time, _ bool) { m.consume(id) }

// Victim implements Policy: the resident page with the farthest (or no)
// next use, the lowest id among ties, so the scan order of the
// resident list does not matter.
func (m *MIN) Victim(sim.Time) (PageID, error) {
	if len(m.ids) == 0 {
		return 0, ErrEmpty
	}
	victim := m.ids[0]
	bestNext := m.nextUse[victim]
	for _, id := range m.ids[1:] {
		next := m.nextUse[id]
		if next > bestNext || (next == bestNext && id < victim) {
			victim = id
			bestNext = next
		}
	}
	return victim, nil
}

// Remove implements Policy.
func (m *MIN) Remove(id PageID) {
	i, ok := m.pos.get(id)
	if !ok {
		return
	}
	last := len(m.ids) - 1
	m.ids[i] = m.ids[last]
	m.pos[m.ids[i]] = i + 1
	m.ids = m.ids[:last]
	m.pos[id] = 0
}

// Len implements Policy.
func (m *MIN) Len() int { return len(m.ids) }
