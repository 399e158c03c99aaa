// Package store models the physical storage hierarchy of a 1960s
// computer system: one or more directly addressable working-storage
// levels (core) backed by slower levels (drum, disk, tape).
//
// Each level holds real data (64-bit words) and charges simulated time
// for accesses and block transfers, so the allocation systems built on
// top exercise genuine read/write paths rather than counting abstract
// events. Capacities and timings for the concrete machines are taken
// from the paper's appendix (e.g. ATLAS: 16,384-word core and a
// 98,304-word drum; IBM M44: ~200,000 words of 8 microsecond core and
// a 9 million word IBM 1301 disk file).
package store

import (
	"errors"
	"fmt"

	"dsa/internal/sim"
)

// Kind classifies a storage level by technology, which in this model
// only affects naming and reporting; timing is fully described by the
// level's AccessTime and WordTime.
type Kind int

const (
	// Core is directly addressable working storage.
	Core Kind = iota
	// Drum is a fast rotating backing store.
	Drum
	// Disk is a slower, larger backing store.
	Disk
	// Tape is sequential backing storage (Rice University computer).
	Tape
)

// String returns the conventional name of the storage technology.
func (k Kind) String() string {
	switch k {
	case Core:
		return "core"
	case Drum:
		return "drum"
	case Disk:
		return "disk"
	case Tape:
		return "tape"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrBounds reports an access outside a level's capacity.
var ErrBounds = errors.New("store: address out of bounds")

// A level's words live in fixed-size chunks allocated on first write.
const (
	chunkShift = 12
	chunkWords = 1 << chunkShift
	chunkMask  = chunkWords - 1
)

// chunk is one allocated run of a level's words.
type chunk [chunkWords]uint64

// Level is one level of the storage hierarchy. It owns its words and
// charges the shared clock for every operation.
//
// A level is sparse: its words live in chunks of chunkWords, and a
// chunk is allocated, zeroed, only when a word in it is first written.
// An untouched chunk reads as zeros, which is what a freshly cleared
// level held, so a cell pays for the storage it writes rather than for
// a whole drum or disk it mostly never touches. Capacity, bounds
// errors, timing and counters are those of a dense level.
type Level struct {
	// Name identifies the level in reports, e.g. "core" or "1301 disk".
	Name string
	// Kind is the storage technology.
	Kind Kind

	clock    *sim.Clock
	capacity int
	chunks   []*chunk // nil until first written

	// AccessTime is the fixed cost charged once per operation: a single
	// core cycle for core, average rotational latency for a drum, seek
	// plus rotation for a disk.
	AccessTime sim.Time
	// WordTime is the additional cost per word transferred.
	WordTime sim.Time

	reads     int64
	writes    int64
	transfers int64
	moved     int64
}

// NewLevel creates a storage level of the given capacity in words.
func NewLevel(clock *sim.Clock, name string, kind Kind, capacity int, access, word sim.Time) *Level {
	if capacity <= 0 {
		panic("store: non-positive capacity")
	}
	return &Level{
		Name:       name,
		Kind:       kind,
		clock:      clock,
		capacity:   capacity,
		chunks:     make([]*chunk, (capacity+chunkMask)>>chunkShift),
		AccessTime: access,
		WordTime:   word,
	}
}

// Capacity reports the level's size in words.
func (l *Level) Capacity() int { return l.capacity }

// word returns the word at an in-bounds address.
func (l *Level) word(addr int) uint64 {
	if c := l.chunks[addr>>chunkShift]; c != nil {
		return c[addr&chunkMask]
	}
	return 0
}

// writable returns chunk i, allocating it on first write.
func (l *Level) writable(i int) *chunk {
	c := l.chunks[i]
	if c == nil {
		c = new(chunk)
		l.chunks[i] = c
	}
	return c
}

// copyWords copies n in-bounds words from src[srcAddr:] to
// dst[dstAddr:] chunk run by chunk run, with the semantics of the
// builtin copy on one flat array: overlapping ranges within one level
// copy backward when the destination lies above the source. A run read
// from an untouched chunk clears its destination, and allocates
// nothing if that destination is untouched too.
func copyWords(dst *Level, dstAddr int, src *Level, srcAddr, n int) {
	backward := dst == src && dstAddr > srcAddr
	for n > 0 {
		s, d := srcAddr, dstAddr
		var k int
		if backward {
			// The run ends at the last word still to be copied.
			s, d = srcAddr+n-1, dstAddr+n-1
			k = min(n, s&chunkMask+1, d&chunkMask+1)
			s, d = s-k+1, d-k+1
		} else {
			k = min(n, chunkWords-s&chunkMask, chunkWords-d&chunkMask)
		}
		so, do := s&chunkMask, d&chunkMask
		if sc := src.chunks[s>>chunkShift]; sc != nil {
			copy(dst.writable(d >> chunkShift)[do:do+k], sc[so:so+k])
		} else if dc := dst.chunks[d>>chunkShift]; dc != nil {
			clear(dc[do : do+k])
		}
		if !backward {
			srcAddr += k
			dstAddr += k
		}
		n -= k
	}
}

// ReadWord reads one word, charging one access.
func (l *Level) ReadWord(addr int) (uint64, error) {
	if addr < 0 || addr >= l.capacity {
		return 0, fmt.Errorf("%w: read %s[%d], capacity %d", ErrBounds, l.Name, addr, l.capacity)
	}
	l.clock.Advance(l.AccessTime + l.WordTime)
	l.reads++
	return l.word(addr), nil
}

// WriteWord writes one word, charging one access.
func (l *Level) WriteWord(addr int, v uint64) error {
	if addr < 0 || addr >= l.capacity {
		return fmt.Errorf("%w: write %s[%d], capacity %d", ErrBounds, l.Name, addr, l.capacity)
	}
	l.clock.Advance(l.AccessTime + l.WordTime)
	l.writes++
	l.writable(addr >> chunkShift)[addr&chunkMask] = v
	return nil
}

// PeekWord reads a word without charging time or counting statistics.
// It is intended for tests and report generation.
func (l *Level) PeekWord(addr int) (uint64, error) {
	if addr < 0 || addr >= l.capacity {
		return 0, fmt.Errorf("%w: peek %s[%d], capacity %d", ErrBounds, l.Name, addr, l.capacity)
	}
	return l.word(addr), nil
}

// TransferCost reports the time a block transfer of n words costs on
// this level without performing it: one access plus n word times.
func (l *Level) TransferCost(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return l.AccessTime + sim.Time(n)*l.WordTime
}

// Stats reports the operation counters accumulated so far.
func (l *Level) Stats() LevelStats {
	return LevelStats{Reads: l.reads, Writes: l.writes, Transfers: l.transfers, WordsMoved: l.moved}
}

// LevelStats are the accumulated operation counts of a Level.
type LevelStats struct {
	Reads      int64
	Writes     int64
	Transfers  int64
	WordsMoved int64
}

// Transfer copies n words from src[srcAddr...] to dst[dstAddr...],
// charging the cost of reading the slower side and writing the other:
// the transfer is dominated by the slower device, which is how channel
// transfers behaved on the surveyed machines. Both levels' transfer
// counters are incremented.
func Transfer(src *Level, srcAddr int, dst *Level, dstAddr, n int) error {
	if n < 0 {
		return fmt.Errorf("store: negative transfer length %d", n)
	}
	if srcAddr < 0 || srcAddr+n > src.capacity {
		return fmt.Errorf("%w: transfer source %s[%d:%d], capacity %d",
			ErrBounds, src.Name, srcAddr, srcAddr+n, src.capacity)
	}
	if dstAddr < 0 || dstAddr+n > dst.capacity {
		return fmt.Errorf("%w: transfer destination %s[%d:%d], capacity %d",
			ErrBounds, dst.Name, dstAddr, dstAddr+n, dst.capacity)
	}
	cost := src.TransferCost(n)
	if c := dst.TransferCost(n); c > cost {
		cost = c
	}
	src.clock.Advance(cost)
	copyWords(dst, dstAddr, src, srcAddr, n)
	src.transfers++
	dst.transfers++
	src.moved += int64(n)
	dst.moved += int64(n)
	return nil
}

// TransferOverlapped copies like Transfer but without advancing the
// clock: it models a transfer overlapped with program execution, as
// when anticipated pages are brought in "before [they are] needed"
// while the processor runs, or when ATLAS overlapped page arrivals
// with I/O of other programs. Transfer statistics are still counted.
func TransferOverlapped(src *Level, srcAddr int, dst *Level, dstAddr, n int) error {
	if n < 0 {
		return fmt.Errorf("store: negative transfer length %d", n)
	}
	if srcAddr < 0 || srcAddr+n > src.capacity {
		return fmt.Errorf("%w: transfer source %s[%d:%d], capacity %d",
			ErrBounds, src.Name, srcAddr, srcAddr+n, src.capacity)
	}
	if dstAddr < 0 || dstAddr+n > dst.capacity {
		return fmt.Errorf("%w: transfer destination %s[%d:%d], capacity %d",
			ErrBounds, dst.Name, dstAddr, dstAddr+n, dst.capacity)
	}
	copyWords(dst, dstAddr, src, srcAddr, n)
	src.transfers++
	dst.transfers++
	src.moved += int64(n)
	dst.moved += int64(n)
	return nil
}

// MoveWithin moves n words inside a single level (storage packing /
// compaction). The paper's "Special Hardware Facilities" section notes
// that some systems provided fast autonomous storage-to-storage channel
// operations for exactly this; the packing cost model lives here so
// compaction experiments charge realistic time.
func MoveWithin(l *Level, srcAddr, dstAddr, n int) error {
	if n < 0 {
		return fmt.Errorf("store: negative move length %d", n)
	}
	if srcAddr < 0 || srcAddr+n > l.capacity {
		return fmt.Errorf("%w: move source %s[%d:%d]", ErrBounds, l.Name, srcAddr, srcAddr+n)
	}
	if dstAddr < 0 || dstAddr+n > l.capacity {
		return fmt.Errorf("%w: move destination %s[%d:%d]", ErrBounds, l.Name, dstAddr, dstAddr+n)
	}
	l.clock.Advance(l.TransferCost(n))
	copyWords(l, dstAddr, l, srcAddr, n)
	l.transfers++
	l.moved += int64(n)
	return nil
}

// Hierarchy is an ordered set of storage levels, fastest first.
// Levels[0] is working storage; the remaining levels are backing
// storage in decreasing speed order.
type Hierarchy struct {
	Levels []*Level
}

// NewHierarchy assembles a hierarchy from levels, fastest first.
func NewHierarchy(levels ...*Level) *Hierarchy {
	if len(levels) == 0 {
		panic("store: hierarchy needs at least one level")
	}
	return &Hierarchy{Levels: levels}
}

// Working returns the working-storage (fastest) level.
func (h *Hierarchy) Working() *Level { return h.Levels[0] }

// Backing returns the primary backing level, or nil if the hierarchy
// has only working storage.
func (h *Hierarchy) Backing() *Level {
	if len(h.Levels) < 2 {
		return nil
	}
	return h.Levels[1]
}

// Describe returns a one-line-per-level summary, used by reports.
func (h *Hierarchy) Describe() string {
	s := ""
	for i, l := range h.Levels {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%s %s: %d words, access %d, per-word %d",
			l.Name, l.Kind, l.Capacity(), l.AccessTime, l.WordTime)
	}
	return s
}
