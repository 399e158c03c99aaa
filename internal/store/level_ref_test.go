package store

import (
	"fmt"
	"testing"

	"dsa/internal/sim"
)

// denseLevel is the storage level the chunked Level replaced: one flat
// word array cleared at construction. It keeps its own clock and
// counters so a lockstep run can compare every charge.
type denseLevel struct {
	name                 string
	clock                *sim.Clock
	words                []uint64
	access, word         sim.Time
	reads, writes, xfers int64
	moved                int64
}

func newDenseLevel(clock *sim.Clock, name string, capacity int, access, word sim.Time) *denseLevel {
	return &denseLevel{name: name, clock: clock, words: make([]uint64, capacity), access: access, word: word}
}

func (l *denseLevel) read(addr int) (uint64, error) {
	if addr < 0 || addr >= len(l.words) {
		return 0, fmt.Errorf("%w: read %s[%d], capacity %d", ErrBounds, l.name, addr, len(l.words))
	}
	l.clock.Advance(l.access + l.word)
	l.reads++
	return l.words[addr], nil
}

func (l *denseLevel) write(addr int, v uint64) error {
	if addr < 0 || addr >= len(l.words) {
		return fmt.Errorf("%w: write %s[%d], capacity %d", ErrBounds, l.name, addr, len(l.words))
	}
	l.clock.Advance(l.access + l.word)
	l.writes++
	l.words[addr] = v
	return nil
}

func (l *denseLevel) cost(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return l.access + sim.Time(n)*l.word
}

func denseTransfer(src *denseLevel, srcAddr int, dst *denseLevel, dstAddr, n int, charge bool) error {
	if n < 0 {
		return fmt.Errorf("store: negative transfer length %d", n)
	}
	if srcAddr < 0 || srcAddr+n > len(src.words) {
		return fmt.Errorf("%w: transfer source %s[%d:%d], capacity %d",
			ErrBounds, src.name, srcAddr, srcAddr+n, len(src.words))
	}
	if dstAddr < 0 || dstAddr+n > len(dst.words) {
		return fmt.Errorf("%w: transfer destination %s[%d:%d], capacity %d",
			ErrBounds, dst.name, dstAddr, dstAddr+n, len(dst.words))
	}
	if charge {
		src.clock.Advance(max(src.cost(n), dst.cost(n)))
	}
	copy(dst.words[dstAddr:dstAddr+n], src.words[srcAddr:srcAddr+n])
	src.xfers++
	dst.xfers++
	src.moved += int64(n)
	dst.moved += int64(n)
	return nil
}

func denseMove(l *denseLevel, srcAddr, dstAddr, n int) error {
	if n < 0 {
		return fmt.Errorf("store: negative move length %d", n)
	}
	if srcAddr < 0 || srcAddr+n > len(l.words) {
		return fmt.Errorf("%w: move source %s[%d:%d]", ErrBounds, l.name, srcAddr, srcAddr+n)
	}
	if dstAddr < 0 || dstAddr+n > len(l.words) {
		return fmt.Errorf("%w: move destination %s[%d:%d]", ErrBounds, l.name, dstAddr, dstAddr+n)
	}
	l.clock.Advance(l.cost(n))
	copy(l.words[dstAddr:dstAddr+n], l.words[srcAddr:srcAddr+n])
	l.xfers++
	l.moved += int64(n)
	return nil
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestLevelMatchesDense runs chunked levels and the dense original in
// lockstep through random mixes of reads, writes, peeks, transfers
// (charged and overlapped, between levels and within one) and
// in-level moves, overlapping or not, across chunk boundaries and
// past the bounds. Every value, error, clock reading and counter must
// agree, and so must every word at the end.
func TestLevelMatchesDense(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		rng := sim.NewRNG(seed)
		var clock, refClock sim.Clock
		// A small level, one of a few chunks, and one so large that
		// most of its chunks stay untouched.
		caps := []int{chunkWords - 5, 3*chunkWords + 17, 200 * chunkWords}
		levels := []*Level{
			NewLevel(&clock, "drum", Drum, caps[0], 50, 2),
			NewLevel(&clock, "core", Core, caps[1], 1, 0),
			NewLevel(&clock, "disk", Disk, caps[2], 900, 3),
		}
		refs := []*denseLevel{
			newDenseLevel(&refClock, "drum", caps[0], 50, 2),
			newDenseLevel(&refClock, "core", caps[1], 1, 0),
			newDenseLevel(&refClock, "disk", caps[2], 900, 3),
		}
		addr := func(capacity int) int {
			if rng.Intn(40) == 0 {
				return capacity - 2 + rng.Intn(5) // near or past the end
			}
			return rng.Intn(capacity)
		}
		length := func() int {
			switch rng.Intn(10) {
			case 0:
				return -1 + rng.Intn(2)
			case 1:
				return rng.Intn(2*chunkWords + 3)
			default:
				return rng.Intn(300)
			}
		}
		for step := 0; step < 6000; step++ {
			i := rng.Intn(len(levels))
			l, r := levels[i], refs[i]
			var err, refErr error
			switch op := rng.Intn(12); {
			case op < 3:
				a := addr(caps[i])
				v := rng.Uint64()
				err, refErr = l.WriteWord(a, v), r.write(a, v)
			case op < 5:
				a := addr(caps[i])
				var got, want uint64
				got, err = l.ReadWord(a)
				want, refErr = r.read(a)
				if got != want {
					t.Fatalf("seed %d step %d: ReadWord(%d) = %d, dense %d", seed, step, a, got, want)
				}
			case op < 6:
				a := addr(caps[i])
				got, gerr := l.PeekWord(a)
				if a >= 0 && a < caps[i] && (gerr != nil || got != r.words[a]) {
					t.Fatalf("seed %d step %d: PeekWord(%d) = (%d, %v), dense %d", seed, step, a, got, gerr, r.words[a])
				}
			case op < 10:
				j := rng.Intn(len(levels))
				n := length()
				sa, da := addr(caps[i]), addr(caps[j])
				if rng.Intn(3) == 0 && n > 0 && caps[i] > n {
					sa = rng.Intn(caps[i] - n) // mostly in bounds
				}
				if rng.Intn(3) == 0 && n > 0 && caps[j] > n {
					da = rng.Intn(caps[j] - n)
				}
				charge := op < 9
				if charge {
					err = Transfer(l, sa, levels[j], da, n)
				} else {
					err = TransferOverlapped(l, sa, levels[j], da, n)
				}
				refErr = denseTransfer(r, sa, refs[j], da, n, charge)
			default:
				n := length()
				sa := addr(caps[i])
				if n > 0 && caps[i] > n {
					sa = rng.Intn(caps[i] - n)
				}
				da := sa + rng.Intn(2*n+3) - n - 1 // overlapping either way
				err, refErr = MoveWithin(l, sa, da, n), denseMove(r, sa, da, n)
			}
			if !sameErr(err, refErr) {
				t.Fatalf("seed %d step %d: error %v, dense %v", seed, step, err, refErr)
			}
			if clock.Now() != refClock.Now() {
				t.Fatalf("seed %d step %d: clock %d, dense %d", seed, step, clock.Now(), refClock.Now())
			}
			for k, l := range levels {
				r := refs[k]
				want := LevelStats{Reads: r.reads, Writes: r.writes, Transfers: r.xfers, WordsMoved: r.moved}
				if got := l.Stats(); got != want {
					t.Fatalf("seed %d step %d: %s stats %+v, dense %+v", seed, step, l.Name, got, want)
				}
			}
		}
		for k, l := range levels {
			for a, want := range refs[k].words {
				if got, _ := l.PeekWord(a); got != want {
					t.Fatalf("seed %d: final %s[%d] = %d, dense %d", seed, l.Name, a, got, want)
				}
			}
		}
	}
}

// TestUntouchedChunksAllocateNothing pins the sparse layout: reading an
// untouched chunk, and transferring between untouched chunks, allocate
// nothing; the first write to a chunk allocates just that chunk.
func TestUntouchedChunksAllocateNothing(t *testing.T) {
	var c sim.Clock
	drum := NewLevel(&c, "drum", Drum, 1<<20, 1, 1)
	core := NewLevel(&c, "core", Core, 4*chunkWords, 1, 0)
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := drum.ReadWord(5 * chunkWords); err != nil {
			t.Fatal(err)
		}
		if err := Transfer(drum, 7*chunkWords, core, 0, chunkWords); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("reading untouched chunks allocates %.1f times per run", avg)
	}
	fresh := 9
	if avg := testing.AllocsPerRun(10, func() {
		if err := drum.WriteWord(fresh*chunkWords+1, 7); err != nil {
			t.Fatal(err)
		}
		fresh++
	}); avg != 1 {
		t.Fatalf("a write to a fresh chunk allocates %.1f times, want one chunk", avg)
	}
}
