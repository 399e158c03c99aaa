package main

import (
	"sync"
	"testing"
	"time"
)

// stallClock is a fake clock whose n-th Sleep overshoots by a fixed
// stall, as a descheduled generator would.
type stallClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps int
	stallN int
	stall  time.Duration
}

func (c *stallClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stallClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sleeps == c.stallN {
		d += c.stall
	}
	c.sleeps++
	c.now = c.now.Add(d)
}

// TestOpenLoopTimesFromDue stalls the generator by 25ms before the
// second job: that job and the one due during the stall are fired late
// by exactly the time they waited past their due times, later jobs are
// on time again, and latency counts from the due time, not the firing.
func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &stallClock{now: start, stallN: 0, stall: 25 * time.Millisecond}
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	const service = 10 * time.Millisecond
	recs := make([]jobRecord, len(dues))
	openLoop(clk, dues, func(i int, due, fired time.Time) {
		recs[i].due, recs[i].fired = due, fired
		recs[i].lastByte = fired.Add(service)
	})
	wantLate := []time.Duration{0, 25 * time.Millisecond, 15 * time.Millisecond, 0}
	for i, r := range recs {
		if want := start.Add(dues[i]); !r.due.Equal(want) {
			t.Errorf("job %d: due %v, want %v", i, r.due.Sub(start), dues[i])
		}
		if got := r.genLate(); got != wantLate[i] {
			t.Errorf("job %d: generator lateness %v, want %v", i, got, wantLate[i])
		}
		if got, want := r.latency(), wantLate[i]+service; got != want {
			t.Errorf("job %d: latency %v, want %v (timed from due)", i, got, want)
		}
	}
}

// TestPlanJobsMix checks the plan is a pure function of the seed and
// that repeats and reseeds only reuse jobs due at least reuseLag
// earlier.
func TestPlanJobsMix(t *testing.T) {
	a := planJobs(7, 60*time.Second)
	b := planJobs(7, 60*time.Second)
	if len(a) != len(b) {
		t.Fatalf("plans of %d and %d jobs", len(a), len(b))
	}
	counts := map[jobKind]int{}
	for i, j := range a {
		if j.due != b[i].due || j.kind != b[i].kind || j.seed != b[i].seed {
			t.Fatalf("job %d differs between plans of the same seed", i)
		}
		counts[j.kind]++
		if j.kind == kindRepeat || j.kind == kindReseed {
			if j.of < 0 || a[j.of].due > j.due-reuseLag || a[j.of].kind == kindRepeat {
				t.Errorf("job %d reuses job %d, which is not an earlier completed submission", i, j.of)
			}
		}
	}
	want := map[jobKind]int{kindFresh: 120, kindRepeat: 60, kindReseed: 36, kindUpload: 24}
	if len(a) != 240 || counts[kindRepeat] != want[kindRepeat] || counts[kindReseed] != want[kindReseed] ||
		counts[kindFresh]+counts[kindUpload] != want[kindFresh]+want[kindUpload] {
		t.Errorf("plan of %d jobs has mix %v, want %v", len(a), counts, want)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= 60*time.Second {
			t.Fatalf("job %d due at %v after %v", i, a[i].due, a[i-1].due)
		}
	}
}
