package core

import (
	"math"
	"testing"

	"dsa/internal/sim"
)

// refSimulateMultiprogramming is the scheduler SimulateMultiprogramming
// replaced: every quantum scans all programs for the first ready one
// by index and, failing that, for the earliest fetch completion. The
// validation and lifetime-curve prologue is shared, so only the loop
// is restated here.
func refSimulateMultiprogramming(cfg MultiprogramConfig) MultiprogramResult {
	if cfg.ComputePerRef <= 0 {
		cfg.ComputePerRef = 1
	}
	if cfg.LifetimeCoeff <= 0 {
		cfg.LifetimeCoeff = 1
	}
	frames := cfg.TotalFrames / cfg.Programs
	eff := frames
	if cfg.WorkingSetFrames > 0 && eff > cfg.WorkingSetFrames {
		eff = cfg.WorkingSetFrames
	}
	interFault := int64(math.Max(1, cfg.LifetimeCoeff*float64(eff)*float64(eff)))

	type prog struct {
		remaining int64
		readyAt   sim.Time
	}
	progs := make([]prog, cfg.Programs)
	for i := range progs {
		progs[i] = prog{remaining: cfg.RefsPerProgram}
		progs[i].readyAt = sim.Time(i) * cfg.FetchTime / sim.Time(cfg.Programs)
	}
	var now, busy sim.Time
	var faults int64
	for {
		best := -1
		var soonest sim.Time = math.MaxInt64
		for i := range progs {
			p := &progs[i]
			if p.remaining <= 0 {
				continue
			}
			if p.readyAt <= now {
				best = i
				break
			}
			if p.readyAt < soonest {
				soonest = p.readyAt
				best = -(i + 2)
			}
		}
		if best == -1 {
			break
		}
		if best < -1 {
			now = soonest
			continue
		}
		p := &progs[best]
		burst := interFault
		if burst > p.remaining {
			burst = p.remaining
		}
		span := sim.Time(burst) * cfg.ComputePerRef
		now += span
		busy += span
		p.remaining -= burst
		if p.remaining > 0 {
			faults++
			p.readyAt = now + cfg.FetchTime
		}
	}
	util := 0.0
	if now > 0 {
		util = float64(busy) / float64(now)
	}
	return MultiprogramResult{
		CPUUtilization:   util,
		Elapsed:          now,
		Faults:           faults,
		FramesPerProgram: frames,
		InterFault:       interFault,
	}
}

func checkMultiprogLockstep(t *testing.T, cfg MultiprogramConfig) {
	t.Helper()
	got, err := SimulateMultiprogramming(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	if want := refSimulateMultiprogramming(cfg); got != want {
		t.Fatalf("%+v:\n got  %+v\n want %+v", cfg, got, want)
	}
}

// TestMultiprogrammingMatchesReference runs the ring-and-bitset
// scheduler and the linear-scan original in lockstep: on every T8
// degree at full size, and on random configurations that cross bitset
// words (Programs > 64), stagger several programs onto one tick
// (FetchTime < Programs), make every fetch instantaneous (FetchTime 0)
// and tie completion times.
func TestMultiprogrammingMatchesReference(t *testing.T) {
	t8 := MultiprogramConfig{
		TotalFrames:      64,
		FetchTime:        5000,
		LifetimeCoeff:    50,
		WorkingSetFrames: 8,
		RefsPerProgram:   300000,
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		cfg := t8
		cfg.Programs = n
		checkMultiprogLockstep(t, cfg)
	}

	rng := sim.NewRNG(8)
	for i := 0; i < 2000; i++ {
		programs := 1 + rng.Intn(130)
		cfg := MultiprogramConfig{
			Programs:         programs,
			TotalFrames:      programs + rng.Intn(3*programs),
			ComputePerRef:    sim.Time(rng.Intn(3)),
			LifetimeCoeff:    rng.Float64() * 3,
			WorkingSetFrames: rng.Intn(6),
			RefsPerProgram:   1 + int64(rng.Intn(400)),
		}
		switch rng.Intn(4) {
		case 0:
			cfg.FetchTime = 0
		case 1:
			cfg.FetchTime = sim.Time(rng.Intn(programs)) // several programs per stagger tick
		default:
			cfg.FetchTime = sim.Time(rng.Intn(300))
		}
		checkMultiprogLockstep(t, cfg)
	}
}

// TestMultiprogrammingAllocsIndependentOfRefs pins the scheduler's
// allocations to the program count: a hundredfold longer run (more
// quanta, more faults) allocates exactly as often.
func TestMultiprogrammingAllocsIndependentOfRefs(t *testing.T) {
	allocs := func(refs int64) float64 {
		cfg := MultiprogramConfig{
			Programs: 100, TotalFrames: 200, FetchTime: 50,
			LifetimeCoeff: 1, RefsPerProgram: refs,
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := SimulateMultiprogramming(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(100), allocs(10000); long != short {
		t.Fatalf("allocations grow with RefsPerProgram: %.0f at 100 refs, %.0f at 10000", short, long)
	}
}
