package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestAttributionChargesNearestProgramFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "runtime.mapassign_fast64", "dsa/internal/replace.(*LRU).Touch", "dsa/internal/engine.RunJob"}, "replace"},
		{[]string{"dsa/internal/workload/catalog.Get[go.shape.struct { dsa/internal/paging.x int }]"}, "workload"},
		{[]string{"dsa/internal/engine/dist.(*Pool).Execute.func2"}, "dist"},
		{[]string{"dsa/internal/engine/battery.(*Pool).Execute"}, "engine"},
		{[]string{"dsa/internal/metrics.(*Table).String"}, "experiments"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"dsa/internal/addr.Translate"}, "other"},
	}
	for _, c := range cases {
		counts := map[string]int64{}
		attribute([]cpuSample{{stack: c.stack, count: 3}}, counts)
		if counts[c.want] != 3 || len(counts) != 1 {
			t.Errorf("%v charged as %v, want all 3 samples on %s", c.stack, counts, c.want)
		}
	}
}

func burn(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

// TestCPUSharesSumToAtMostOne parses a real CPU profile of this process
// and checks the per-layer shares form a partition of at most 1.
func TestCPUSharesSumToAtMostOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".burn")
		}
	}
	if len(samples) > 0 && !found {
		t.Errorf("no sample names the burning function among %d samples", len(samples))
	}
	counts := map[string]int64{}
	attribute(samples, counts)
	m := metricSet{}
	cpuShares(counts, m)
	total := 0.0
	for name, v := range m {
		if !strings.HasSuffix(name, "_frac") {
			continue
		}
		if v.Value < 0 || v.Value > 1 {
			t.Errorf("%s = %v, outside [0, 1]", name, v.Value)
		}
		total += v.Value
	}
	if total > 1+1e-9 {
		t.Errorf("CPU shares sum to %v, want <= 1", total)
	}
}
