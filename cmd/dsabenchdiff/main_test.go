package main

import (
	"strings"
	"testing"
)

func TestParseBenchKeepsFastestAndStripsProcSuffix(t *testing.T) {
	in := `goos: linux
BenchmarkHeapAllocFree/policy=first-fit-8         1000    1500 ns/op    0 B/op    0 allocs/op
BenchmarkHeapAllocFree/policy=first-fit-8         1200    1029 ns/op    0 B/op    0 allocs/op
BenchmarkTLBLookup-8                            100000      77.35 ns/op
PASS
ok      dsa     1.234s
`
	snap, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(snap.Benchmarks), snap.Benchmarks)
	}
	heap := snap.Benchmarks[0]
	if heap.Name != "BenchmarkHeapAllocFree/policy=first-fit" {
		t.Fatalf("proc suffix not stripped: %q", heap.Name)
	}
	if heap.NsPerOp != 1029 {
		t.Fatalf("kept %v ns/op, want the fastest of the -count runs (1029)", heap.NsPerOp)
	}
	if heap.AllocsPerOp != 0 || heap.BytesPerOp != 0 {
		t.Fatalf("alloc counters mis-parsed: %+v", heap)
	}
	tlb := snap.Benchmarks[1]
	if tlb.Name != "BenchmarkTLBLookup" || tlb.NsPerOp != 77.35 {
		t.Fatalf("plain line mis-parsed: %+v", tlb)
	}
}

func TestParseBenchRejectsEmptyInput(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok dsa 0.1s\n")); err == nil {
		t.Fatal("want an error when no benchmark lines are present")
	}
}

func TestAllocsGeomean(t *testing.T) {
	oldBy := map[string]Result{
		"A": {Name: "A", AllocsPerOp: 100},
		"B": {Name: "B", AllocsPerOp: 400},
		"C": {Name: "C", AllocsPerOp: 0}, // no old-side data: skipped
		"D": {Name: "D", AllocsPerOp: 50},
	}
	newBy := map[string]Result{
		"A": {Name: "A", AllocsPerOp: 200}, // 2x regression
		"B": {Name: "B", AllocsPerOp: 200}, // 2x improvement
		"C": {Name: "C", AllocsPerOp: 7},
		"D": {Name: "D", AllocsPerOp: 0}, // clamped to 1: a big win, finite log
	}
	names := []string{"A", "B", "C", "D"}
	geo, n := allocsGeomean(oldBy, newBy, names)
	if n != 3 {
		t.Fatalf("gated %d benchmarks, want 3 (C has no old-side allocs)", n)
	}
	// ratios: 2, 0.5, 1/50 -> geomean = (2 * 0.5 * 0.02)^(1/3)
	want := 0.2714
	if geo < want-0.001 || geo > want+0.001 {
		t.Fatalf("geomean = %v, want ~%v", geo, want)
	}
}

func TestAllocsGeomeanNoData(t *testing.T) {
	oldBy := map[string]Result{"A": {Name: "A"}}
	newBy := map[string]Result{"A": {Name: "A", AllocsPerOp: 5}}
	geo, n := allocsGeomean(oldBy, newBy, []string{"A"})
	if n != 0 || geo != 1 {
		t.Fatalf("want (1, 0) with no old-side allocation data, got (%v, %d)", geo, n)
	}
}

func TestAllocsGeomeanGateBoundary(t *testing.T) {
	// A pure 10% allocation regression sits exactly at geomean 1.10:
	// the -gate-allocs 10 limit must not fire at the boundary and must
	// fire just past it — mirroring the time gate's strict inequality.
	oldBy := map[string]Result{"A": {Name: "A", AllocsPerOp: 100}}
	for _, tc := range []struct {
		newAllocs float64
		fail      bool
	}{
		{110, false},
		{111, true},
	} {
		newBy := map[string]Result{"A": {Name: "A", AllocsPerOp: tc.newAllocs}}
		geo, n := allocsGeomean(oldBy, newBy, []string{"A"})
		if n != 1 {
			t.Fatalf("gated %d benchmarks, want 1", n)
		}
		limit := 1 + 10.0/100
		if got := geo > limit; got != tc.fail {
			t.Fatalf("new allocs %v: geomean %v vs limit %v: fail=%v, want %v",
				tc.newAllocs, geo, limit, got, tc.fail)
		}
	}
}

func TestParseBenchRecordsHost(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: dsa
cpu: Intel(R) Xeon(R) Processor
BenchmarkTLBLookup-2     100000      77.35 ns/op
PASS
`
	snap, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Host{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2}
	if snap.Host == nil || *snap.Host != want {
		t.Fatalf("host = %+v, want %+v", snap.Host, want)
	}
	// go test appends no suffix at GOMAXPROCS 1.
	snap, err = parseBench(strings.NewReader("goos: linux\nBenchmarkTLBLookup   100   77 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Host == nil || snap.Host.GOMAXPROCS != 1 {
		t.Fatalf("host = %+v, want GOMAXPROCS 1", snap.Host)
	}
	// No header lines: the host is unknown, not zero.
	snap, err = parseBench(strings.NewReader("BenchmarkTLBLookup-8   100   77 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Host != nil {
		t.Fatalf("host = %+v, want none", snap.Host)
	}
}

func TestHostLine(t *testing.T) {
	a := &Host{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon", GOMAXPROCS: 2}
	b := &Host{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon", GOMAXPROCS: 8}
	same := *a
	for _, tc := range []struct {
		name       string
		old, new   *Host
		wantPrefix string
		wantIn     string
	}{
		{"same host", a, &same, "", ""},
		{"cross-host", a, b, "cross-host: ", "GOMAXPROCS 2 but new.json is linux/amd64, Xeon, GOMAXPROCS 8"},
		{"old unknown", nil, b, "host unknown: ", "no host recorded in old.json;"},
		{"both unknown", nil, nil, "host unknown: ", "no host recorded in old.json and new.json;"},
	} {
		got := hostLine("old.json", tc.old, "new.json", tc.new)
		if tc.wantPrefix == "" {
			if got != "" {
				t.Errorf("%s: line = %q, want none", tc.name, got)
			}
			continue
		}
		if !strings.HasPrefix(got, tc.wantPrefix) || !strings.Contains(got, tc.wantIn) {
			t.Errorf("%s: line = %q, want prefix %q containing %q", tc.name, got, tc.wantPrefix, tc.wantIn)
		}
	}
}
