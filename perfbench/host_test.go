package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRun(t *testing.T, h host, latency float64) string {
	t.Helper()
	hb, _ := json.Marshal(map[string]interface{}{"host": h})
	rb, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"latency_p50_s": {Value: latency, Unit: "s"}}})
	path := filepath.Join(t.TempDir(), "run.txt")
	if err := os.WriteFile(path, []byte(string(hb)+"\n"+string(rb)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareFlagsHostDiff: results from different machines are not
// compared as a speed-up; results from one machine are.
func TestCompareFlagsHostDiff(t *testing.T) {
	a := host{NumCPU: 2, GOMAXPROCS: 2, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0", CPUModel: "X", Source: "1"}
	b := a
	b.Source = "2"
	c := a
	c.NumCPU, c.GOMAXPROCS = 8, 8
	var out strings.Builder
	if code, err := compare(&out, []string{writeRun(t, a, 1.0), writeRun(t, b, 0.5)}); err != nil || code != 0 {
		t.Fatalf("same host: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "0.500") {
		t.Errorf("same-host compare does not report the ratio:\n%s", out.String())
	}
	out.Reset()
	code, err := compare(&out, []string{writeRun(t, a, 1.0), writeRun(t, c, 0.5)})
	if err != nil || code != 3 {
		t.Fatalf("different hosts: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "nproc: 2 vs 8") || strings.Contains(out.String(), "0.500") {
		t.Errorf("cross-host compare must name the difference and report no ratio:\n%s", out.String())
	}
}
