package stock

import (
	"strings"
	"testing"

	"dsa/internal/workload"
	"dsa/internal/workload/catalog"
)

// TestKeysAreStable pins the catalog key strings: they are the disk
// cache's contract across processes and releases — renaming one
// orphans every existing cache entry.
func TestKeysAreStable(t *testing.T) {
	cat := catalog.New()
	if _, err := Segments(cat, 32, 8000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Linear(cat, "workingset", 64*1024, 20000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Linear(cat, "sequential", 4096, 20000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Linear(cat, "phased", 64*1024, 20000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Requests(cat, workload.RequestConfig{
		Dist: workload.SizesUniform, MinSize: 16, MaxSize: 1024,
		MeanLifetime: 60, Count: 8000,
	}, 31); err != nil {
		t.Fatal(err)
	}
	if _, err := Adversarial(cat, workload.AdversarialConfig{
		Target: "best-fit", HeapWords: 65536, Count: 6000,
	}, 31); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"dsasim/adversarial/target=best-fit/heap=65536/count=6000@1f",
		"dsasim/phased/extent=65536/refs=20000@1",
		"dsasim/requests/uniform/min=16/max=1024/mean=0/life=60/count=8000@1f",
		"dsasim/segments/segs=32/refs=8000@1",
		"dsasim/sequential/refs=20000/limit=4096",
		"dsasim/workingset/extent=65536/refs=20000@1",
	}
	got := cat.Keys()
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := Linear(cat, "no-such-kind", 0, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown kind error = %v", err)
	}
}
