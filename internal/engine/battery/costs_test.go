package battery

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestCostManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latency.json")
	m := LoadCosts(path) // missing file: empty manifest
	if m.Len() != 0 {
		t.Fatalf("fresh manifest has %d costs, want 0", m.Len())
	}
	m.Record("t1", 150*time.Millisecond)
	m.Record("t2", 20*time.Millisecond)
	m.Record("ignored", 0) // non-positive: dropped
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	re := LoadCosts(path)
	if re.Len() != 2 {
		t.Fatalf("reloaded %d costs, want 2", re.Len())
	}
	if d, ok := re.Cost("t1"); !ok || d != 150*time.Millisecond {
		t.Fatalf("Cost(t1) = %v, %v", d, ok)
	}
	if _, ok := re.Cost("unknown"); ok {
		t.Fatal("unknown unit reported a cost")
	}
}

func TestCostManifestMergeOnSaveTwoWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latency.json")
	// Two processes sharing a cache dir both load the (empty) manifest
	// at battery start...
	a := LoadCosts(path)
	b := LoadCosts(path)
	a.Record("t1", 100*time.Millisecond)
	a.Record("shared", 40*time.Millisecond)
	b.Record("t2", 250*time.Millisecond)
	b.Record("shared", 60*time.Millisecond)
	// ...and save at battery end, interleaved. The second save must not
	// drop the first writer's measurements.
	if err := a.Save(); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(); err != nil {
		t.Fatal(err)
	}
	re := LoadCosts(path)
	if d, ok := re.Cost("t1"); !ok || d != 100*time.Millisecond {
		t.Fatalf("writer A's t1 lost in merge: %v, %v", d, ok)
	}
	if d, ok := re.Cost("t2"); !ok || d != 250*time.Millisecond {
		t.Fatalf("writer B's t2 lost in merge: %v, %v", d, ok)
	}
	// Contested key: the saving process's own (fresher) measurement wins.
	if d, ok := re.Cost("shared"); !ok || d != 60*time.Millisecond {
		t.Fatalf("Cost(shared) = %v, %v, want writer B's 60ms", d, ok)
	}
	// A third writer that measured nothing new preserves everything.
	c := LoadCosts(path)
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if re := LoadCosts(path); re.Len() != 3 {
		t.Fatalf("no-op save shrank manifest to %d entries, want 3", re.Len())
	}
}

func TestCostManifestCorruptFileDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latency.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := LoadCosts(path)
	if m.Len() != 0 {
		t.Fatal("corrupt manifest did not degrade to empty")
	}
	// And Save replaces the corrupt file with a valid one.
	m.Record("a", time.Second)
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	if re := LoadCosts(path); re.Len() != 1 {
		t.Fatal("rewritten manifest did not reload")
	}
}

func TestCostManifestNilSafe(t *testing.T) {
	var m *CostManifest
	m.Record("a", time.Second)
	if _, ok := m.Cost("a"); ok {
		t.Fatal("nil manifest knows a cost")
	}
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatal("nil manifest has nonzero Len")
	}
}

// FuzzLoadCosts: whatever bytes sit in the manifest file, LoadCosts
// must not panic, must load only positive costs, and Save followed by
// LoadCosts must give back exactly the costs it loaded.
func FuzzLoadCosts(f *testing.F) {
	f.Add([]byte(`{"costs":{"t1":150000000,"t2":20000000}}`))
	f.Add([]byte(`{"costs":{"t1":1500`))
	f.Add([]byte(`{"costs":{"t1":-5,"t2":0,"t3":7}}`))
	path := filepath.Join(f.TempDir(), "latency.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := LoadCosts(path)
		for name, d := range m.costs {
			if d <= 0 {
				t.Fatalf("loaded cost %q = %v, want > 0", name, d)
			}
		}
		if err := m.Save(); err != nil {
			t.Fatal(err)
		}
		if re := LoadCosts(path); !reflect.DeepEqual(re.costs, m.costs) {
			t.Fatalf("round trip changed the costs:\n%v\n%v", re.costs, m.costs)
		}
	})
}
