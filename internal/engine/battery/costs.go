package battery

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// CostManifest records the observed wall-clock cost of each battery
// unit, optionally persisted as JSON next to the workload cache. The
// sweep daemon reads it to estimate Retry-After for rejected
// submissions. The manifest is advisory throughout: a missing or
// corrupt file degrades to an empty manifest, and nothing read from it
// changes output bytes.
type CostManifest struct {
	mu    sync.Mutex
	path  string
	costs map[string]time.Duration
}

// costFile is the JSON shape on disk: unit name to nanoseconds.
type costFile struct {
	Costs map[string]int64 `json:"costs"`
}

// LoadCosts opens (or initializes) the manifest at path. A missing,
// unreadable or corrupt file yields an empty manifest. An empty path
// gives an in-memory manifest whose Save is a no-op.
func LoadCosts(path string) *CostManifest {
	m := &CostManifest{path: path, costs: make(map[string]time.Duration)}
	data, err := os.ReadFile(path)
	if err != nil {
		return m
	}
	var f costFile
	if err := json.Unmarshal(data, &f); err != nil {
		return m
	}
	for name, ns := range f.Costs {
		if ns > 0 {
			m.costs[name] = time.Duration(ns)
		}
	}
	return m
}

// Cost reports the recorded cost of a unit, if any. Nil-safe: a nil
// manifest knows no costs.
func (m *CostManifest) Cost(name string) (time.Duration, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.costs[name]
	return d, ok
}

// Record stores an observed cost, replacing any earlier measurement.
// Nil-safe no-op on a nil manifest or a non-positive duration.
func (m *CostManifest) Record(name string, d time.Duration) {
	if m == nil || d <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.costs[name] = d
}

// Len reports how many units have recorded costs.
func (m *CostManifest) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.costs)
}

// Save writes the manifest atomically (temp file + rename, the same
// idiom as the disk workload cache) so a crash mid-write never leaves
// a corrupt manifest. Before writing, it merges the file's current
// contents under the manifest's own: two daemons sharing a cache dir
// each load at start and save at end, and a plain overwrite would drop
// whatever the other recorded in between. In-memory measurements win
// per key — they are this process's fresher observations — while keys
// only the file knows survive. Nil-safe no-op when there is nothing to
// write.
func (m *CostManifest) Save() error {
	if m == nil || m.path == "" {
		return nil
	}
	m.mu.Lock()
	f := costFile{Costs: make(map[string]int64, len(m.costs))}
	for name, d := range m.costs {
		f.Costs[name] = int64(d)
	}
	m.mu.Unlock()
	if data, err := os.ReadFile(m.path); err == nil {
		var onDisk costFile
		if json.Unmarshal(data, &onDisk) == nil {
			for name, ns := range onDisk.Costs {
				if _, ours := f.Costs[name]; !ours && ns > 0 {
					f.Costs[name] = ns
				}
			}
		}
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(m.path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".costs-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), m.path)
}
