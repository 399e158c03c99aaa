package scenario

import (
	"strings"
	"testing"

	"dsa/internal/engine"
	"dsa/internal/workload/catalog"
)

const placementSrc = `
name = "t2-mirror"
title = "T2 — placement strategies (heap 64Ki words)"
kind = "placement"
seed = 31

[placement]
heap_words = 65536
policies = ["first-fit", "best-fit", "worst-fit", "next-fit", "two-ended", "rice-chain"]

[[workload]]
family = "uniform"
min_size = 16
max_size = 1024
mean_lifetime = 60
count = 8000

[[workload]]
family = "exponential"
min_size = 8
max_size = 4096
mean_size = 200
mean_lifetime = 60
count = 8000

[[workload]]
family = "bimodal"
min_size = 32
max_size = 4096
mean_lifetime = 60
count = 8000
`

const adversarialSrc = `
name = "adv-frag"
title = "Adversarial fragmentation interleavings"
kind = "placement"
seed = 47

[placement]
heap_words = 65536
policies = ["first-fit", "best-fit"]

[[workload]]
family = "adversarial"
target = "first-fit"
count = 4000

[[workload]]
family = "adversarial"
target = "best-fit"
count = 4000
`

const replacementSrc = `
name = "phased-replacement"
title = "Replacement under shifting locality"
kind = "replacement"
seed = 9

[replacement]
page_size = 256
frames = [8, 16]
policies = ["belady-min", "lru", "fifo"]

[[workload]]
family = "phased"
extent = 16384
refs = 8000

[[workload]]
family = "workingset"
extent = 16384
refs = 8000
`

const machinesSrc = `
name = "phased-machines"
title = "Phased workload across the appendix machines"
kind = "machines"
seed = 11

[machines]
names = ["atlas", "b5000"]
scale = 2

[[workload]]
family = "phased"
refs = 2000
`

func TestParsePlacementScenario(t *testing.T) {
	s, err := Parse(placementSrc, "t2-mirror.toml")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t2-mirror" || s.Kind != KindPlacement || s.Seed != 31 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Placement.HeapWords != 65536 || len(s.Placement.Policies) != 6 || len(s.Placement.Workloads) != 3 {
		t.Fatalf("placement spec %+v", s.Placement)
	}
	w := s.Placement.Workloads[1]
	if w.Family != "exponential" || w.MinSize != 8 || w.MaxSize != 4096 || w.MeanSize != 200 ||
		w.MeanLifetime != 60 || w.Count != 8000 {
		t.Fatalf("workload[1] = %+v", w)
	}
	wantID := "scenario/t2-mirror@" + hashOf(placementSrc)
	if s.ID() != wantID {
		t.Errorf("ID = %q, want %q", s.ID(), wantID)
	}
	wantHeader := []string{"distribution", "policy", "allocs", "frag failures",
		"utilization@fail", "ext frag", "probes/alloc"}
	if h := s.Header(); len(h) != len(wantHeader) {
		t.Errorf("header = %v", h)
	} else {
		for i := range h {
			if h[i] != wantHeader[i] {
				t.Errorf("header[%d] = %q, want %q", i, h[i], wantHeader[i])
			}
		}
	}
}

// TestScenarioRejects: malformed files, unknown fields, and unknown
// policies are rejected with positional (file:line) messages.
func TestScenarioRejects(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"missing name", "kind = \"placement\"\ntitle = \"x\"\n", `missing required field "name"`},
		{"bad name", "name = \"Bad Name\"\ntitle = \"x\"\nkind = \"placement\"\n", "s.toml:1: bad scenario name"},
		{"unknown kind", "name = \"x\"\ntitle = \"x\"\nkind = \"mystery\"\n", `s.toml:3: unknown kind "mystery"`},
		{"unknown top-level field", "name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\nbogus = 1\n",
			`s.toml:4: top level: unknown field "bogus"`},
		{"negative seed", "name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\nseed = -1\n",
			"s.toml:4: seed must be non-negative"},
		{"missing placement section", "name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\n",
			"needs a [placement] section"},
		{"unknown placement policy",
			"name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\n[placement]\nheap_words = 1024\npolicies = [\"buddy\"]\n",
			`s.toml:6: unknown placement policy "buddy"`},
		{"unknown placement field",
			"name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\n[placement]\nheap_words = 1024\npolicies = [\"best-fit\"]\nstray = 2\n",
			`s.toml:7: [placement]: unknown field "stray"`},
		{"no workloads",
			"name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\n[placement]\nheap_words = 1024\npolicies = [\"best-fit\"]\n",
			"needs at least one [[workload]]"},
		{"unknown workload family",
			"name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\n[placement]\nheap_words = 1024\npolicies = [\"best-fit\"]\n[[workload]]\nfamily = \"zipfian\"\ncount = 10\n",
			`s.toml:8: unknown placement workload family "zipfian"`},
		{"unknown adversarial target",
			"name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\n[placement]\nheap_words = 1024\npolicies = [\"best-fit\"]\n[[workload]]\nfamily = \"adversarial\"\ntarget = \"buddy\"\ncount = 10\n",
			`s.toml:9: unknown adversarial target "buddy"`},
		{"unknown workload field",
			"name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\n[placement]\nheap_words = 1024\npolicies = [\"best-fit\"]\n[[workload]]\nfamily = \"uniform\"\ncount = 10\nlifetimes = 3\n",
			`s.toml:10: [workload]: unknown field "lifetimes"`},
		{"unknown section",
			"name = \"x\"\ntitle = \"x\"\nkind = \"placement\"\n[placement]\nheap_words = 1024\npolicies = [\"best-fit\"]\n[[workload]]\nfamily = \"uniform\"\ncount = 10\n[extras]\na = 1\n",
			"s.toml:10: unknown section [extras]"},
		{"unknown replacement policy",
			"name = \"x\"\ntitle = \"x\"\nkind = \"replacement\"\n[replacement]\npage_size = 256\nframes = [8]\npolicies = [\"mru\"]\n",
			`s.toml:7: unknown replacement policy "mru"`},
		{"machines with extent",
			"name = \"x\"\ntitle = \"x\"\nkind = \"machines\"\n[machines]\nnames = [\"atlas\"]\n[[workload]]\nfamily = \"phased\"\nextent = 4096\nrefs = 100\n",
			"s.toml:8: extent is derived per machine"},
		{"unknown machine",
			"name = \"x\"\ntitle = \"x\"\nkind = \"machines\"\n[machines]\nnames = [\"pdp11\"]\n[[workload]]\nfamily = \"phased\"\nrefs = 100\n",
			`s.toml:5: unknown machine "pdp11"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src, "s.toml")
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %q, want substring %q", c.name, err, c.want)
		}
	}
}

// runCells executes every cell of a scenario against one catalog and
// returns the collected rows.
func runCells(t *testing.T, s *Scenario, baseSeed uint64, cat *catalog.Catalog) []engine.RowBatch {
	t.Helper()
	var out []engine.RowBatch
	for _, cl := range s.Cells(baseSeed) {
		rows, err := cl.Run(engine.Env{Catalog: cat})
		if err != nil {
			t.Fatalf("cell %s: %v", cl.Key, err)
		}
		out = append(out, rows)
	}
	return out
}

func TestPlacementCellsMatchGrid(t *testing.T) {
	s, err := Parse(placementSrc, "t2-mirror.toml")
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Cells(0)
	if want := 3 * 6; len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	if cells[0].Key != "t2-mirror/uniform/first-fit" {
		t.Errorf("cells[0].Key = %q", cells[0].Key)
	}
	if cells[17].Key != "t2-mirror/bimodal/rice-chain" {
		t.Errorf("cells[17].Key = %q", cells[17].Key)
	}
	rows := runCells(t, s, 0, catalog.New())
	for i, rb := range rows {
		if len(rb) != 1 || len(rb[0]) != len(s.Header()) {
			t.Fatalf("row batch %d has shape %d×%d, want 1×%d", i, len(rb), len(rb[0]), len(s.Header()))
		}
	}
}

func TestAdversarialCellsHurtTheirTarget(t *testing.T) {
	s, err := Parse(adversarialSrc, "adv.toml")
	if err != nil {
		t.Fatal(err)
	}
	rows := runCells(t, s, 0, catalog.New())
	// Cell order: target × policy; the diagonal cells (stream against
	// its own target) must report fragmentation failures.
	for i, cl := range s.Cells(0) {
		parts := strings.Split(cl.Key, "/")
		target, policy := parts[2], parts[3]
		if target != policy {
			continue
		}
		frag := rows[i][0][3].(int64)
		if frag == 0 {
			t.Errorf("%s: no frag failures against its target", cl.Key)
		}
	}
}

func TestReplacementCellsRun(t *testing.T) {
	s, err := Parse(replacementSrc, "r.toml")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2; len(s.Cells(0)) != want {
		t.Fatalf("cells = %d, want %d", len(s.Cells(0)), want)
	}
	rows := runCells(t, s, 0, catalog.New())
	for i, rb := range rows {
		row := rb[0]
		min := row[2].(int)
		for c := 3; c < len(row); c++ {
			if row[c].(int) < min {
				t.Errorf("row %d: %s beats belady-min (%d < %d)", i, s.Replacement.Policies[c-2], row[c], min)
			}
		}
	}
}

func TestMachineCellsRun(t *testing.T) {
	s, err := Parse(machinesSrc, "m.toml")
	if err != nil {
		t.Fatal(err)
	}
	rows := runCells(t, s, 0, catalog.New())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0][0] != "ATLAS" && rows[0][0][0] != "Atlas" {
		// Machine display names come from the machine package; just
		// require non-empty and distinct.
		if rows[0][0][0] == "" || rows[0][0][0] == rows[1][0][0] {
			t.Errorf("machine names = %v, %v", rows[0][0][0], rows[1][0][0])
		}
	}
}

// TestCellsDeterministic: two independent compilations of the same
// source produce identical rows — the property distribution relies on.
func TestCellsDeterministic(t *testing.T) {
	for _, src := range []string{placementSrc, replacementSrc} {
		a, err := Parse(src, "a.toml")
		if err != nil {
			t.Fatal(err)
		}
		b, err := Parse(src, "b.toml")
		if err != nil {
			t.Fatal(err)
		}
		rowsA := runCells(t, a, 7, catalog.New())
		rowsB := runCells(t, b, 7, catalog.New())
		for i := range rowsA {
			for j := range rowsA[i][0] {
				if rowsA[i][0][j] != rowsB[i][0][j] {
					t.Fatalf("row %d col %d differs: %v vs %v", i, j, rowsA[i][0][j], rowsB[i][0][j])
				}
			}
		}
	}
}

// TestCompileRemoteVerifiesHash: a worker rejects wire source whose
// content hash does not match the advertised id.
func TestCompileRemoteVerifiesHash(t *testing.T) {
	s, err := Parse(placementSrc, "t.toml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compileRemote(s.ID(), s.Source()); err != nil {
		t.Fatalf("genuine source rejected: %v", err)
	}
	tampered := strings.Replace(placementSrc, "count = 8000", "count = 8001", 1)
	if _, err := compileRemote(s.ID()+"x", tampered); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Errorf("tampered source: err = %v", err)
	}
	if _, err := compileRemote("scenario/empty@000000000000", ""); err == nil ||
		!strings.Contains(err.Error(), "no source") {
		t.Errorf("empty source: err = %v", err)
	}
}

func TestSpecCarriesSource(t *testing.T) {
	s, err := Parse(machinesSrc, "m.toml")
	if err != nil {
		t.Fatal(err)
	}
	spec := s.Spec("phased-machines/atlas/phased")
	if spec.Task != DistTask {
		t.Errorf("task = %q", spec.Task)
	}
	if spec.Args["scenario"] != s.ID() || spec.Args["src"] != machinesSrc ||
		spec.Args["cell"] != "phased-machines/atlas/phased" {
		t.Errorf("spec args incomplete: %v", spec.Args["scenario"])
	}
}
