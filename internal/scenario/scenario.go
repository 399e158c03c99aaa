// Package scenario compiles declarative sweep definitions — small
// TOML-subset files describing a machine or policy grid, a workload
// family with its parameters, and a seed — into the same engine cells
// the compiled-in experiment sweeps (internal/experiments) produce.
//
// A scenario file names what to sweep; this package lowers it to
// []Cell, each cell an independent engine job keyed "<name>/<axes>".
// The cells materialize their workloads through internal/workload/stock
// (the catalog keys `dsasim -machine all` uses, so a shared -cache-dir
// replays them), seed exactly like the experiments runner (a base seed
// of 0 keeps the file's fixed seed; any other re-derives it through
// sim.SeedFor), and carry an engine.Spec under the "scenario/cell"
// dist task, so a declarative sweep distributes across -workers/-remote
// pools unchanged: the file's source travels in the spec, and the
// worker compiles it on first use.
//
// The registered wire id is "scenario/<name>@<content-hash>" — two
// scenarios with the same name but different bytes can never alias.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"os"

	"dsa/internal/workload"
)

// Kinds of scenario, selecting the grid shape and the row schema.
const (
	// KindPlacement sweeps placement policies over request streams
	// (rows: distribution × policy; the T2 schema).
	KindPlacement = "placement"
	// KindReplacement sweeps page-replacement policies over reference
	// traces (rows: trace × frame count, one column per policy; the T1
	// schema).
	KindReplacement = "replacement"
	// KindMachines sweeps the appendix machines over reference traces
	// or the segmented workload (rows: machine × workload).
	KindMachines = "machines"
)

// Scenario is one validated declarative sweep.
type Scenario struct {
	// Name is the file-declared scenario name ([a-z0-9-]); the wire id
	// prefixes it with "scenario/" and suffixes the content hash.
	Name string
	// Title is the emitted table's title.
	Title string
	// Kind is one of the Kind constants.
	Kind string
	// Seed is the scenario's fixed workload seed — the same role as
	// the compiled-in experiments' per-workload fixed seeds: a base
	// seed of 0 uses it as-is, any other re-derives it via sim.SeedFor.
	Seed uint64

	// Exactly one of the following is non-nil, matching Kind.
	Placement   *PlacementSpec
	Replacement *ReplacementSpec
	Machines    *MachinesSpec

	src  string // exact source text, shipped in cell specs
	hash string // hex sha256(src)[:12]
}

// PlacementSpec is the placement grid: every workload row runs under
// every policy.
type PlacementSpec struct {
	HeapWords int
	Policies  []string
	Workloads []PlacementWorkload
}

// PlacementWorkload is one request-stream row group: a size
// distribution (uniform, exponential, bimodal, fixed) or an
// adversarial interleaving targeting one policy.
type PlacementWorkload struct {
	Family       string
	MinSize      int
	MaxSize      int
	MeanSize     int
	MeanLifetime int
	Count        int
	Target       string // adversarial only
}

// Label is the row label and catalog-key component for this workload.
func (w PlacementWorkload) Label() string {
	if w.Family == "adversarial" {
		return "adversarial/" + w.Target
	}
	return w.Family
}

// ReplacementSpec is the replacement grid: every trace × frame-count
// pair is a row, with one fault-count column per policy.
type ReplacementSpec struct {
	PageSize  int
	Frames    []int
	Policies  []string
	Workloads []TraceWorkload
}

// MachinesSpec is the machine grid: every machine × workload pair is a
// row.
type MachinesSpec struct {
	Names     []string // appendix machine names, in sweep order
	Scale     int
	Segs      int // segment count for the "segments" family
	Workloads []TraceWorkload
}

// TraceWorkload is one reference-trace row group. Extent is required
// for replacement scenarios and forbidden for machine scenarios (each
// machine derives its own extent, exactly as `dsasim -machine all`
// does, so the two share catalog keys).
type TraceWorkload struct {
	Family string
	Extent uint64
	Refs   int
}

// requestDists maps placement family names to their size distribution.
var requestDists = map[string]workload.SizeDist{
	"uniform":     workload.SizesUniform,
	"exponential": workload.SizesExponential,
	"bimodal":     workload.SizesBimodal,
	"fixed":       workload.SizesFixed,
}

// traceFamilies are the linear-trace families replacement and machine
// scenarios accept — the stock kinds minus "segments", which only
// machine scenarios add back.
var traceFamilies = map[string]bool{
	"workingset": true, "phased": true, "sequential": true,
	"random": true, "loop": true, "matrix": true,
}

// machineNames lists the appendix machines in sweep order — the order
// "all" expands to and explicit lists are validated against.
var machineNames = []string{"atlas", "m44", "b5000", "rice", "b8500", "multics", "m67"}

// Load reads and compiles a scenario file.
func Load(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(string(src), path)
}

// Parse compiles scenario source; file names the source in positional
// error messages.
func Parse(src, file string) (*Scenario, error) {
	d, err := parseDocument(src, file)
	if err != nil {
		return nil, err
	}
	s := &Scenario{src: src}
	sum := sha256.Sum256([]byte(src))
	s.hash = hex.EncodeToString(sum[:])[:12]

	root := d.root
	if s.Name, err = reqStr(root, "name"); err != nil {
		return nil, err
	}
	if !validScenarioName(s.Name) {
		return nil, errAt(file, root.keyLine("name"),
			"bad scenario name %q (want lowercase letters, digits, dashes)", s.Name)
	}
	if s.Title, err = reqStr(root, "title"); err != nil {
		return nil, err
	}
	if s.Kind, err = reqStr(root, "kind"); err != nil {
		return nil, err
	}
	seed, _, err := root.integer("seed")
	if err != nil {
		return nil, err
	}
	if seed < 0 {
		return nil, errAt(file, root.keyLine("seed"), "seed must be non-negative, got %d", seed)
	}
	s.Seed = uint64(seed)
	if err := root.leftover(); err != nil {
		return nil, err
	}

	switch s.Kind {
	case KindPlacement:
		err = s.parsePlacement(d)
	case KindReplacement:
		err = s.parseReplacement(d)
	case KindMachines:
		err = s.parseMachines(d)
	default:
		return nil, errAt(file, root.keyLine("kind"),
			"unknown kind %q (want %s, %s, or %s)", s.Kind, KindPlacement, KindReplacement, KindMachines)
	}
	if err != nil {
		return nil, err
	}
	if err := d.leftoverSections(); err != nil {
		return nil, err
	}
	return s, nil
}

// ID is the scenario's stable wire id: "scenario/<name>@<content-hash>".
// The hash covers the exact source bytes, so a worker handed the source
// over the wire can verify it compiles the same scenario the
// dispatcher ran.
func (s *Scenario) ID() string { return "scenario/" + s.Name + "@" + s.hash }

// Source returns the exact file text the scenario was compiled from.
func (s *Scenario) Source() string { return s.src }

// Header is the emitted table's column header.
func (s *Scenario) Header() []string {
	switch s.Kind {
	case KindPlacement:
		return []string{"distribution", "policy", "allocs", "frag failures",
			"utilization@fail", "ext frag", "probes/alloc"}
	case KindReplacement:
		return append([]string{"trace", "frames"}, s.Replacement.Policies...)
	case KindMachines:
		return []string{"machine", "workload", "fetches", "wait frac",
			"elapsed (cycles)", "ext frag"}
	}
	return nil
}

func (s *Scenario) parsePlacement(d *document) error {
	sec := d.section("placement")
	if sec == nil {
		return errAt(d.file, 1, "kind %q needs a [placement] section", s.Kind)
	}
	spec := &PlacementSpec{}
	heap, ok, err := sec.integer("heap_words")
	if err != nil {
		return err
	}
	if !ok || heap <= 0 {
		return errAt(d.file, sec.keyLine("heap_words"), "[placement] needs heap_words > 0")
	}
	spec.HeapWords = int(heap)
	pols, ok, err := sec.strings("policies")
	if err != nil {
		return err
	}
	if !ok || len(pols) == 0 {
		return errAt(d.file, sec.keyLine("policies"), "[placement] needs a non-empty policies list")
	}
	for _, p := range pols {
		if _, known := AllocPolicy(p); !known {
			return errAt(d.file, sec.keyLine("policies"),
				"unknown placement policy %q (have %v)", p, allocPolicyNames())
		}
	}
	spec.Policies = pols
	if err := sec.leftover(); err != nil {
		return err
	}

	ws := d.list("workload")
	if len(ws) == 0 {
		return errAt(d.file, 1, "scenario needs at least one [[workload]]")
	}
	for _, wt := range ws {
		w := PlacementWorkload{}
		fam, err := reqStr(wt, "family")
		if err != nil {
			return err
		}
		w.Family = fam
		count, ok, err := wt.integer("count")
		if err != nil {
			return err
		}
		if !ok || count <= 0 {
			return errAt(d.file, wt.keyLine("count"), "[[workload]] needs count > 0")
		}
		w.Count = int(count)
		if fam == "adversarial" {
			tgt, err := reqStr(wt, "target")
			if err != nil {
				return err
			}
			known := false
			for _, t := range workload.AdversarialTargets() {
				if t == tgt {
					known = true
				}
			}
			if !known {
				return errAt(d.file, wt.keyLine("target"),
					"unknown adversarial target %q (have %v)", tgt, workload.AdversarialTargets())
			}
			w.Target = tgt
		} else {
			if _, known := requestDists[fam]; !known {
				return errAt(d.file, wt.keyLine("family"),
					"unknown placement workload family %q (want uniform, exponential, bimodal, fixed, or adversarial)", fam)
			}
			w.MinSize = optInt(wt, "min_size")
			w.MaxSize = optInt(wt, "max_size")
			w.MeanSize = optInt(wt, "mean_size")
			w.MeanLifetime = optInt(wt, "mean_lifetime")
		}
		if err := wt.leftover(); err != nil {
			return err
		}
		spec.Workloads = append(spec.Workloads, w)
	}
	s.Placement = spec
	return nil
}

func (s *Scenario) parseReplacement(d *document) error {
	sec := d.section("replacement")
	if sec == nil {
		return errAt(d.file, 1, "kind %q needs a [replacement] section", s.Kind)
	}
	spec := &ReplacementSpec{}
	ps, ok, err := sec.integer("page_size")
	if err != nil {
		return err
	}
	if !ok || ps <= 0 {
		return errAt(d.file, sec.keyLine("page_size"), "[replacement] needs page_size > 0")
	}
	spec.PageSize = int(ps)
	frames, ok, err := sec.ints("frames")
	if err != nil {
		return err
	}
	if !ok || len(frames) == 0 {
		return errAt(d.file, sec.keyLine("frames"), "[replacement] needs a non-empty frames list")
	}
	for _, f := range frames {
		if f <= 0 {
			return errAt(d.file, sec.keyLine("frames"), "frame counts must be positive, got %d", f)
		}
	}
	spec.Frames = frames
	pols, ok, err := sec.strings("policies")
	if err != nil {
		return err
	}
	if !ok || len(pols) == 0 {
		return errAt(d.file, sec.keyLine("policies"), "[replacement] needs a non-empty policies list")
	}
	for _, p := range pols {
		if !knownReplacePolicy(p) {
			return errAt(d.file, sec.keyLine("policies"),
				"unknown replacement policy %q (have %v)", p, replacePolicyNames())
		}
	}
	spec.Policies = pols
	if err := sec.leftover(); err != nil {
		return err
	}

	ws, err := parseTraceWorkloads(d, true)
	if err != nil {
		return err
	}
	spec.Workloads = ws
	s.Replacement = spec
	return nil
}

func (s *Scenario) parseMachines(d *document) error {
	sec := d.section("machines")
	if sec == nil {
		return errAt(d.file, 1, "kind %q needs a [machines] section", s.Kind)
	}
	spec := &MachinesSpec{Scale: 2, Segs: 32}
	names, ok, err := sec.strings("names")
	if err != nil {
		return err
	}
	if !ok || len(names) == 0 {
		return errAt(d.file, sec.keyLine("names"), "[machines] needs a non-empty names list")
	}
	if len(names) == 1 && names[0] == "all" {
		spec.Names = append([]string(nil), machineNames...)
	} else {
		for _, n := range names {
			known := false
			for _, m := range machineNames {
				if m == n {
					known = true
				}
			}
			if !known {
				return errAt(d.file, sec.keyLine("names"),
					"unknown machine %q (have %v, or the single entry \"all\")", n, machineNames)
			}
		}
		spec.Names = names
	}
	if scale, ok, err := sec.integer("scale"); err != nil {
		return err
	} else if ok {
		if scale <= 0 {
			return errAt(d.file, sec.keyLine("scale"), "scale must be positive, got %d", scale)
		}
		spec.Scale = int(scale)
	}
	if segs, ok, err := sec.integer("segs"); err != nil {
		return err
	} else if ok {
		if segs <= 0 {
			return errAt(d.file, sec.keyLine("segs"), "segs must be positive, got %d", segs)
		}
		spec.Segs = int(segs)
	}
	if err := sec.leftover(); err != nil {
		return err
	}

	ws, err := parseTraceWorkloads(d, false)
	if err != nil {
		return err
	}
	spec.Workloads = ws
	s.Machines = spec
	return nil
}

// parseTraceWorkloads extracts the [[workload]] trace entries.
// withExtent selects the replacement schema (extent required) versus
// the machines schema (extent forbidden — derived per machine —
// and the "segments" family allowed).
func parseTraceWorkloads(d *document, withExtent bool) ([]TraceWorkload, error) {
	ws := d.list("workload")
	if len(ws) == 0 {
		return nil, errAt(d.file, 1, "scenario needs at least one [[workload]]")
	}
	out := make([]TraceWorkload, 0, len(ws))
	for _, wt := range ws {
		var w TraceWorkload
		fam, err := reqStr(wt, "family")
		if err != nil {
			return nil, err
		}
		if !traceFamilies[fam] && !(fam == "segments" && !withExtent) {
			return nil, errAt(d.file, wt.keyLine("family"),
				"unknown trace workload family %q", fam)
		}
		w.Family = fam
		refs, ok, err := wt.integer("refs")
		if err != nil {
			return nil, err
		}
		if !ok || refs <= 0 {
			return nil, errAt(d.file, wt.keyLine("refs"), "[[workload]] needs refs > 0")
		}
		w.Refs = int(refs)
		ext, extSet, err := wt.integer("extent")
		if err != nil {
			return nil, err
		}
		if withExtent {
			if !extSet || ext <= 0 {
				return nil, errAt(d.file, wt.keyLine("extent"), "[[workload]] needs extent > 0")
			}
			w.Extent = uint64(ext)
		} else if extSet {
			return nil, errAt(d.file, wt.keyLine("extent"),
				"extent is derived per machine; remove it from [[workload]]")
		}
		if err := wt.leftover(); err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// reqStr extracts a required string field with a positional error.
func reqStr(t *table, key string) (string, error) {
	s, ok, err := t.str(key)
	if err != nil {
		return "", err
	}
	if !ok || s == "" {
		return "", errAt(t.file, t.keyLine(key), "%s: missing required field %q", t.context(), key)
	}
	return s, nil
}

// optInt extracts an optional integer, defaulting to 0; type errors
// were already surfaced by the caller pattern (integer marks used
// regardless).
func optInt(t *table, key string) int {
	n, _, _ := t.integer(key)
	return int(n)
}

func validScenarioName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
		case r == '-' && i > 0:
		default:
			return false
		}
	}
	return true
}

func allocPolicyNames() []string {
	return []string{"first-fit", "best-fit", "worst-fit", "next-fit", "two-ended", "rice-chain"}
}

func replacePolicyNames() []string {
	return []string{"belady-min", "lru", "clock", "fifo", "random", "m44-random", "atlas-learning"}
}

func knownReplacePolicy(name string) bool {
	for _, n := range replacePolicyNames() {
		if n == name {
			return true
		}
	}
	return false
}

// hashOf is used by tests to cross-check wire-id integrity.
func hashOf(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])[:12]
}
