// Command dsabenchdiff turns `go test -bench` output into a stable
// JSON snapshot and compares two snapshots as a delta table — the
// hermetic core of the repo's perf gate (`make bench-gate`), with no
// dependency on benchstat or anything outside the standard library.
//
// Usage:
//
//	go test -run '^$' -bench . ... | dsabenchdiff parse -o BENCH.json
//	dsabenchdiff diff [-gate PCT] OLD.json NEW.json
//
// parse reads benchmark result lines ("BenchmarkFoo/case-8  100  1234
// ns/op  56 B/op  7 allocs/op") from stdin or a file. The trailing
// -GOMAXPROCS suffix is stripped from the names so snapshots compare
// across machines with different core counts; its value, with the
// goos, goarch and cpu header lines, is kept as the snapshot's host.
// With -count > 1 a benchmark appears
// several times; parse keeps the fastest run per name, the standard
// noise floor for gating (the minimum is the run least disturbed by
// the machine, and it is far more stable across CI hosts than the
// mean).
//
// diff prints one row per benchmark common to both snapshots — old
// and new ns/op, the delta, and allocs movement — then the geometric
// mean of the new/old time ratios. A "cross-host" line above the table
// flags snapshots from different hosts, and a "host unknown" line
// flags a snapshot that records none: either way the delta may be the
// machine, not the code. Benchmarks present on only one side are
// listed but never gated. With -gate PCT the exit status
// becomes 2 when the geomean regresses by more than PCT percent,
// which is what lets CI hard-fail a pull request that slows the hot
// paths down. -gate-allocs PCT gates the allocs/op geomean the same
// way, over the benchmarks that report allocations on both sides —
// so an allocation regression fails CI even when it has not yet shown
// up as time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's snapshot: best-of-count timing plus the
// allocation counters when the benchmark reports them (-benchmem or
// b.ReportAllocs).
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Host is the machine a snapshot was measured on, as go test -bench
// reports it.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (h Host) String() string {
	return fmt.Sprintf("%s/%s, %s, GOMAXPROCS %d", h.GOOS, h.GOARCH, h.CPU, h.GOMAXPROCS)
}

// Snapshot is the JSON file format: the host, when the bench output
// named one, and a sorted list of results.
type Snapshot struct {
	Host       *Host    `json:"host,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		cmdParse(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  dsabenchdiff parse [-o OUT.json] [BENCH.txt]   # bench output (or stdin) -> JSON snapshot
  dsabenchdiff diff [-gate PCT] [-gate-allocs PCT] OLD.json NEW.json # delta table; exit 2 past a gate
`)
	os.Exit(64)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsabenchdiff:", err)
	os.Exit(1)
}

// procSuffix matches the -GOMAXPROCS tail go test appends to every
// benchmark name ("BenchmarkFoo/case-8").
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark result lines from go test output,
// keeping the fastest run per (normalized) name, and the host from the
// header lines. go test names no -GOMAXPROCS suffix when it is 1.
func parseBench(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	best := map[string]Result{}
	var host Host
	procs := 1
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "goos":
				host.GOOS = v
			case "goarch":
				host.GOARCH = v
			case "cpu":
				host.CPU = v
			}
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		if m := procSuffix.FindString(f[0]); m != "" {
			procs, _ = strconv.Atoi(m[1:])
		}
		res := Result{
			Name:       procSuffix.ReplaceAllString(f[0], ""),
			Iterations: iters,
			NsPerOp:    ns,
		}
		// Optional "B/op" and "allocs/op" pairs, in either order.
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if prev, ok := best[res.Name]; !ok || res.NsPerOp < prev.NsPerOp {
			best[res.Name] = res
		}
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found in input")
	}
	snap := &Snapshot{}
	if host != (Host{}) {
		host.GOMAXPROCS = procs
		snap.Host = &host
	}
	for _, r := range best {
		snap.Benchmarks = append(snap.Benchmarks, r)
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	return snap, nil
}

func cmdParse(args []string) {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	out := fs.String("o", "", "write JSON here instead of stdout")
	_ = fs.Parse(args)
	if fs.NArg() > 1 {
		usage()
	}
	in := io.Reader(os.Stdin)
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	snap, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, _ = os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dsabenchdiff: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
}

func loadSnapshot(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	gate := fs.Float64("gate", 0, "fail (exit 2) if the geomean time ratio regresses by more than this percent")
	gateAllocs := fs.Float64("gate-allocs", 0, "fail (exit 2) if the geomean allocs/op ratio regresses by more than this percent")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	oldSnap, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	newSnap, err := loadSnapshot(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	oldBy := map[string]Result{}
	for _, r := range oldSnap.Benchmarks {
		oldBy[r.Name] = r
	}
	newBy := map[string]Result{}
	for _, r := range newSnap.Benchmarks {
		newBy[r.Name] = r
	}

	var names []string
	for n := range oldBy {
		if _, ok := newBy[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	w := os.Stdout
	if line := hostLine(fs.Arg(0), oldSnap.Host, fs.Arg(1), newSnap.Host); line != "" {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-60s %14s %14s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs")
	logSum := 0.0
	for _, n := range names {
		o, nw := oldBy[n], newBy[n]
		ratio := nw.NsPerOp / o.NsPerOp
		logSum += math.Log(ratio)
		allocs := "-"
		if o.AllocsPerOp != nw.AllocsPerOp {
			allocs = fmt.Sprintf("%g>%g", o.AllocsPerOp, nw.AllocsPerOp)
		} else if nw.AllocsPerOp == 0 {
			allocs = "0"
		}
		fmt.Fprintf(w, "%-60s %14.2f %14.2f %+8.1f%% %9s\n", n, o.NsPerOp, nw.NsPerOp, (ratio-1)*100, allocs)
	}
	for n := range oldBy {
		if _, ok := newBy[n]; !ok {
			fmt.Fprintf(w, "%-60s %14s (only in %s)\n", n, "-", fs.Arg(0))
		}
	}
	for n := range newBy {
		if _, ok := oldBy[n]; !ok {
			fmt.Fprintf(w, "%-60s %14s (only in %s)\n", n, "-", fs.Arg(1))
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no benchmarks in common between %s and %s", fs.Arg(0), fs.Arg(1)))
	}
	geomean := math.Exp(logSum / float64(len(names)))
	fmt.Fprintf(w, "\ngeomean time ratio: %.4f (%+.1f%%) over %d benchmarks\n", geomean, (geomean-1)*100, len(names))
	allocsGeo, allocsN := allocsGeomean(oldBy, newBy, names)
	if allocsN > 0 {
		fmt.Fprintf(w, "geomean allocs ratio: %.4f (%+.1f%%) over %d benchmarks\n", allocsGeo, (allocsGeo-1)*100, allocsN)
	}
	failed := false
	if *gate > 0 {
		limit := 1 + *gate/100
		if geomean > limit {
			fmt.Fprintf(w, "GATE FAIL: geomean %.4f exceeds regression limit %.4f (+%.0f%%)\n", geomean, limit, *gate)
			failed = true
		} else {
			fmt.Fprintf(w, "GATE OK: geomean %.4f within regression limit %.4f (+%.0f%%)\n", geomean, limit, *gate)
		}
	}
	if *gateAllocs > 0 && allocsN > 0 {
		limit := 1 + *gateAllocs/100
		if allocsGeo > limit {
			fmt.Fprintf(w, "GATE FAIL: allocs geomean %.4f exceeds regression limit %.4f (+%.0f%%)\n", allocsGeo, limit, *gateAllocs)
			failed = true
		} else {
			fmt.Fprintf(w, "GATE OK: allocs geomean %.4f within regression limit %.4f (+%.0f%%)\n", allocsGeo, limit, *gateAllocs)
		}
	}
	if failed {
		os.Exit(2)
	}
}

// hostLine is the warning diff prints above its table: "cross-host"
// when both snapshots name a host and the hosts differ, "host unknown"
// when either names none, and "" when both name the same host.
func hostLine(oldPath string, oldHost *Host, newPath string, newHost *Host) string {
	var unknown []string
	if oldHost == nil {
		unknown = append(unknown, oldPath)
	}
	if newHost == nil {
		unknown = append(unknown, newPath)
	}
	switch {
	case len(unknown) > 0:
		return fmt.Sprintf("host unknown: no host recorded in %s; the delta may be a host difference",
			strings.Join(unknown, " and "))
	case *oldHost != *newHost:
		return fmt.Sprintf("cross-host: %s is %s but %s is %s; the delta mixes host and code",
			oldPath, oldHost, newPath, newHost)
	}
	return ""
}

// allocsGeomean is the geometric mean of the new/old allocs-per-op
// ratios over the named benchmarks that reported allocations in the
// old snapshot. A new-side zero — allocation-free after optimization —
// is clamped to one alloc so the log stays finite while the win still
// pulls the mean down; benchmarks without old-side allocation data
// (plain -bench runs, or genuinely zero-alloc baselines) cannot be
// gated and are skipped.
func allocsGeomean(oldBy, newBy map[string]Result, names []string) (geomean float64, count int) {
	logSum := 0.0
	for _, n := range names {
		o, nw := oldBy[n], newBy[n]
		if o.AllocsPerOp <= 0 {
			continue
		}
		newAllocs := nw.AllocsPerOp
		if newAllocs < 1 {
			newAllocs = 1
		}
		logSum += math.Log(newAllocs / o.AllocsPerOp)
		count++
	}
	if count == 0 {
		return 1, 0
	}
	return math.Exp(logSum / float64(count)), count
}
