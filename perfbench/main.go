// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing of its own into the program under test: it imports the
// program's packages, drives them the way a user would (the whole
// experiment battery in-process, the same battery across worker
// processes, the sweep daemon over loopback HTTP), checks every output
// against a reference, and times the calls from the outside.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload battery|serve|dist --seed N --seconds S --trace 0|1
//	perfbench compare OLD NEW
//
// With --trace 0 the last stdout line is one JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a traced run (a timing wrapper around the engine executor plus a CPU
// profile), measured after an untraced half of the same run so the
// tracing overhead is reported too. Lines before it carry the host
// header and, for traced runs, the critical-path report. README.md
// documents every metric and the predictions that tie them together.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dsa/internal/cliflags"
)

// metric is one named measurement as the result line reports it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts is one run's command line.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	buildDir string // where CPU profiles go
}

// runFunc measures one workload: end-to-end metrics when o.trace is
// false, per-layer metrics otherwise.
type runFunc func(o opts) (result, error)

var workloads = map[string]runFunc{
	"battery": func(o opts) (result, error) { return runBatteries(o, false) },
	"dist":    func(o opts) (result, error) { return runBatteries(o, true) },
	"serve":   runServe,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			// Child side of the dist workload's pool: the same binary,
			// so the worker's cell registry is the dispatcher's.
			if err := cliflags.RunWorker("perfbench", os.Args[2:]); err != nil {
				fail(err)
			}
			return
		case "compare":
			code, err := compare(os.Stdout, os.Args[2:])
			if err != nil {
				fail(err)
			}
			os.Exit(code)
		}
	}
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: battery, serve or dist")
	flag.Uint64Var(&o.seed, "seed", 0, "seed every input of the run derives from")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for CPU profiles")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok {
		fail(fmt.Errorf("unknown --workload %q (want battery, serve or dist)", o.workload))
	}
	if o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		fail(err)
	}
	host := readHost(".")
	printJSON(map[string]interface{}{"host": host})
	start := time.Now()
	res, err := run(o)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v finished in %.1fs\n",
		o.workload, o.seed, o.trace, time.Since(start).Seconds())
	printJSON(res)
	if !res.Correct {
		// The result line above says what failed; the exit code makes
		// sure nobody mistakes the run for a valid measurement.
		os.Exit(1)
	}
}

func printJSON(v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
