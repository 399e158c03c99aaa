// Command dsafig regenerates the figures and tables of Randell &
// Kuehner, "Dynamic Storage Allocation Systems" (SOSP 1967 / CACM May
// 1968) from the simulators in this repository.
//
// Usage:
//
//	dsafig [-parallel N] [-workers N] [-remote host:port,...] [-batch B]
//	       [-battery-parallel N] [-seed S] [-cache-dir DIR]
//	       [-scenario FILE,...] [-progress] [experiment ...]
//	dsafig serve-worker [-listen ADDR] [-cache-dir DIR] [-auth-token T]
//
// With no arguments every experiment runs in order. Experiment names:
// t0 fig1 fig2 fig3 fig4 t1 t2 t3 t4 t5 t6 t7 t8 t8b a1 a2 a3 a4 a5 a6
// (-h lists them from the experiments registry).
//
// -parallel runs the battery's cells on N in-process cell slots
// shared by every sweep (0 = GOMAXPROCS); the tables are
// byte-identical at any parallelism. -battery-parallel runs up to N
// whole experiments concurrently over that one executor (or the
// -workers pool, whose children and caches then persist across the
// battery), re-emitting tables in canonical order — byte-identical to
// the serial battery at any N.
// -workers distributes each experiment's cells across N `dsafig
// worker` child processes instead: every cell crosses the wire as
// {sweep id, cell key, base seed}, is rebuilt from the worker's
// compiled-in sweep registry, and re-materializes its workloads from
// their catalog keys — so the tables are byte-identical to any
// in-process run, and a crashed worker costs FAILED cells, never the
// battery. -batch B ships B cells per protocol frame (default 1),
// amortizing the round trip on small-cell sweeps without changing a
// byte.
// -cache-dir backs the battery's workload store with a
// content-addressed disk cache: a cold run writes every materialized
// workload, later runs (and the worker processes, which share the
// directory) replay them instead of regenerating. Corrupt or
// version-skewed cache files are logged and regenerated; an unusable
// directory degrades to memory-only. Bytes never change — only where
// the workloads come from.
// -seed 0 (the default) reproduces the paper-exact tables; any other
// value re-derives every workload (and its catalog keys) so the same
// battery explores a fresh, equally reproducible scenario.
// -progress streams per-sweep cell counts, an ETA, and the sweep's
// workload-cache traffic to stderr while the tables stream to stdout.
//
// -remote host:port,... adds one pool slot per listed `dsafig
// serve-worker` endpoint alongside any -workers children; -auth-token
// (default $DSA_WORKER_TOKEN) must match the servers'. A dead or
// corrupted link costs exactly its in-flight batch (contained FAILED
// cells), reconnects within the same budget as local respawns, and
// degrades to in-process execution — byte-identical tables throughout.
//
// -scenario FILE,... compiles declarative sweep files (see
// internal/scenario and examples/scenarios/) and runs them through the
// same battery: each file registers under its wire id
// "scenario/<name>@<hash>" and may also be named positionally by its
// bare name. Scenario cells distribute across -workers/-remote pools
// unchanged — the file's source travels in the cell spec, and workers
// compile it on first use.
//
// The hidden `dsafig worker` subcommand is the child side of -workers,
// started only by a dispatching dsafig. `dsafig serve-worker` is its
// TCP counterpart for -remote: it listens on -listen (port 0 picks a
// free port, announced on stderr and via -addr-file), requires
// -auth-token when set, and warms its own -cache-dir.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dsa/internal/cliflags"
	"dsa/internal/experiments"
	"dsa/internal/metrics"
	"dsa/internal/scenario"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		// The experiments package registered its cell handlers at init
		// (compiled-in sweeps and scenario cells both); serve cell
		// batches until the dispatcher closes stdin. With -cache-dir the
		// worker's per-process catalog is backed by the shared cache
		// directory, so workloads replay across processes.
		if err := cliflags.RunWorker("dsafig", os.Args[2:]); err != nil {
			fail(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve-worker" {
		// Same cell handlers, served over TCP to dialing dsafig -remote
		// pools.
		if err := cliflags.RunServeWorker("dsafig", os.Args[2:]); err != nil {
			fail(err)
		}
		return
	}
	sw := cliflags.Register(flag.CommandLine, "dsafig", 0)
	scenarios := flag.String("scenario", "", "comma-separated scenario files to compile and run alongside any named experiments")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dsafig [-parallel N] [-workers N] [-remote host:port,...] [-batch B] [-battery-parallel N] [-seed S] [-cache-dir DIR] [-scenario FILE,...] [-progress] [experiment ...]\nexperiments: %s (default: all)\n",
			strings.Join(experiments.Names(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	stopProfiles, err := sw.StartProfiles()
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	// Declarative sweeps: each -scenario file compiles to engine cells
	// and registers as a battery experiment under its wire id. With no
	// positional experiment names the invocation runs just the
	// scenarios; with names it runs both, in the order given.
	names := flag.Args()
	for _, path := range splitList(*scenarios) {
		s, err := scenario.Load(path)
		if err != nil {
			fail(err)
		}
		names = append(names, experiments.RegisterScenario(s))
	}
	if *scenarios != "" && len(names) == 0 {
		fail(fmt.Errorf("-scenario %q named no files", *scenarios))
	}
	if len(flag.Args()) == 0 && *scenarios == "" {
		names = nil // the whole compiled-in battery
	}

	// One battery-scoped store for everything this invocation runs:
	// sweeps share workloads across experiments, and with -cache-dir
	// they replay them across runs and processes. Stream each table out
	// as soon as its prefix of the battery completes — in canonical
	// order, whatever order sweeps finish in.
	c, finish, err := sw.Battery()
	if err != nil {
		fail(err)
	}
	err = experiments.StreamConfig(context.Background(), c, func(t *metrics.Table) { fmt.Println(t) }, names...)
	finish()
	if err != nil {
		fail(err)
	}
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(v string) []string {
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dsafig:", err)
	os.Exit(1)
}
