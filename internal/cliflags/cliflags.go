// Package cliflags registers the distribution, caching and progress
// flags the dsasim, dsafig and dsatrace commands share — one
// definition per flag, so the commands cannot drift apart in names,
// defaults or semantics — and owns the worker-side subcommand
// boilerplate (`<cmd> worker`, `<cmd> serve-worker`) that was
// previously duplicated per command.
//
// The flag values collect into a Sweep. Commands that run one sweep
// through engine.New take an engine.Config from Sweep.Config and, when
// -workers/-remote are set, a dist pool from Sweep.Pool as its
// executor; commands that run experiment batteries through
// experiments.StreamConfig take an experiments.Config from
// Sweep.Battery.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"dsa/internal/engine"
	"dsa/internal/engine/battery"
	"dsa/internal/engine/dist"
	"dsa/internal/experiments"
	"dsa/internal/workload/catalog"
)

// Sweep holds the shared sweep-running flag values after parsing.
type Sweep struct {
	// Prog is the command name ("dsasim"), used to prefix diagnostics
	// and to name the serve-worker counterpart in help text.
	Prog string

	Parallel        int
	Workers         int
	Remote          string
	AuthToken       string
	Batch           int
	BatteryParallel int
	CacheDir        string
	Progress        bool
	Seed            uint64
	CPUProfile      string
	MemProfile      string
}

// Register installs the shared sweep flags — -parallel, -workers,
// -remote, -auth-token, -batch, -battery-parallel, -cache-dir,
// -progress, -seed — on fs with identical names, defaults and help
// text across commands. prog names the command in help text;
// seedDefault preserves each command's historical -seed default
// (dsafig and scenario runs: 0 = paper-exact; dsasim/dsatrace
// generation: 1).
func Register(fs *flag.FlagSet, prog string, seedDefault uint64) *Sweep {
	s := &Sweep{Prog: prog}
	fs.IntVar(&s.Parallel, "parallel", 0, "in-process cell slots shared by every sweep of the run (0 = GOMAXPROCS)")
	fs.IntVar(&s.Workers, "workers", 0, "distribute cells across N worker processes (0 = in-process)")
	fs.StringVar(&s.Remote, "remote", "",
		fmt.Sprintf("comma-separated `%s serve-worker` endpoints (host:port,...) serving cells alongside any -workers", prog))
	fs.StringVar(&s.AuthToken, "auth-token", os.Getenv("DSA_WORKER_TOKEN"),
		"shared secret for -remote handshakes (default $DSA_WORKER_TOKEN)")
	fs.IntVar(&s.Batch, "batch", 1, "cells per dist protocol frame with -workers/-remote (amortizes round trips)")
	fs.IntVar(&s.BatteryParallel, "battery-parallel", 1,
		"run N whole sweeps concurrently over one shared executor (1 = serial; byte-identical at any N)")
	fs.StringVar(&s.CacheDir, "cache-dir", "",
		"disk-backed workload store directory (created if missing; shared across runs and workers)")
	fs.BoolVar(&s.Progress, "progress", false,
		"report sweep progress (cells done/failed/total, ETA, cache traffic) on stderr")
	fs.Uint64Var(&s.Seed, "seed", seedDefault,
		"base seed (0 = paper-exact workloads; nonzero re-derives every workload)")
	fs.StringVar(&s.CPUProfile, "cpuprofile", "", "write a CPU profile to `file` (go tool pprof)")
	fs.StringVar(&s.MemProfile, "memprofile", "", "write an allocation profile to `file` on exit (go tool pprof)")
	return s
}

// Remotes splits the -remote endpoint list.
func (s *Sweep) Remotes() []string { return dist.SplitEndpoints(s.Remote) }

// Store builds this process's workload store from the -cache-dir flag,
// diagnostics prefixed with the command name.
func (s *Sweep) Store() *catalog.Catalog { return Store(s.Prog, s.CacheDir) }

// Config projects the parsed flags onto an engine.Config, with store
// (may be nil) as its catalog. The dist flags are Pool's.
func (s *Sweep) Config(store *catalog.Catalog) engine.Config {
	return engine.Config{Parallel: s.Parallel, Seed: s.Seed, Catalog: store}
}

// Battery builds the experiments.Config the flags ask for, for an
// experiments.StreamConfig call: this process's workload store, the
// dist pool when -workers/-remote are set, and the -progress observer
// — the aggregated battery view under -battery-parallel, where
// interleaved per-sweep lines would be unreadable, per-sweep lines
// otherwise. The returned finish function prints the dist summary,
// closes the pool and prints the store summary (with -cache-dir or
// -progress); call it once the battery is done.
func (s *Sweep) Battery() (experiments.Config, func(), error) {
	c := experiments.Config{
		Parallel:        s.Parallel,
		BatteryParallel: s.BatteryParallel,
		Seed:            s.Seed,
		Store:           s.Store(),
	}
	pool, err := s.Pool()
	if err != nil {
		return c, nil, err
	}
	if pool != nil {
		c.Executor = pool
	}
	if s.Progress {
		if s.BatteryParallel > 1 {
			c.OnBatteryProgress = func(p battery.Progress) {
				fmt.Fprintf(os.Stderr, "%s: battery: %s\n", s.Prog, p)
			}
		} else {
			c.OnProgress = func(sweep string, p engine.Progress) {
				fmt.Fprintf(os.Stderr, "%s: %s: %s\n", s.Prog, sweep, p)
			}
		}
	}
	finish := func() {
		if pool != nil {
			fmt.Fprintf(os.Stderr, "%s: dist: %s\n", s.Prog, pool.Summary())
			pool.Close()
		}
		if s.CacheDir != "" || s.Progress {
			fmt.Fprintf(os.Stderr, "%s: store: %s\n", s.Prog, c.Store.Stats().Summary())
		}
	}
	return c, finish, nil
}

// OneSweep rejects -battery-parallel > 1 for a run that is a single
// sweep, with no battery of sweeps to interleave; what names the run.
func (s *Sweep) OneSweep(what string) error {
	if s.BatteryParallel > 1 {
		return fmt.Errorf("-battery-parallel has no effect here (%s is one sweep); drop the flag", what)
	}
	return nil
}

// StartProfiles honors the -cpuprofile/-memprofile flags: it starts
// CPU profiling (when asked) and returns a stop function the command
// must call on the way out — it stops the CPU profile and writes the
// heap profile after a final GC, so the allocation picture reflects
// live objects, not collectible garbage. With neither flag set the
// returned function is a no-op. Profile files that cannot be created
// are reported as errors up front rather than discovered after the run.
func (s *Sweep) StartProfiles() (func(), error) {
	var cpu *os.File
	if s.CPUProfile != "" {
		f, err := os.Create(s.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("%s: -cpuprofile: %w", s.Prog, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: -cpuprofile: %w", s.Prog, err)
		}
		cpu = f
	}
	memPath := s.MemProfile
	prog := s.Prog
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", prog, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", prog, err)
			}
		}
	}, nil
}

// Pool builds the dist pool the flags ask for with dist.SelfPool —
// nil (and no error) when -workers/-remote are unset. The caller owns
// Close.
func (s *Sweep) Pool() (*dist.Pool, error) {
	remotes := s.Remotes()
	if s.Workers <= 0 && len(remotes) == 0 {
		return nil, nil
	}
	return dist.SelfPool(s.Workers, s.Batch, s.CacheDir, remotes, s.AuthToken)
}

// Store builds a workload store, disk-backed when cacheDir is set,
// with diagnostics prefixed "<prog>: catalog:" on stderr — the one
// construction every command and worker subcommand uses.
func Store(prog, cacheDir string) *catalog.Catalog {
	return catalog.NewStore(catalog.Options{Dir: cacheDir, Log: func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, prog+": catalog: "+format+"\n", args...)
	}})
}

// Parse parses a subcommand's flags and rejects any positional
// argument left after them, printing the usage and exiting 2 as a bad
// flag does, so a mistyped value never passes silently.
func Parse(prog string, fs *flag.FlagSet, args []string) {
	_ = fs.Parse(args) // fs exits on a bad flag
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s %s: unexpected argument %q\n", prog, fs.Name(), fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}
}

// RunWorker is the shared body of the hidden `<cmd> worker`
// subcommand: parse the worker flags and serve cell batches over the
// stdio protocol until the dispatcher closes stdin. The caller
// registers its dist handlers (init-time or explicitly) before calling.
func RunWorker(prog string, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "disk-backed workload cache directory shared with the dispatcher")
	Parse(prog, fs, args)
	return dist.ServeWorker(os.Stdin, os.Stdout, dist.WorkerOptions{Catalog: Store(prog, *cacheDir)})
}

// RunServeWorker is the shared body of `<cmd> serve-worker`: the TCP
// counterpart of RunWorker, serving the same registered handlers to
// dialing -remote pools.
func RunServeWorker(prog string, args []string) error {
	fs := flag.NewFlagSet("serve-worker", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP address to listen on (port 0 picks a free port, announced on stderr)")
	cacheDir := fs.String("cache-dir", "", "disk-backed workload cache directory this worker warms by content-addressed key")
	authToken := fs.String("auth-token", os.Getenv("DSA_WORKER_TOKEN"), "shared secret dialers must present (default $DSA_WORKER_TOKEN; empty accepts any)")
	addrFile := fs.String("addr-file", "", "write the bound host:port to this file (atomically) once listening")
	Parse(prog, fs, args)
	o := dist.ServeOptions{AuthToken: *authToken}
	o.Catalog = Store(prog, *cacheDir)
	return dist.ListenAndServe(*listen, *addrFile, o)
}
