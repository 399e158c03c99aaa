package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dsa/internal/cliflags"
	"dsa/internal/engine/battery"
	"dsa/internal/serve"
)

// cmdServe is the `dsasim serve` entry point: the long-running
// multi-tenant sweep service. One daemon owns one battery-wide cell
// budget, one workload store (disk-backed with -cache-dir) and one
// cost manifest for its lifetime; tenants submit sweeps over HTTP and
// stream back tables byte-identical to the serial CLI. See
// internal/serve for the admission and fairness semantics.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP address to listen on (port 0 picks a free port, announced on stderr)")
	addrFile := fs.String("addr-file", "", "write the bound host:port to this file (atomically) once listening")
	cacheDir := fs.String("cache-dir", "", "disk-backed workload store and cost-manifest directory (created if missing)")
	parallel := fs.Int("parallel", 0, "battery-wide cell budget across all tenants (0 = GOMAXPROCS)")
	tenantCells := fs.Int("tenant-cells", 0, "per-tenant concurrent cell cap (0 = no cap below -parallel)")
	tenantJobs := fs.Int("tenant-jobs", 4, "per-tenant open-job cap before submissions get 429 + Retry-After")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace: in-flight streams get this long before jobs are cancelled")
	cliflags.Parse("dsasim", fs, args)

	store := cliflags.Store("dsasim", *cacheDir)
	// Without -cache-dir the manifest lives in memory only: Retry-After
	// still learns from the daemon's own sweeps, and Save is a no-op.
	costsPath := ""
	if *cacheDir != "" {
		costsPath = filepath.Join(*cacheDir, "latency.json")
	}
	costs := battery.LoadCosts(costsPath)
	srv := serve.New(serve.Options{
		Store:       store,
		Costs:       costs,
		Cells:       *parallel,
		TenantCells: *tenantCells,
		TenantJobs:  *tenantJobs,
		Log: func(format string, argv ...interface{}) {
			fmt.Fprintf(os.Stderr, "dsasim: serve: "+format+"\n", argv...)
		},
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "dsasim: serve: listening on %s\n", ln.Addr())
	if *addrFile != "" {
		// Atomic publish, the serve-worker idiom: a watcher polling the
		// file never reads a half-written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			fail(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fail(err)
		}
	}

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// Clean SIGTERM drain: stop accepting, give in-flight streams the
	// grace window, then cancel remaining jobs and join their
	// goroutines. Exit 0 on a signal — an orchestrator stopping the
	// daemon is the normal end of its life, not a failure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		fail(err)
	}
	stop()
	fmt.Fprintln(os.Stderr, "dsasim: serve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dsasim: serve: shutdown: %v\n", err)
	}
	srv.Close()
	if err := costs.Save(); err != nil {
		fmt.Fprintf(os.Stderr, "dsasim: costs: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "dsasim: store: %s\n", store.Stats().Summary())
}
