// Command dbspd is the long-running simulation service: the experiment
// grid of cmd/experiments behind an HTTP/JSON API, scheduled fairly
// across tenants by internal/serve on the deterministic sweep engine.
//
// Usage:
//
//	dbspd [-listen ADDR] [-workers N] [-tenant-quota N] [-max-sweeps N]
//	      [-no-cache]
//
// -listen is the host:port to serve on (port 0 picks a free port; the
// bound address is printed to stderr). -workers bounds each sweep's
// worker pool (0 = GOMAXPROCS); -tenant-quota caps concurrently
// running sweeps per tenant and -max-sweeps across all tenants.
// -no-cache disables the repeated-submission result cache (by default
// a resubmitted (program, params, seed) is answered from cache with
// byte-identical results — sound because sweep output is
// schedule-independent).
//
// The API (see internal/serve): POST /api/v1/jobs submits a program,
// GET /api/v1/jobs/{job}/results streams its JSONL records (resumable
// via ?offset=N), DELETE cancels; /metrics, /healthz and
// /debug/progress serve the usual observability surface. The streamed
// records are byte-identical to `experiments -jsonl -keep-going` for
// the same selection, seed and flags, apart from the documented
// run-varying start_ms/wall_ms fields.
//
// The daemon's memory stays bounded however long it runs: it keeps the
// 1,024 most recent finished jobs, and an older job's ID answers
// 410 Gone; the result cache holds at most 64 MiB of result lines and
// evicts the least recently used entry beyond that, so an evicted
// program runs again to the same bytes. /metrics reports
// serve_jobs_evicted, serve_cache_bytes and serve_cache_evictions.
//
// SIGINT/SIGTERM shut the daemon down gracefully: queued jobs cancel,
// running sweeps stop, in-flight responses drain, exit status 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8344", "host:port to serve on (port 0 picks a free port)")
	workers := flag.Int("workers", 0, "per-sweep worker pool size (0 = GOMAXPROCS)")
	tenantQuota := flag.Int("tenant-quota", 1, "max concurrently running sweeps per tenant")
	maxSweeps := flag.Int("max-sweeps", 2, "max concurrently running sweeps across all tenants")
	noCache := flag.Bool("no-cache", false, "disable the repeated-submission result cache")
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr("unexpected arguments: %v", flag.Args())
	}
	if _, _, err := net.SplitHostPort(*listen); err != nil {
		usageErr("bad -listen address: %v", err)
	}
	if *workers < 0 {
		usageErr("-workers must be non-negative, got %d", *workers)
	}
	if *tenantQuota < 1 {
		usageErr("-tenant-quota must be at least 1, got %d", *tenantQuota)
	}
	if *maxSweeps < 1 {
		usageErr("-max-sweeps must be at least 1, got %d", *maxSweeps)
	}

	catalog, err := serve.NewCatalog(experiments.Jobs())
	if err != nil {
		fatal("%v", err)
	}
	svc := serve.New(catalog, serve.Options{
		Workers:     *workers,
		TenantQuota: *tenantQuota,
		MaxSweeps:   *maxSweeps,
		NoCache:     *noCache,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("%v", err)
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	fmt.Fprintf(os.Stderr, "dbspd: serving on http://%s\n", ln.Addr())
	go func() { done <- srv.Serve(ln) }()

	// Serve only returns before shutdown on a listener failure; the
	// error goes to stderr only, and dbspd writes no byte-compared
	// output on stdout at all.
	select { //lint:ignore detflow daemon lifecycle errors are stderr diagnostics; dbspd's deterministic output is the HTTP result stream, which never passes through here
	case err := <-done:
		fatal("%v", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "dbspd: shutting down")
	// Stop the scheduler first so every result stream finishes and
	// in-flight followers drain, then close the HTTP side.
	svc.Close()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		fatal("shutdown: %v", err)
	}
	if err := <-done; err != nil && err != http.ErrServerClosed {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dbspd: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}

// usageErr reports a flag-validation failure: the message, then the
// flag usage, then exit status 2.
func usageErr(format string, args ...any) {
	fmt.Fprintf(flag.CommandLine.Output(), "dbspd: %s\n\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}
