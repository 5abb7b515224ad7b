// Command parmad serves Parma's MEA recovery and forward measurement as an
// HTTP/JSON daemon. It fronts internal/serve: an admission queue with
// bounded depth, a worker pool that takes admitted requests straight off
// the queue in admission order under per-request deadlines, and an LRU
// cache amortizing Laplacian factorizations and warm-start estimates
// across requests.
//
// Endpoints:
//
//	POST /v1/recover      measured Z field -> recovered R field
//	POST /v1/measure      R field -> simulated Z field
//	GET  /healthz         liveness + drain state
//	GET  /metrics         Prometheus text exposition
//	GET  /debug/pprof/*   runtime profiles (with -pprof)
//
// SIGINT/SIGTERM triggers a graceful drain: admission stops, every already
// admitted request finishes, then the HTTP listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parma/internal/obs"
	"parma/internal/serve"
)

func main() {
	// -h already printed the usage and is not a failure.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "parmad:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("parmad", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (for scripts using port 0)")
	workers := fs.Int("workers", 0, "compute worker pool size (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 64, "max admitted-but-unfinished requests before 429")
	cacheEntries := fs.Int("cache-entries", 128, "factorization/warm-start LRU capacity")
	deadline := fs.Duration("deadline", 30*time.Second, "default per-request deadline")
	maxDim := fs.Int("max-dim", 64, "reject geometries larger than this per side")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint attached to shed (429/503) responses")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive saturation failures that open a geometry's circuit breaker")
	breakerOpenFor := fs.Duration("breaker-open-for", 5*time.Second, "how long an open breaker sheds before a half-open probe")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/*")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	traceFile := fs.String("trace", "", "write a Chrome trace of recorded spans to this file on shutdown")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		return err
	}
	obs.SetLogger(logger)

	rec := obs.NewRecorder()
	if *traceFile == "" {
		rec.SetSpanCap(obs.UntracedSpanCap)
	}
	obs.Enable(rec)
	defer obs.Disable()
	sampler := obs.NewRuntimeSampler(rec, time.Second)
	sampler.Start()
	defer sampler.Stop()

	srv := serve.NewServer(serve.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		CacheEntries:     *cacheEntries,
		DefaultDeadline:  *deadline,
		MaxDim:           *maxDim,
		RetryAfter:       *retryAfter,
		BreakerThreshold: *breakerThreshold,
		BreakerOpenFor:   *breakerOpenFor,
		EnablePprof:      *pprofOn,
		Recorder:         rec,
	})

	// Take over SIGINT/SIGTERM before the address is published: a
	// supervisor may signal as soon as -addr-file appears, and Go's
	// default handler would kill the process without a drain.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen on %s: %w", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	logger.Info("listening", "addr", bound, "workers", *workers, "queue", *queueDepth,
		"cache", *cacheEntries)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admission, let every admitted request finish,
	// then shut the listener down so in-flight responses are delivered.
	logger.Info("draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		_ = httpSrv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("creating -trace file: %w", err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("writing -trace file: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Info("trace written", "file", *traceFile)
	}
	hits, misses := srv.Cache().Stats()
	logger.Info("drained cleanly", "cache_hits", hits, "cache_misses", misses)
	return nil
}
