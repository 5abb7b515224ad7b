// Command parma-router fronts a fleet of parmad workers: a reverse proxy
// with pluggable routing policies, health-checked failover, and
// geometry-affinity caching (internal/fleet).
//
// Endpoints:
//
//	POST   /v1/recover            proxied to a worker chosen by -policy (hedged when -hedge-budget > 0)
//	POST   /v1/measure            proxied likewise
//	GET    /healthz               fleet liveness + per-backend detail
//	GET    /fleet                 ring ownership (add ?key=RxC for one geometry)
//	GET    /admin/backends        membership list (requires -admin-token)
//	POST   /admin/backends        add a member at runtime
//	DELETE /admin/backends/{name} coordinated drain + remove
//	GET    /metrics               Prometheus text exposition
//
// Backends are named (-backend w0=host:port): the name is the consistent-
// hash identity, so geometry ownership survives router restarts and worker
// port changes. SIGINT/SIGTERM shuts the listener down gracefully.
//
// Example:
//
//	parma-router -addr :8320 -policy affinity \
//	    -backend w0=127.0.0.1:8321 -backend w1=127.0.0.2:8321
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

	"parma/internal/fleet"
	"parma/internal/obs"
)

func main() {
	// -h already printed the usage and is not a failure.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "parma-router:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("parma-router", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8320", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (for scripts using port 0)")
	var backendSpecs []string
	fs.Func("backend", `worker spec "name=host:port" (repeatable; comma lists allowed; bare addrs become their own name)`,
		func(v string) error { backendSpecs = append(backendSpecs, v); return nil })
	policy := fs.String("policy", fleet.PolicyAffinity, "routing policy: roundrobin, leastloaded, or affinity")
	vnodes := fs.Int("vnodes", fleet.DefaultVnodes, "virtual nodes per backend on the consistent-hash ring")
	spillFactor := fs.Float64("spill-factor", 1.25, "bounded-load factor c: affinity spills off an owner loaded past c×mean")
	attempts := fs.Int("attempts", 3, "max backends tried per request before giving up")
	attemptTimeout := fs.Duration("attempt-timeout", 30*time.Second, "per-attempt deadline on proxied requests")
	probeEvery := fs.Duration("probe-every", 250*time.Millisecond, "health-probe period")
	suspectAfter := fs.Duration("suspect-after", time.Second, "eject a backend silent for this long (readmitted on first success)")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive failures that open a backend's circuit breaker")
	breakerOpenFor := fs.Duration("breaker-open-for", 2*time.Second, "how long an open breaker skips its backend before a half-open probe")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on router-generated 503s")
	maxBody := fs.Int64("max-body", 1<<20, "max proxied request body bytes (bodies are buffered for idempotent replay; oversize answers 413)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently proxied requests router-wide; past it requests shed with 429 (0 disables)")
	maxPerBackend := fs.Int("max-per-backend", 0, "max outstanding requests per backend from this router; capped candidates are skipped (0 disables)")
	hedgeBudget := fs.Float64("hedge-budget", 0, "max fraction of /v1/recover requests that may launch a hedged second attempt (0 disables hedging)")
	hedgeDelayMin := fs.Duration("hedge-delay-min", time.Millisecond, "lower clamp on the rolling-p95 hedge delay")
	hedgeDelayMax := fs.Duration("hedge-delay-max", 500*time.Millisecond, "upper clamp on the rolling-p95 hedge delay")
	adminToken := fs.String("admin-token", "", "token authenticating the /admin/backends membership API (empty disables it)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a coordinated removal waits for the departing backend's in-flight requests")
	compactEvery := fs.Duration("compact-interval", 10*time.Second, "fold span events into rollups on this interval (bounds memory)")
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

	backends, err := fleet.ParseBackends(backendSpecs)
	if err != nil {
		return err
	}

	rec := obs.NewRecorder()
	obs.Enable(rec)
	defer obs.Disable()

	compactDone := make(chan struct{})
	defer close(compactDone)
	go func() {
		tick := time.NewTicker(*compactEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rec.CompactSpans()
			case <-compactDone:
				return
			}
		}
	}()

	router, err := fleet.New(fleet.Config{
		Backends:       backends,
		Policy:         *policy,
		Vnodes:         *vnodes,
		SpillFactor:    *spillFactor,
		Attempts:       *attempts,
		AttemptTimeout: *attemptTimeout,
		Probe: fleet.ProberConfig{
			Every:        *probeEvery,
			SuspectAfter: *suspectAfter,
		},
		BreakerThreshold: *breakerThreshold,
		BreakerOpenFor:   *breakerOpenFor,
		RetryAfter:       *retryAfter,
		MaxBody:          *maxBody,
		MaxInFlight:      *maxInflight,
		MaxPerBackend:    *maxPerBackend,
		HedgeBudget:      *hedgeBudget,
		HedgeDelayMin:    *hedgeDelayMin,
		HedgeDelayMax:    *hedgeDelayMax,
		AdminToken:       *adminToken,
		DrainTimeout:     *drainTimeout,
		Recorder:         rec,
	})
	if err != nil {
		return err
	}

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
		Handler:           router.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	router.Start(ctx)
	defer router.Close()

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name
	}
	logger.Info("routing", "addr", bound, "policy", *policy, "backends", names,
		"vnodes", *vnodes, "attempts", *attempts,
		"probe_every", (*probeEvery).String(), "suspect_after", (*suspectAfter).String(),
		"hedge_budget", *hedgeBudget, "max_inflight", *maxInflight,
		"admin_api", *adminToken != "")

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
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
	logger.Info("stopped cleanly")
	return nil
}
