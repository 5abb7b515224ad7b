package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"parma"
	"parma/internal/serve"
)

// TestRunRejectsBadInvocations: every way of starting the daemon wrong
// comes back from run as an error naming the problem — before a listener
// is opened (the -addr-file it would write stays absent), and without the
// flag package exiting the process.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		want string
	}{
		{"unknown flag", []string{"-batch-window", "2ms"}, "flag provided but not defined"},
		{"bad log format", []string{"-log-format", "xml"}, `unknown log format "xml"`},
		{"unparsable deadline", []string{"-deadline", "soon"}, "invalid value"},
		// SLO burn rates, the per-request MPI cross-check and the latency
		// injector are gone.
		{"slo", []string{"-slo", "p99=250ms"}, "flag provided but not defined"},
		{"validate-ranks", []string{"-validate-ranks", "2"}, "flag provided but not defined"},
		{"inject-delay", []string{"-inject-delay", "50ms"}, "flag provided but not defined"},
		// The span ring bounds memory; there is no compaction to schedule.
		{"compact-interval", []string{"-compact-interval", "1h"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrFile := filepath.Join(t.TempDir(), "addr")
			argv := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, tc.argv...)
			err := run(argv)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.argv, err, tc.want)
			}
			if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
				t.Fatalf("run(%q) opened a listener before failing (stat -addr-file: %v)", tc.argv, err)
			}
		})
	}
}

// TestRunDrainsInFlightOnSIGTERM: the daemon's lifecycle end to end. Once
// the address is published a SIGTERM is a drain, not a kill: a recovery
// already running when the signal lands still answers 200 with its field,
// run returns nil, and the -trace file is written on the way out.
func TestRunDrainsInFlightOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	traceFile := filepath.Join(dir, "trace.json")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-trace", traceFile, "-workers", "1", "-log-format", "json"})
	}()

	var base string
	waitUntil(t, done, func() bool {
		b, err := os.ReadFile(addrFile)
		if err != nil || !bytes.HasSuffix(b, []byte("\n")) {
			return false
		}
		base = "http://" + strings.TrimSpace(string(b))
		return true
	}, "the address file")
	client := &http.Client{Timeout: time.Minute}
	if h := healthz(t, client, base); h.Status != "ok" {
		t.Fatalf("/healthz status = %q before the signal, want ok", h.Status)
	}

	_, z, err := parma.Synthesize(parma.MediumConfig{Rows: 32, Cols: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, z.Rows())
	for i := range rows {
		rows[i] = make([]float64, z.Cols())
		for j := range rows[i] {
			rows[i][j] = z.At(i, j)
		}
	}
	body, err := json.Marshal(serve.RecoverRequest{Rows: 32, Cols: 32, Z: rows})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		resp   serve.RecoverResponse
		err    error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := client.Post(base+"/v1/recover", "application/json", bytes.NewReader(body))
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var rr serve.RecoverResponse
		err = json.NewDecoder(resp.Body).Decode(&rr)
		replied <- reply{status: resp.StatusCode, resp: rr, err: err}
	}()

	waitUntil(t, done, func() bool {
		h := healthz(t, client, base)
		return h.QueueDepth+h.InFlight >= 1
	}, "the recovery to be admitted")
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	rep := <-replied
	if rep.err != nil || rep.status != http.StatusOK {
		t.Fatalf("in-flight recover across SIGTERM: status %d, err %v", rep.status, rep.err)
	}
	if len(rep.resp.R) != 32 || len(rep.resp.R[0]) != 32 {
		t.Fatalf("in-flight recover returned a %d-row field, want 32x32", len(rep.resp.R))
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("run did not return within a minute of SIGTERM")
	}
	if _, err := os.Stat(traceFile); err != nil {
		t.Fatalf("trace file after drain: %v", err)
	}
}

// waitUntil polls cond until it holds, failing the test if run returns
// first or a minute passes.
func waitUntil(t *testing.T, done <-chan error, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		select {
		case err := <-done:
			t.Fatalf("run returned %v while waiting for %s", err, what)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// healthz fetches and decodes the daemon's GET /healthz, requiring 200.
func healthz(t *testing.T, client *http.Client, base string) serve.HealthResponse {
	t.Helper()
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}
