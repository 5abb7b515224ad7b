package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunRejectsBadInvocations: every way of starting a load run wrong
// comes back from run as an error naming the problem — before any request
// reaches the target, and without the flag package exiting the process.
func TestRunRejectsBadInvocations(t *testing.T) {
	var hits atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer target.Close()

	for _, tc := range []struct {
		name string
		argv []string
		want string
	}{
		{"zero requests", []string{"-n", "0"}, "-n and -qps must be positive"},
		{"negative qps", []string{"-qps", "-1"}, "-n and -qps must be positive"},
		{"malformed geometry", []string{"-geoms", "8x8,eight"}, `invalid geometry "eight"`},
		{"degenerate geometry", []string{"-geoms", "1x8"}, `invalid geometry "1x8"`},
		{"unparsable count", []string{"-n", "many"}, "invalid value"},
		{"unknown flag", []string{"-policy", "affinity"}, "flag provided but not defined"},
		// SLO burn rates and hedged recovers are gone.
		{"check-slo", []string{"-check-slo"}, "flag provided but not defined"},
		{"hedge-report", []string{"-hedge-report"}, "flag provided but not defined"},
		{"latency-out", []string{"-latency-out", "lat.json"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			argv := append([]string{"-target", target.URL, "-n", "1", "-geoms", "4x4"}, tc.argv...)
			before := hits.Load()
			err := run(argv)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.argv, err, tc.want)
			}
			if n := hits.Load() - before; n != 0 {
				t.Fatalf("run(%q) sent %d request(s) before failing", tc.argv, n)
			}
		})
	}
}
