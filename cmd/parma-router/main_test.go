package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadInvocations: every way of starting the router wrong
// comes back from run as an error naming the problem — before a listener
// is opened, and without the flag package exiting the process.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		want string
	}{
		{"no backend", nil, "no backends configured"},
		{"malformed spec", []string{"-backend", "=127.0.0.1:1"}, "bad backend spec"},
		{"duplicate name", []string{"-backend", "w0=127.0.0.1:1", "-backend", "w0=127.0.0.1:2"}, `duplicate backend name "w0"`},
		{"unknown policy", []string{"-backend", "w0=127.0.0.1:1", "-policy", "sticky"}, `unknown policy "sticky"`},
		{"least-loaded policy", []string{"-backend", "w0=127.0.0.1:1", "-policy", "leastloaded"}, `unknown policy "leastloaded"`},
		{"bad log format", []string{"-backend", "w0=127.0.0.1:1", "-log-format", "xml"}, `unknown log format "xml"`},
		{"unparsable duration", []string{"-backend", "w0=127.0.0.1:1", "-probe-every", "soon"}, "invalid value"},
		{"unknown flag", []string{"-sticky"}, "flag provided but not defined"},
		// Admission is the worker's, and these router knobs are constants.
		{"max-inflight", []string{"-max-inflight", "4"}, "flag provided but not defined"},
		{"max-per-backend", []string{"-max-per-backend", "2"}, "flag provided but not defined"},
		{"vnodes", []string{"-vnodes", "32"}, "flag provided but not defined"},
		{"spill-factor", []string{"-spill-factor", "2"}, "flag provided but not defined"},
		{"attempts", []string{"-attempts", "5"}, "flag provided but not defined"},
		{"retry-after", []string{"-retry-after", "2s"}, "flag provided but not defined"},
		// Hedged recovers are gone.
		{"hedge-budget", []string{"-hedge-budget", "0.1"}, "flag provided but not defined"},
		{"hedge-delay-min", []string{"-hedge-delay-min", "1ms"}, "flag provided but not defined"},
		{"hedge-delay-max", []string{"-hedge-delay-max", "500ms"}, "flag provided but not defined"},
		// The span ring bounds memory; there is no compaction to schedule.
		{"compact-interval", []string{"-backend", "w0=127.0.0.1:1", "-compact-interval", "1h"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.argv)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.argv, err, tc.want)
			}
		})
	}
}
