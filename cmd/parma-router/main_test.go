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
		{"bad log format", []string{"-backend", "w0=127.0.0.1:1", "-log-format", "xml"}, `unknown log format "xml"`},
		{"unparsable duration", []string{"-backend", "w0=127.0.0.1:1", "-probe-every", "soon"}, "invalid value"},
		{"unknown flag", []string{"-sticky"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.argv)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.argv, err, tc.want)
			}
		})
	}
}
