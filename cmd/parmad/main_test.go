package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		{"bad slo", []string{"-slo", "p99"}, `SLO "p99" must look like p99=250ms`},
		{"unparsable deadline", []string{"-deadline", "soon"}, "invalid value"},
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
