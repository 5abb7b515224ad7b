package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"parma/internal/experiments"
	"parma/internal/mpi"
)

// TestMain lets -launch use this test binary as its rank processes: a copy
// re-executed with -connect runs one rank, as the real binary would, and
// exits.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-connect" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "parma-mpi: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRunRejectsBadInvocations: every way of starting parma-mpi wrong comes
// back from run as an error naming the problem, without the flag package
// exiting the process and before any process starts. Launch mode creates
// -trace-dir just before it opens the coordinator and spawns the ranks, so
// the directory staying absent shows run failed ahead of both.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		want string
	}{
		{"no mode", nil, "one of -launch, -serve or -connect is required"},
		{"crash coordinator", []string{"-launch", "-chaos", "crash=0@3"}, "crash=0 would kill the formation coordinator"},
		{"crash outside world", []string{"-launch", "-chaos", "crash=5@1", "-ranks", "4"}, "crash rank 5 outside world of 4"},
		{"malformed chaos", []string{"-launch", "-chaos", "drop"}, "is not key=value"},
		{"rank outside world", []string{"-connect", "127.0.0.1:1", "-rank", "9", "-ranks", "4"}, "rank 9 outside world of 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			traceDir := filepath.Join(t.TempDir(), "traces")
			err := run(append([]string{"-trace-dir", traceDir}, tc.argv...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.argv, err, tc.want)
			}
			if _, err := os.Stat(traceDir); !os.IsNotExist(err) {
				t.Fatalf("run(%q) got past validation before failing (stat -trace-dir: %v)", tc.argv, err)
			}
		})
	}
}

// launch runs parma-mpi -launch with argv and returns what it and its rank
// processes printed: the ranks inherit os.Stdout, so pointing it at a file
// for the run captures them all.
func launch(t *testing.T, argv ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(append([]string{"-launch"}, argv...))
	os.Stdout = stdout
	out, readErr := os.ReadFile(f.Name())
	if err != nil || readErr != nil {
		t.Fatalf("run(-launch %q): %v, %v\n%s", argv, err, readErr, out)
	}
	return string(out)
}

// TestLaunchFormsTheWholeSystem: three rank processes over TCP form the
// 8x8 system between them, 2·8³ equations in all.
func TestLaunchFormsTheWholeSystem(t *testing.T) {
	out := launch(t, "-ranks", "3", "-n", "8")
	if !strings.Contains(out, "all 3 rank processes completed") {
		t.Fatalf("launcher did not report completion:\n%s", out)
	}
	ranks, total := 0, 0
	for _, line := range strings.Split(out, "\n") {
		var rank, size, local, all int
		if _, err := fmt.Sscanf(line, "rank %d/%d: %d local equations of %d total", &rank, &size, &local, &all); err == nil {
			ranks++
			total += local
		}
	}
	if ranks != 3 || total != 2*8*8*8 {
		t.Fatalf("%d rank lines summing to %d local equations, want 3 summing to %d:\n%s", ranks, total, 2*8*8*8, out)
	}
}

// TestLaunchResilientMatchesInProcessDigest: with the reliable transport
// and self-healing formation, every rank process reports the system hash
// that a one-rank in-process formation of the same problem computes.
func TestLaunchResilientMatchesInProcessDigest(t *testing.T) {
	p, err := experiments.BuildProblem(8, 2022)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	errs := mpi.NewWorld(1, mpi.CostModel{}).Run(func(c *mpi.Comm) error {
		res, err := mpi.DistributedFormation(c, p)
		want = res.LocalHash
		return err
	})
	if err := mpi.FirstError(errs); err != nil {
		t.Fatal(err)
	}

	out := launch(t, "-ranks", "3", "-n", "8", "-resilient")
	hashes := regexp.MustCompile(`system hash ([0-9a-f]{16})`).FindAllStringSubmatch(out, -1)
	if len(hashes) != 3 {
		t.Fatalf("%d rank processes reported a system hash, want 3:\n%s", len(hashes), out)
	}
	for _, h := range hashes {
		if h[1] != fmt.Sprintf("%016x", want) {
			t.Fatalf("rank reported system hash %s, in-process formation gives %016x:\n%s", h[1], want, out)
		}
	}
}
