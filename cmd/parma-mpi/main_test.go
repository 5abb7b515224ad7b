package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"parma/internal/experiments"
	"parma/internal/mpi"
)

// failRankEnv names a rank that exits 1 before it dials the coordinator,
// as a rank process that dies at startup would.
const failRankEnv = "PARMA_MPI_TEST_FAIL_RANK"

// TestMain lets -launch use this test binary as its rank processes: a copy
// re-executed with -connect runs one rank, as the real binary would, and
// exits.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-connect" {
		if i := slices.Index(os.Args, "-rank"); i > 0 && os.Args[i+1] == os.Getenv(failRankEnv) {
			os.Exit(1)
		}
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

// rankLines parses the rank processes' report lines from launch output:
// how many there were, their local equations summed, and their system
// hashes XORed together.
func rankLines(out string) (ranks, total int, hash uint64) {
	for _, line := range strings.Split(out, "\n") {
		var rank, size, local, all int
		var h uint64
		if _, err := fmt.Sscanf(line, "rank %d/%d: %d local equations of %d total, hash %x", &rank, &size, &local, &all, &h); err == nil {
			ranks++
			total += local
			hash ^= h
		}
	}
	return ranks, total, hash
}

// TestLaunchFormsTheWholeSystem: three rank processes over TCP form the
// 8x8 system between them, 2·8³ equations in all.
func TestLaunchFormsTheWholeSystem(t *testing.T) {
	out := launch(t, "-ranks", "3", "-n", "8")
	if !strings.Contains(out, "all 3 rank processes completed") {
		t.Fatalf("launcher did not report completion:\n%s", out)
	}
	if ranks, total, _ := rankLines(out); ranks != 3 || total != 2*8*8*8 {
		t.Fatalf("%d rank lines summing to %d local equations, want 3 summing to %d:\n%s", ranks, total, 2*8*8*8, out)
	}
}

// TestLaunchResilientMatchesInProcessDigest: the XOR of the system hashes
// that the rank processes of a launch report is the hash a one-rank
// in-process formation of the same problem computes. The name is kept from
// when this check ran on a separate -resilient launch mode; it now covers
// the one launch path there is.
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

	out := launch(t, "-ranks", "3", "-n", "8")
	ranks, _, hash := rankLines(out)
	if ranks != 3 {
		t.Fatalf("%d rank processes reported a system hash, want 3:\n%s", ranks, out)
	}
	if hash != want {
		t.Fatalf("rank hashes XOR to %016x, in-process formation gives %016x:\n%s", hash, want, out)
	}
}

// TestLaunchFailsFastOnDeadRank: a rank process that exits 1 before it
// dials would leave the others waiting in the start barrier and the
// coordinator in Accept. The launcher must kill them, stop the coordinator
// and name the dead rank, as mpiexec does.
func TestLaunchFailsFastOnDeadRank(t *testing.T) {
	t.Setenv(failRankEnv, "1")
	done := make(chan error, 1)
	go func() { done <- run([]string{"-launch", "-ranks", "3", "-n", "8"}) }()
	select {
	case err := <-done:
		if err == nil || !strings.HasPrefix(err.Error(), "rank 1: ") {
			t.Fatalf("run = %v, want an error naming rank 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("launcher still waits 5 s after rank 1 exited")
	}
}
