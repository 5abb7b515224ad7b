package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"parma/internal/obs"
)

// testConfig builds the daemons once per test binary and points every
// output at temporary directories.
func testConfig(t *testing.T) config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := buildBinaries(root, dir); err != nil {
		t.Fatal(err)
	}
	return config{root: root, binDir: dir, outDir: t.TempDir(), seed: defaultSeed, quick: true}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in this package; regenerate it with `bash benchmark/run.sh --manifest > BENCHMARK.json`")
	}
}

func TestManifestWithinContractLimits(t *testing.T) {
	m := manifest()
	all := append(names(m.EndToEnd), names(m.PerLayer)...)
	for _, w := range m.Workloads {
		all = append(all, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if err := checkNames(all); err != nil {
		t.Error(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	sawSetup := false
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// The README's glossary is hand-written; every metric must at least be in it.
func TestReadmeNamesEveryMetric(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join(root, "benchmark", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(names(endToEndMetrics), names(perLayerMetrics)...) {
		if !bytes.Contains(readme, []byte("`"+name+"`")) {
			t.Errorf("README.md does not mention %s", name)
		}
	}
}

// TestQuickWorkloads drives every workload through both modes at quick
// sizes: the same generators, process boot and teardown, correctness checks,
// probes and trace writer as a full run, in a few seconds.
func TestQuickWorkloads(t *testing.T) {
	cfg := testConfig(t)
	env := readEnv(cfg.root)
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(w, cfg, env, quickSeconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Result.Correct || rec.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failures=%v", w.name, traced, rec.Result.Correct, rec.Result.Attempted, rec.Failures)
			}
			if !rec.NonComparable {
				t.Errorf("%s: quick record not marked non-comparable", w.name)
			}
			if !traced {
				for name, v := range rec.Result.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %g, must never be zero", w.name, name, v.Value)
					}
				}
				continue
			}
			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := obs.ValidateTrace(data)
			if err != nil {
				t.Errorf("%s: trace does not validate: %v", w.name, err)
			}
			if sum.Events < rec.Result.Attempted/2 {
				t.Errorf("%s: %d spans for %d operations", w.name, sum.Events, rec.Result.Attempted)
			}
			if c := rec.Result.Metrics["bench.span_coverage"].Value; c < 0.9 {
				t.Errorf("%s: harness spans cover %.2f of the traced region, want >= 0.90", w.name, c)
			}
		}
	}
}

func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

func waitGone(t *testing.T, pids []int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range pids {
		for alive(pid) {
			if time.Now().After(deadline) {
				t.Fatalf("process %d still alive", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestFleetStopLeavesNoProcess(t *testing.T) {
	cfg := testConfig(t)
	f, err := bootFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pids := f.pids()
	if len(pids) != fleetWorkers+1 {
		t.Fatalf("%d processes, want %d", len(pids), fleetWorkers+1)
	}
	dir := f.dir
	f.stop()
	waitGone(t, pids)
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("run directory %s survived stop", dir)
	}
}

// A boot that fails half way (here: no router binary) must take the workers
// it already started down with it.
func TestFleetBootFailureLeavesNoOrphan(t *testing.T) {
	cfg := testConfig(t)
	if err := os.Remove(filepath.Join(cfg.binDir, "parma-router")); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(cfg.binDir, "fleet-*"))
	if f, err := bootFleet(cfg); err == nil {
		f.stop()
		t.Fatal("boot succeeded without a router binary")
	}
	after, _ := filepath.Glob(filepath.Join(cfg.binDir, "fleet-*"))
	if len(after) != len(before) {
		t.Errorf("failed boot left run directories behind: %v", after)
	}
	// The workers were children of this process: any still running would
	// show up as unreaped or live children.
	var ws syscall.WaitStatus
	if pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil); err == nil && pid > 0 {
		t.Errorf("child %d was left unreaped", pid)
	} else if err == nil && pid == 0 {
		t.Error("a child process is still running after the failed boot")
	}
}
