package experiments

import (
	"strings"
	"testing"
	"time"

	"parma/internal/kirchhoff"
	"parma/internal/sched"
)

func smallConfig() Config {
	return Config{
		Sizes:   []int{4, 8},
		Workers: []int{2, 4},
		Ranks:   []int{2, 8},
		Seed:    1,
	}
}

func TestBuildProblemShapes(t *testing.T) {
	p, err := BuildProblem(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Array.Rows() != 5 || p.Array.Cols() != 5 {
		t.Fatal("problem shape wrong")
	}
	if p.SourceU != 5 {
		t.Fatalf("source voltage %g, want the paper's 5 V", p.SourceU)
	}
}

func TestMeasureTasksCoversSystem(t *testing.T) {
	p, err := BuildProblem(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tt := MeasureTasks(p)
	if len(tt.Cost) != p.Array.Pairs()*len(kirchhoff.Categories) {
		t.Fatalf("measured %d tasks", len(tt.Cost))
	}
	totalEqs := 0
	for _, e := range tt.Eqs {
		totalEqs += e
	}
	if totalEqs != kirchhoff.SystemCensus(p.Array).Equations {
		t.Fatalf("tasks emit %d equations, want %d", totalEqs, kirchhoff.SystemCensus(p.Array).Equations)
	}
	if tt.Total <= 0 {
		t.Fatal("non-positive total time")
	}
}

// TestSimulatedMakespansAreConsistent checks the basic laws any schedule
// simulation must obey: no strategy beats perfect speedup, every strategy
// is bounded by serial time plus overhead, and more workers never hurt
// FineGrained by more than the added overhead.
func TestSimulatedMakespansAreConsistent(t *testing.T) {
	p, err := BuildProblem(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	tt := MeasureTasks(p)
	prof := NativeProfile
	serial := tt.SerialTime()
	for _, k := range []int{1, 2, 4, 8} {
		bal := tt.BalancedTime(prof, k)
		fine := tt.FineGrainedTime(prof, k)
		floor := serial / time.Duration(k)
		if bal < floor {
			t.Fatalf("k=%d: balanced %v beats perfect speedup %v", k, bal, floor)
		}
		if fine < floor {
			t.Fatalf("k=%d: fine-grained %v beats perfect speedup %v", k, fine, floor)
		}
		if bal > serial+time.Duration(k)*prof.ThreadSpawn+serial/10 {
			t.Fatalf("k=%d: balanced %v worse than serial %v", k, bal, serial)
		}
	}
	fw := tt.FourWayTime(prof)
	if fw < serial/4 || fw > serial+4*prof.ThreadSpawn+serial/10 {
		t.Fatalf("four-way %v outside [serial/4, serial]", fw)
	}
}

// TestPaperCrossover: under the Python profile, Balanced beats PyMP on a
// small array and PyMP beats Balanced on a larger one — Figure 6's shape.
func TestPaperCrossover(t *testing.T) {
	small, err := BuildProblem(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildProblem(24, 3)
	if err != nil {
		t.Fatal(err)
	}
	prof := PythonProfile
	const k = 32
	ts, tb := MeasureTasks(small), MeasureTasks(big)
	if ts.BalancedTime(prof, 4) > ts.FineGrainedTime(prof, k) {
		t.Fatalf("small array: balanced %v should beat pymp %v",
			ts.BalancedTime(prof, 4), ts.FineGrainedTime(prof, k))
	}
	if tb.FineGrainedTime(prof, k) > tb.BalancedTime(prof, 4) {
		t.Fatalf("large array: pymp %v should beat balanced %v",
			tb.FineGrainedTime(prof, k), tb.BalancedTime(prof, 4))
	}
}

func TestFigure6SmallRun(t *testing.T) {
	tbl, err := Figure6(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, col := range []string{"single_thread_s", "parallel_s", "balanced_parallel_s", "pymp_4_s"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %q in:\n%s", col, out)
		}
	}
	if !strings.Contains(out, "\n4 ") && !strings.Contains(out, "\n4  ") {
		t.Fatalf("missing n=4 row:\n%s", out)
	}
}

func TestFigure7SmallRun(t *testing.T) {
	tbl, err := Figure7(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 { // header + 2 sizes
		t.Fatalf("%d lines:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "n,single_thread_s,pymp_2_s,pymp_4_s") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestFigure8SmallRun(t *testing.T) {
	cfg := smallConfig()
	tbl, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// header + |sizes| x |workers| rows
	if len(lines) != 1+len(cfg.Sizes)*len(cfg.Workers) {
		t.Fatalf("%d lines:\n%s", len(lines), sb.String())
	}
}

func TestFigure9SmallRun(t *testing.T) {
	tbl, err := Figure9(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bytes_written") {
		t.Fatalf("missing bytes column:\n%s", sb.String())
	}
	// Bytes must be nonzero for both sizes.
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if cells[2] == "0" {
			t.Fatalf("zero bytes written: %s", line)
		}
	}
}

func TestFigure10SmallRun(t *testing.T) {
	tbl, err := Figure10(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "n,serial_s,ranks_2_s,ranks_8_s") {
		t.Fatalf("header = %q", lines[0])
	}
}

// TestFigure10MakespansPinned: Figure 10's makespans are a pure function
// of the pair costs and the cost model. On a fixed synthetic cost table the
// homogeneous SPMD run must reproduce, bit for bit, the values the
// dedicated Figure 10 simulator gave before it was folded into
// heteroMakespan.
func TestFigure10MakespansPinned(t *testing.T) {
	pairCost := make([]time.Duration, 256) // a 16x16 array's pairs
	for i := range pairCost {
		pairCost[i] = time.Duration(1+(i*7919)%1000) * time.Microsecond
	}
	for _, tc := range []struct {
		ranks int
		want  float64
	}{{1, 0.129416}, {4, 0.033448002}, {32, 0.006620002}} {
		got, err := heteroMakespan(pairCost, nil, modelFor(PythonProfile), sched.StaticRanges(len(pairCost), tc.ranks))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%d ranks: makespan %.9f s, want %.9f", tc.ranks, got, tc.want)
		}
	}
}

// TestFigure10ScalingShape: at a size where work dominates overhead, more
// ranks must reduce the makespan; at a tiny size the startup floor holds.
func TestFigure10ScalingShape(t *testing.T) {
	p, err := BuildProblem(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	tt := MeasureTasks(p)
	pairCost := make([]time.Duration, p.Array.Pairs())
	for task, c := range tt.Cost {
		pairCost[task/len(kirchhoff.Categories)] += c
	}
	model := PythonProfile
	cm := modelFor(model)
	t2, err := heteroMakespan(pairCost, nil, cm, sched.StaticRanges(len(pairCost), 2))
	if err != nil {
		t.Fatal(err)
	}
	t16, err := heteroMakespan(pairCost, nil, cm, sched.StaticRanges(len(pairCost), 16))
	if err != nil {
		t.Fatal(err)
	}
	if t16 >= t2 {
		t.Fatalf("16 ranks (%v s) not faster than 2 ranks (%v s) on n=24", t16, t2)
	}
	// Floor: makespan never drops below the rank startup cost.
	if t16 < cm.RankStartup.Seconds() {
		t.Fatalf("makespan %v below startup floor", t16)
	}
}
