package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"parma/internal/kirchhoff"
	"parma/internal/parallel"
)

// TestHeterogeneousWeightingWins: on a heterogeneous cluster the weighted
// partition must beat the uniform one by a factor approaching the speed
// ratio (the slow ranks pin the uniform makespan). The pair costs come from
// the analytic term-count model, not from a wall-clock measurement, so the
// simulated makespans — and the verdict — are the same on every run.
func TestHeterogeneousWeightingWins(t *testing.T) {
	p, err := BuildProblem(24, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 40 ns per term is the order MeasureTasks reads at this size.
	const perTerm = 40 * time.Nanosecond
	pairCost := make([]time.Duration, p.Array.Pairs())
	for task := 0; task < len(pairCost)*len(kirchhoff.Categories); task++ {
		pairCost[task/len(kirchhoff.Categories)] += time.Duration(parallel.TaskCost(p, task)) * perTerm
	}
	tbl, err := heteroTable(pairCost, []int{8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("output:\n%s", sb.String())
	}
	cells := strings.Split(lines[1], ",")
	uniform, err := strconv.ParseFloat(cells[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := strconv.ParseFloat(cells[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if weighted >= uniform {
		t.Fatalf("weighted %g not faster than uniform %g", weighted, uniform)
	}
	// With a 4x speed gap, enough work to dwarf the startup floor, and
	// alternating fast/slow ranks, the gain should comfortably exceed 1.6x.
	if uniform/weighted < 1.6 {
		t.Fatalf("gain %g too small (uniform %g, weighted %g)", uniform/weighted, uniform, weighted)
	}
}

func TestHeterogeneousDefaults(t *testing.T) {
	tbl, err := Heterogeneous(HeterogeneousConfig{N: 10, Ranks: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "uniform_s") {
		t.Fatalf("missing header:\n%s", sb.String())
	}
}
