package mpi

import (
	"math/rand"
	"testing"
	"time"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/kirchhoff"
	"parma/internal/obs"
)

func formationProblem(tb testing.TB, n int, seed int64) *kirchhoff.Problem {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := grid.NewField(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.Set(i, j, 2000+9000*rng.Float64())
		}
	}
	a := grid.NewSquare(n)
	z, err := circuit.MeasureAll(a, r)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := kirchhoff.NewProblem(a, z, 5)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestDistributedFormationCounts(t *testing.T) {
	p := formationProblem(t, 6, 1)
	want := kirchhoff.SystemCensus(p.Array).Equations
	for _, tc := range []struct {
		ranks int
		// observed runs under obs.Enable, where every payload carries the
		// trace envelope; CommStats must still count payload bytes only.
		observed bool
	}{{1, false}, {2, false}, {4, false}, {4, true}, {7, false}, {16, false}, {64, false}} {
		ranks := tc.ranks
		if tc.observed {
			obs.Enable(obs.NewRecorder())
		}
		results := make([]FormationResult, ranks)
		stats := make([]CommStats, ranks)
		w := NewWorld(ranks, CostModel{})
		errs := w.Run(func(c *Comm) error {
			res, err := DistributedFormation(c, p)
			if err != nil {
				return err
			}
			results[c.Rank()] = res
			stats[c.Rank()] = c.Stats()
			return nil
		})
		if tc.observed {
			obs.Disable()
		}
		if err := FirstError(errs); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if ranks == 4 {
			// The benchmark's mpi.msgs and mpi.bytes: a binomial barrier
			// (3 empty messages up, 3 down) plus an allreduce of one
			// float64 (3 up, 3 down, 8 bytes each).
			var msgs, bytes int64
			for _, s := range stats {
				msgs += s.MsgsSent
				bytes += s.BytesSent
			}
			if msgs != 12 || bytes != 48 {
				t.Fatalf("ranks=4 observed=%v: sent %d msgs / %d bytes, want 12 / 48", tc.observed, msgs, bytes)
			}
		}
		sum := 0
		for _, res := range results {
			sum += res.LocalEquations
			if res.TotalEquations != want {
				t.Fatalf("ranks=%d: total %d, want %d", ranks, res.TotalEquations, want)
			}
		}
		if sum != want {
			t.Fatalf("ranks=%d: local sum %d, want %d", ranks, sum, want)
		}
	}
}

// TestDistributedHashMatchesSerial: XOR of per-rank hashes equals the
// serial whole-system hash, proving no equation is lost or duplicated.
func TestDistributedHashMatchesSerial(t *testing.T) {
	p := formationProblem(t, 5, 2)
	refHash := uint64(0)
	for _, e := range p.FormAll() {
		refHash ^= kirchhoff.Checksum(e)
	}
	const ranks = 5
	results := make([]FormationResult, ranks)
	w := NewWorld(ranks, CostModel{})
	errs := w.Run(func(c *Comm) error {
		res, err := DistributedFormation(c, p)
		results[c.Rank()] = res
		return err
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	var got uint64
	for _, res := range results {
		got ^= res.LocalHash
	}
	if got != refHash {
		t.Fatal("distributed hash differs from serial")
	}
}

// TestStartupCostDominatesSmallWorkloads reproduces the Figure-10 qualitative
// claim: with a per-rank startup cost, small problems stop benefiting from
// more ranks while large ones keep scaling.
func TestStartupCostDominatesSmallWorkloads(t *testing.T) {
	model := CostModel{Latency: time.Microsecond, RankStartup: 20 * time.Millisecond}
	small := formationProblem(t, 4, 3)

	makespan := func(p *kirchhoff.Problem, ranks int) float64 {
		w := NewWorld(ranks, model)
		times, errs := w.RunCollect(func(c *Comm) error {
			_, err := DistributedFormation(c, p)
			return err
		})
		if err := FirstError(errs); err != nil {
			t.Fatal(err)
		}
		return times.Makespan()
	}

	small1 := makespan(small, 1)
	small64 := makespan(small, 64)
	// The startup floor (20 ms) dwarfs a 4x4 formation; 64 ranks cannot be
	// meaningfully faster than 1.
	if small64 < small1*0.5 {
		t.Fatalf("small workload sped up 64x ranks: %v -> %v", small1, small64)
	}
	if small64 < 0.020 {
		t.Fatalf("makespan %v below the startup floor", small64)
	}
}
