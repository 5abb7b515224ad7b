package mpi

import (
	"fmt"
	"time"

	"parma/internal/kirchhoff"
	"parma/internal/obs"
	"parma/internal/sched"
)

// FormationResult summarizes one rank's share of a distributed formation.
type FormationResult struct {
	// LocalEquations is the number of equations this rank formed.
	LocalEquations int
	// TotalEquations is the world-wide count (valid on every rank).
	TotalEquations int
	// LocalHash is an order-independent digest of this rank's equations.
	LocalHash uint64
}

// DistributedFormation is the Figure-10 workload: SPMD joint-constraint
// formation across the world. The pair space is split statically by rank
// (the paper's MPI deployment), each rank forms its block — with the real
// elapsed time charged to its simulated clock — and equation counts are
// summed with an allreduce.
func DistributedFormation(c *Comm, p *kirchhoff.Problem) (FormationResult, error) {
	var res FormationResult
	if err := c.Barrier(); err != nil {
		return res, fmt.Errorf("mpi: formation start barrier: %w", err)
	}

	pairs := p.Array.Pairs()
	r := sched.StaticRanges(pairs, c.Size())[c.Rank()]
	cols := p.Array.Cols()

	sp := c.span("mpi/formation")
	start := time.Now()
	hash := uint64(0)
	count := 0
	for pair := r.Lo; pair < r.Hi; pair++ {
		p.FormPair(pair/cols, pair%cols, func(e kirchhoff.Equation) {
			hash ^= kirchhoff.Checksum(e)
			count++
		})
	}
	c.ChargeCompute(time.Since(start))
	sp.End(obs.I("rank", c.Rank()), obs.I("pairs", r.Hi-r.Lo), obs.I("equations", count))
	res.LocalEquations = count
	res.LocalHash = hash

	total, err := c.AllreduceSum([]float64{float64(count)})
	if err != nil {
		return res, fmt.Errorf("mpi: formation allreduce: %w", err)
	}
	res.TotalEquations = int(total[0])
	return res, nil
}
