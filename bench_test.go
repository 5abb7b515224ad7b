package parma

// Benchmark harness: one benchmark family per evaluation figure of the
// paper, plus ablations of the design choices called out in DESIGN.md.
// Fixed moderate sizes keep `go test -bench=.` tractable on a laptop; the
// cmd/parma-bench tool runs the full-scale sweeps and prints the figure
// series.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"parma/internal/circuit"
	"parma/internal/core"
	"parma/internal/experiments"
	"parma/internal/gf2"
	"parma/internal/grid"
	"parma/internal/hyper"
	"parma/internal/kirchhoff"
	"parma/internal/manifold"
	"parma/internal/mat"
	"parma/internal/mpi"
	"parma/internal/parallel"
	"parma/internal/paths"
	"parma/internal/sched"
	"parma/internal/solver"
	"parma/internal/sparse"
	"parma/internal/topo"
)

func benchProblem(b *testing.B, n int) *kirchhoff.Problem {
	b.Helper()
	p, err := experiments.BuildProblem(n, 42)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- Figure 6: strategy comparison at a fixed size ---

func benchStrategy(b *testing.B, s parallel.Strategy, opts parallel.Options) {
	p := benchProblem(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.Run(p, opts)
		if res.Count == 0 {
			b.Fatal("no equations formed")
		}
	}
}

func BenchmarkFigure6SingleThread(b *testing.B) {
	benchStrategy(b, parallel.Serial{}, parallel.Options{})
}

func BenchmarkFigure6Parallel(b *testing.B) {
	benchStrategy(b, parallel.FourWay{}, parallel.Options{})
}

func BenchmarkFigure6BalancedParallel(b *testing.B) {
	benchStrategy(b, parallel.Balanced{}, parallel.Options{Workers: 4})
}

func BenchmarkFigure6PyMP(b *testing.B) {
	benchStrategy(b, parallel.FineGrained{}, parallel.Options{Workers: 8})
}

// --- Figure 7: PyMP parallelism sweep ---

func BenchmarkFigure7PyMP(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchStrategy(b, parallel.FineGrained{}, parallel.Options{Workers: k})
		})
	}
}

// --- Figure 8: formation with full retention (memory workload) ---

func BenchmarkFigure8CollectedFormation(b *testing.B) {
	p := benchProblem(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := parallel.FineGrained{}.Run(p, parallel.Options{Workers: 4, Collect: true})
		if len(res.Equations) != kirchhoff.SystemCensus(p.Array).Equations {
			b.Fatal("missing equations")
		}
	}
}

// --- Figure 9: end-to-end formation + disk I/O ---

func BenchmarkFigure9WriteSharded(b *testing.B) {
	p := benchProblem(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "parma-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := parallel.WriteSharded(p, dir, 4, sched.Dynamic, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.SetBytes(n)
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// --- Figure 10: distributed formation on the MPI runtime ---

func BenchmarkFigure10MPI(b *testing.B) {
	p := benchProblem(b, 12)
	for _, ranks := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(ranks, mpi.CostModel{})
				errs := w.Run(func(c *mpi.Comm) error {
					_, err := mpi.DistributedFormation(c, p)
					return err
				})
				if err := mpi.FirstError(errs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §II-C: exponential path baseline vs polynomial joint constraints ---

func BenchmarkPathBaseline(b *testing.B) {
	const n = 4 // the exponential wall makes larger sizes pointless
	a := grid.NewSquare(n)
	r := grid.UniformField(n, n, 5000)
	z, err := circuit.MeasureAll(a, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paths.BuildSystem(a, z); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJointFormationSameSize(b *testing.B) {
	p := benchProblem(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel.Serial{}.Run(p, parallel.Options{})
	}
}

// --- §III: homology machinery ---

func BenchmarkBetti(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := grid.NewSquare(n)
			for i := 0; i < b.N; i++ {
				c := topo.FromMEA(a)
				if c.Betti(1) != (n-1)*(n-1) {
					b.Fatal("wrong Betti number")
				}
			}
		})
	}
}

func BenchmarkCycleBasis(b *testing.B) {
	g := grid.NewSquare(32).JointGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if basis := topo.CycleBasis(g); len(basis) != 31*31 {
			b.Fatal("wrong basis size")
		}
	}
}

// --- Recovery ---

func BenchmarkRecover(b *testing.B) {
	const n = 5
	a := grid.NewSquare(n)
	r := grid.UniformField(n, n, 4000)
	r.Set(2, 2, 16000)
	z, err := circuit.MeasureAll(a, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Recover(context.Background(), a, z, solver.RecoverOptions{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 1: chunk policy for the fine-grained strategy ---

func BenchmarkAblationChunking(b *testing.B) {
	policies := map[string]sched.Policy{
		"static": sched.Static, "dynamic": sched.Dynamic, "guided": sched.Guided,
	}
	for name, policy := range policies {
		b.Run(name, func(b *testing.B) {
			benchStrategy(b, parallel.FineGrained{},
				parallel.Options{Workers: 8, Policy: policy, Chunk: 32})
		})
	}
}

// --- Ablation 2: task granularity ---

func BenchmarkAblationGranularity(b *testing.B) {
	b.Run("category", func(b *testing.B) {
		benchStrategy(b, parallel.FourWay{}, parallel.Options{})
	})
	b.Run("pair-category", func(b *testing.B) {
		benchStrategy(b, parallel.Balanced{}, parallel.Options{Workers: 8})
	})
	b.Run("equation", func(b *testing.B) {
		benchStrategy(b, parallel.FineGrained{}, parallel.Options{Workers: 8, Chunk: 1})
	})
}

// --- Ablation 3: deterministic balance vs runtime stealing ---

func BenchmarkAblationBalanceVsStealing(b *testing.B) {
	b.Run("lpt", func(b *testing.B) {
		benchStrategy(b, parallel.Balanced{}, parallel.Options{Workers: 8})
	})
	b.Run("stealing", func(b *testing.B) {
		benchStrategy(b, parallel.Stealing{}, parallel.Options{Workers: 8})
	})
}

// --- Ablation: Betti-guided pair assignment vs round-robin ---

func benchPairPartition(b *testing.B, assign []int, workers int) {
	p := benchProblem(b, 16)
	cols := p.Array.Cols()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sink := uint64(0)
				for pair, owner := range assign {
					if owner != w {
						continue
					}
					p.FormPair(pair/cols, pair%cols, func(e kirchhoff.Equation) {
						sink ^= kirchhoff.Checksum(e)
					})
				}
				if sink == 42 {
					panic("unreachable")
				}
			}(w)
		}
		wg.Wait()
	}
}

func BenchmarkAblationBettiPartition(b *testing.B) {
	const workers = 8
	a := grid.NewSquare(16)
	b.Run("betti-blocks", func(b *testing.B) {
		benchPairPartition(b, core.PairAssignment(a, workers), workers)
	})
	b.Run("round-robin", func(b *testing.B) {
		assign := make([]int, a.Pairs())
		for pair := range assign {
			assign[pair] = pair % workers
		}
		benchPairPartition(b, assign, workers)
	})
}

// --- Ablation 4: bit-packed GF(2) vs naive boolean elimination ---

func naiveBoolRank(m [][]bool) int {
	rows := len(m)
	if rows == 0 {
		return 0
	}
	cols := len(m[0])
	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		pivot := -1
		for r := rank; r < rows; r++ {
			if m[r][col] {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m[rank], m[pivot] = m[pivot], m[rank]
		for r := rank + 1; r < rows; r++ {
			if m[r][col] {
				for k := col; k < cols; k++ {
					m[r][k] = m[r][k] != m[rank][k]
				}
			}
		}
		rank++
	}
	return rank
}

func BenchmarkAblationGF2(b *testing.B) {
	// The boundary matrix ∂₁ of a 24x24 MEA.
	a := grid.NewSquare(24)
	c := topo.FromMEA(a)
	d1 := c.BoundaryMatrix(1)
	b.Run("bitpacked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if gf2.Rank(d1) == 0 {
				b.Fatal("rank 0")
			}
		}
	})
	b.Run("naive-bool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			boolMat := make([][]bool, d1.Rows())
			for r := range boolMat {
				boolMat[r] = make([]bool, d1.Cols())
				for col := 0; col < d1.Cols(); col++ {
					boolMat[r][col] = d1.Get(r, col)
				}
			}
			b.StartTimer()
			if naiveBoolRank(boolMat) == 0 {
				b.Fatal("rank 0")
			}
		}
	})
}

// --- §IV-B: manifold machinery ---

func BenchmarkManifoldStokes(b *testing.B) {
	form := manifold.NewOneForm(128, 128)
	for i := 0; i < 128; i++ {
		for j := 0; j+1 < 128; j++ {
			form.SetH(i, j, float64(i*j%7)-3)
		}
	}
	for i := 0; i+1 < 128; i++ {
		for j := 0; j < 128; j++ {
			form.SetV(i, j, float64((i+j)%5)-2)
		}
	}
	patches := form.SplitPatches(8, 8)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			full := manifold.Patch{I0: 0, I1: 127, J0: 0, J1: 127}
			want := form.Circulation(full)
			for i := 0; i < b.N; i++ {
				got, _ := form.ParallelCurlIntegral(patches, workers)
				if diff := got - want; diff > 1e-6 || diff < -1e-6 {
					b.Fatal("Stokes identity violated")
				}
			}
		})
	}
}

// --- Extensions: classical reconstructions, ANN, SNF, masked, pipeline ---

func BenchmarkClassicalReconstruction(b *testing.B) {
	const n = 6
	a := grid.NewSquare(n)
	r := grid.UniformField(n, n, 5000)
	r.Set(3, 3, 15000)
	z, err := circuit.MeasureAll(a, r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lbp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.LBP(a, z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tikhonov", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Tikhonov(a, z, solver.TikhonovOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("landweber", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Landweber(a, z, solver.LandweberOptions{Iterations: 100}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("levenberg-marquardt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Recover(context.Background(), a, z, solver.RecoverOptions{Tol: 1e-8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSmithNormalForm(b *testing.B) {
	// The oriented ∂₂ of a quotient torus: 32 triangles on 16 vertices.
	c := topo.NewComplex()
	id := func(i, j int) int { return ((i%4+4)%4)*4 + ((j%4 + 4) % 4) }
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c.Add(topo.NewSimplex(id(i, j), id(i+1, j), id(i+1, j+1)))
			c.Add(topo.NewSimplex(id(i, j), id(i, j+1), id(i+1, j+1)))
		}
	}
	d2 := c.IntBoundaryMatrix(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rank := topo.SmithDiagonal(d2); rank == 0 {
			b.Fatal("rank 0")
		}
	}
}

func BenchmarkMaskedMeasurement(b *testing.B) {
	const n = 16
	a := grid.NewSquare(n)
	r := grid.UniformField(n, n, 5000)
	mask := grid.FullMaskFor(a)
	mask.Disable(3, 3)
	mask.DisableWire(false, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.MeasureAllMasked(a, r, mask); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWritePipelined(b *testing.B) {
	p := benchProblem(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := parallel.WritePipelined(p, discard{}, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
	}
}

func BenchmarkHyperLattice(b *testing.B) {
	l := hyper.NewLattice(8, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := l.Graph()
		if g.CyclomaticNumber() != l.CycleRank() {
			b.Fatal("cycle rank mismatch")
		}
	}
}

// --- Substrate microbenches ---

func BenchmarkSparseMulVec(b *testing.B) {
	const n = 256
	bu := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		bu.Add(i, i, 4)
		if i+1 < n {
			bu.Add(i, i+1, -1)
			bu.Add(i+1, i, -1)
		}
	}
	m := bu.Build()
	x := mat.NewVector(n)
	for i := range x {
		x[i] = float64(i)
	}
	y := mat.NewVector(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(y, x)
	}
}

func BenchmarkEquationSerialize(b *testing.B) {
	p := benchProblem(b, 8)
	eqs := p.FormAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := kirchhoff.WriteSystem(discard{}, eqs)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
