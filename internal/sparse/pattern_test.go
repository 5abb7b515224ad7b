package sparse

import (
	"math"
	"math/rand"
	"testing"

	"parma/internal/mat"
)

// randomCSR builds a random rows×cols matrix with about density·rows·cols
// entries through the Builder (so the pattern invariants hold by
// construction).
func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64()+3) // offset avoids accidental zeros
			}
		}
	}
	return b.Build()
}

func TestFromPatternValidates(t *testing.T) {
	ok := FromPattern(2, 3, []int{0, 2, 3}, []int{0, 2, 1})
	if ok.Rows() != 2 || ok.Cols() != 3 || ok.NNZ() != 3 {
		t.Fatalf("shape = %dx%d nnz %d", ok.Rows(), ok.Cols(), ok.NNZ())
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("non-monotone rowPtr", func() { FromPattern(2, 3, []int{0, 2, 1}, []int{0, 1}) })
	mustPanic("unsorted columns", func() { FromPattern(1, 3, []int{0, 2}, []int{2, 1}) })
	mustPanic("duplicate column", func() { FromPattern(1, 3, []int{0, 2}, []int{1, 1}) })
	mustPanic("column out of range", func() { FromPattern(1, 2, []int{0, 1}, []int{2}) })
	mustPanic("short rowPtr", func() { FromPattern(2, 2, []int{0, 1}, []int{0}) })
}

// TestTransposePlanGather pins the transpose-refresh contract: t's pattern
// is the transpose, and after Gather(t.Values(), m.Values(), perm) the
// numeric values agree entry-for-entry — the O(nnz) refresh the solver runs
// per iteration.
func TestTransposePlanGather(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := randomCSR(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.4)
		tr, perm := m.TransposePlan()
		if tr.Rows() != m.Cols() || tr.Cols() != m.Rows() || tr.NNZ() != m.NNZ() {
			t.Fatalf("transpose shape %dx%d nnz %d", tr.Rows(), tr.Cols(), tr.NNZ())
		}
		Gather(tr.Values(), m.Values(), perm)
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if m.At(i, j) != tr.At(j, i) {
					t.Fatalf("trial %d: m(%d,%d)=%g but t(%d,%d)=%g",
						trial, i, j, m.At(i, j), j, i, tr.At(j, i))
				}
			}
		}
		// Transpose rows must keep sorted columns like every CSR.
		for i := 0; i < tr.Rows(); i++ {
			cols, _ := tr.RowVals(i)
			for k := 1; k < len(cols); k++ {
				if cols[k-1] >= cols[k] {
					t.Fatalf("transpose row %d columns unsorted: %v", i, cols)
				}
			}
		}
	}
}

// TestNormalInto checks the pattern-restricted JᵀJ: every slot of the
// target pattern must equal the exact dense (JᵀJ)[i][j], with entries
// outside the pattern simply absent (that is the "incomplete" in the
// preconditioner, not an error).
func TestNormalInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	jt := randomCSR(rng, 9, 9, 0.5) // Jᵀ: rows are unknowns
	j, perm := jt.TransposePlan()
	Gather(j.Values(), jt.Values(), perm)

	// Target pattern: a symmetric subset (here: the full square pattern of
	// JᵀJ would be dense, use jt's own pattern ∪ its transpose's diagonal).
	b := NewBuilder(9, 9)
	for i := 0; i < 9; i++ {
		b.Add(i, i, 1)
		cols, _ := jt.RowVals(i)
		for _, c := range cols {
			b.Add(i, c, 1)
			b.Add(c, i, 1)
		}
	}
	pat := b.Build()
	dst := FromPattern(9, 9, pat.rowPtr, pat.colIdx)
	NormalInto(dst, jt)

	dense := j.Dense()
	for i := 0; i < 9; i++ {
		cols, vals := dst.RowVals(i)
		for k, c := range cols {
			var want float64
			for r := 0; r < 9; r++ {
				want += dense.At(r, i) * dense.At(r, c)
			}
			if math.Abs(vals[k]-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("normal(%d,%d) = %g, want %g", i, c, vals[k], want)
			}
		}
	}
}

func TestGatherParallelMatches(t *testing.T) {
	const n = 300000 // three pool chunks of one-flop copies
	if chunks := mat.Chunks(n, 1); chunks < 2 {
		t.Fatalf("a %d-entry gather is %d chunk, want at least 2", n, chunks)
	}
	src := make([]float64, n)
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for i := range src {
		src[i] = float64(i)
	}
	for _, workers := range []int{1, 4} {
		prev := mat.Parallelism(workers)
		dst := make([]float64, len(src))
		Gather(dst, src, perm)
		mat.Parallelism(prev)
		for i := range dst {
			if dst[i] != float64(perm[i]) {
				t.Fatalf("workers=%d: dst[%d] = %g, want %g", workers, i, dst[i], float64(perm[i]))
			}
		}
	}
}
