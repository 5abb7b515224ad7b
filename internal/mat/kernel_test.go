package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"parma/internal/obs"
)

// withParallelism runs the test body under a fixed pool width, restoring
// the previous setting afterwards so tests do not leak configuration.
func withParallelism(t *testing.T, n int, body func()) {
	t.Helper()
	prev := Parallelism(n)
	defer Parallelism(prev)
	body()
}

func TestParallelismOverrideRoundTrip(t *testing.T) {
	prev := Parallelism(3)
	defer Parallelism(prev)
	if got := Parallelism(5); got != 3 {
		t.Fatalf("Parallelism returned previous %d, want 3", got)
	}
	if got := Parallelism(prev); got != 5 {
		t.Fatalf("Parallelism returned previous %d, want 5", got)
	}
}

// TestParallelForCovers asserts every index is visited exactly once, for
// serial and parallel widths and for grains that do not divide n. The
// per-index counters also let the race detector prove chunk disjointness.
func TestParallelForCovers(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, grain := range []int{1, 3, 100} {
			withParallelism(t, workers, func() {
				const n = 257
				var visits [n]int32
				ParallelFor(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad chunk [%d,%d)", lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("workers=%d grain=%d: index %d visited %d times", workers, grain, i, v)
					}
				}
			})
		}
	}
	ParallelFor(0, 1, func(lo, hi int) { t.Error("fn called for n=0") })
}

// TestParallelForStaysSilent: parmad always runs with a recorder installed
// and a recovery calls ParallelFor once per SpMV, so the fan-out must open
// no track and no worker span of its own.
func TestParallelForStaysSilent(t *testing.T) {
	rec := obs.NewRecorder()
	obs.Enable(rec)
	defer obs.Disable()
	withParallelism(t, 2, func() {
		var sum atomic.Int64
		for call := 0; call < 200; call++ {
			ParallelFor(64, 8, func(lo, hi int) { sum.Add(int64(hi - lo)) })
		}
		if sum.Load() != 200*64 {
			t.Fatalf("covered %d indices, want %d", sum.Load(), 200*64)
		}
	})
	if got := rec.NewTrack("probe"); got != 0 {
		t.Fatalf("ParallelFor opened %d tracks", got)
	}
	for _, ev := range rec.Events() {
		if ev.Name == "sched/worker" {
			t.Fatalf("ParallelFor recorded a %s span", ev.Name)
		}
	}
}

// TestATAMatchesReference pins the SYRK-style kernel to the serial
// reference Transpose()+Mul() within 1e-12, across shapes and pool widths.
func TestATAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {17, 4}, {25, 33}} {
		a := randomDense(rng, dims[0], dims[1])
		want := a.Transpose().Mul(a)
		for _, workers := range []int{1, 4} {
			withParallelism(t, workers, func() {
				got := a.ATA()
				if !got.ApproxEqual(want, 1e-12) {
					t.Errorf("%dx%d workers=%d: ATA differs from AᵀA reference", dims[0], dims[1], workers)
				}
			})
		}
	}
}

// TestATAIntoOverwritesDirtyDst asserts reuse of a scratch matrix that
// still holds a previous result.
func TestATAIntoOverwritesDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomDense(rng, 9, 6)
	dst := randomDense(rng, 6, 6) // garbage contents
	got := a.ATAInto(dst)
	if got != dst {
		t.Fatal("ATAInto did not return dst")
	}
	if !got.ApproxEqual(a.Transpose().Mul(a), 1e-12) {
		t.Fatal("ATAInto into dirty dst differs from reference")
	}
}

func TestMulParMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomDense(rng, 13, 21)
	b := randomDense(rng, 21, 7)
	want := a.Mul(b)
	for _, workers := range []int{1, 3, 8} {
		withParallelism(t, workers, func() {
			got := a.MulPar(b)
			// Bit-identical: each output row is accumulated in the same
			// order by exactly one worker.
			if !got.ApproxEqual(want, 0) {
				t.Errorf("workers=%d: MulPar differs from Mul", workers)
			}
		})
	}
}

func TestMulTVecMatchesTransposeMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomDense(rng, 11, 6)
	x := NewVector(11)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := a.Transpose().MulVec(x)
	if got := a.MulTVec(x); !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("MulTVec = %v, want %v", got, want)
	}
	dst := NewVector(6)
	dst.Fill(99) // stale contents must be overwritten
	a.MulTVecTo(dst, x)
	if !dst.ApproxEqual(want, 1e-12) {
		t.Fatalf("MulTVecTo = %v, want %v", dst, want)
	}
}

func TestMulVecTo(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := NewVector(2)
	a.MulVecTo(dst, Vector{5, 6})
	if !dst.ApproxEqual(Vector{17, 39}, 1e-15) {
		t.Fatalf("MulVecTo = %v", dst)
	}
}

// spdMatrix builds a well-conditioned SPD matrix AᵀA + n·I.
func spdMatrix(rng *rand.Rand, n int) *Matrix {
	a := randomDense(rng, n, n)
	s := a.Transpose().Mul(a)
	for i := 0; i < n; i++ {
		s.Add(i, i, float64(n))
	}
	return s
}

// TestCholeskySolveMatchesLU pins the SPD fast path to the pivoted-LU
// reference on random well-conditioned systems.
func TestCholeskySolveMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 9, 40} {
		s := spdMatrix(rng, n)
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := Solve(s, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			withParallelism(t, workers, func() {
				got, err := SolveSPD(s, b)
				if err != nil {
					t.Fatalf("n=%d workers=%d: %v", n, workers, err)
				}
				if !got.ApproxEqual(want, 1e-10) {
					t.Errorf("n=%d workers=%d: Cholesky and LU solutions differ", n, workers)
				}
			})
		}
	}
}

// TestCholeskyInPlaceAliasesAndSolveTo covers the allocation-free path the
// recovery loop uses: in-place factorization plus SolveTo, including the
// in-place x==b form.
func TestCholeskyInPlaceAliasesAndSolveTo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := spdMatrix(rng, 12)
	b := NewVector(12)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := Solve(s, b)
	if err != nil {
		t.Fatal(err)
	}
	scratch := s.Clone()
	c, err := CholeskyInPlace(scratch)
	if err != nil {
		t.Fatal(err)
	}
	x := NewVector(12)
	c.SolveTo(x, b)
	if !x.ApproxEqual(want, 1e-10) {
		t.Fatal("SolveTo differs from LU reference")
	}
	inPlace := b.Clone()
	c.SolveTo(inPlace, inPlace)
	if !inPlace.ApproxEqual(want, 1e-10) {
		t.Fatal("aliased SolveTo differs from LU reference")
	}
}

// TestCholeskyInverseMatchesLU pins InverseTo to the pivoted-LU Inverse at
// 1e-12 relative on random SPD matrices and on the matrix the forward model
// inverts: a grounded crossbar Laplacian over the paper's 2,000–11,000 kΩ
// range. The result must be exactly symmetric and must not depend on the
// pool width.
func TestCholeskyInverseMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := map[string]*Matrix{}
	for _, n := range []int{1, 2, 17, 64} {
		cases[fmt.Sprintf("spd%d", n)] = spdMatrix(rng, n)
	}
	// Wires 1..m−1 horizontal, m..m+n−1 vertical, wire 0 the ground.
	const m, n = 9, 14
	lap := NewMatrix(m+n-1, m+n-1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g := 1 / (2000 + 9000*rng.Float64())
			v := m + j - 1
			lap.Add(v, v, g)
			if i > 0 {
				lap.Add(i-1, i-1, g)
				lap.Add(i-1, v, -g)
				lap.Add(v, i-1, -g)
			}
		}
	}
	cases["laplacian"] = lap
	for name, a := range cases {
		want, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		scale := 0.0
		for _, v := range want.data {
			scale = math.Max(scale, math.Abs(v))
		}
		var first *Matrix
		for _, workers := range []int{1, 4} {
			withParallelism(t, workers, func() {
				c, err := NewCholesky(a)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := NewMatrix(a.Rows(), a.Rows())
				for i := range got.data {
					got.data[i] = math.NaN() // dst may hold garbage
				}
				c.InverseTo(got)
				if !got.ApproxEqual(want, 1e-12*scale) {
					t.Errorf("%s workers=%d: Cholesky inverse differs from LU inverse", name, workers)
				}
				if !got.ApproxEqual(got.Transpose(), 0) {
					t.Errorf("%s workers=%d: inverse is not exactly symmetric", name, workers)
				}
				if first == nil {
					first = got
				} else if !got.ApproxEqual(first, 0) {
					t.Errorf("%s: inverse depends on the pool width", name)
				}
			})
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3 and -1
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	// NewCholesky must leave its argument untouched even on breakdown.
	if !a.ApproxEqual(FromRows([][]float64{{1, 2}, {2, 1}}), 0) {
		t.Fatal("NewCholesky modified its input")
	}
}

func TestCopyFrom(t *testing.T) {
	src := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := NewMatrix(2, 2)
	dst.CopyFrom(src)
	if !dst.ApproxEqual(src, 0) {
		t.Fatal("CopyFrom mismatch")
	}
	dst.Set(0, 0, 9)
	if src.At(0, 0) != 1 {
		t.Fatal("CopyFrom aliased the source")
	}
}
