package circuit

import (
	"math"
	"testing"

	"parma/internal/grid"
	"parma/internal/mat"
)

// TestMeasureAllMatchesSerialPairs pins the pooled pair sweep to the serial
// per-pair reference at several pool widths: parallelism must not change a
// single Z entry. The 5,120 pairs of an 80×64 array are two pool chunks.
func TestMeasureAllMatchesSerialPairs(t *testing.T) {
	a := grid.New(80, 64)
	if chunks := mat.Chunks(a.Rows()*a.Cols(), pairFlops); chunks < 2 {
		t.Fatalf("the %d-pair sweep is %d chunk, want at least 2", a.Rows()*a.Cols(), chunks)
	}
	r := grid.UniformField(80, 64, 4000)
	r.Set(2, 3, 12000)
	r.Set(4, 1, 7000)
	s, err := NewSolver(a, r)
	if err != nil {
		t.Fatal(err)
	}
	want := grid.NewFieldFor(a)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			want.Set(i, j, s.EffectiveResistance(i, j))
		}
	}
	for _, workers := range []int{1, 4} {
		prev := mat.Parallelism(workers)
		z, err := MeasureAll(a, r)
		mat.Parallelism(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < a.Cols(); j++ {
				if d := math.Abs(z.At(i, j) - want.At(i, j)); d > 0 {
					t.Fatalf("workers=%d: Z(%d,%d) differs by %g", workers, i, j, d)
				}
			}
		}
	}
}
