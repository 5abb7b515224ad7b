// The race detector checks nothing in these serial pins and multiplies
// their 0.6 s by about 18; CI's race steps would run them six times.
//
//go:build !race

package parallel

import (
	"testing"

	"parma/internal/grid"
	"parma/internal/kirchhoff"
)

// integerProblem builds an n×n problem whose measured Z is integer-valued,
// so each source and destination Flow = U/Z is one correctly rounded
// division and the system is bit-identical on every architecture.
func integerProblem(tb testing.TB, n int) *kirchhoff.Problem {
	tb.Helper()
	z := grid.NewField(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			z.Set(i, j, float64(1000+37*i+11*j))
		}
	}
	p, err := kirchhoff.NewProblem(grid.NewSquare(n), z, 5.0)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestFormationPinned pins what form-64 checks at its two sizes: Serial's
// count and digest of a 64×64 system, and the bytes WritePipelined writes
// for a 48×48 one. Every strategy is held to Serial elsewhere, so these
// pins catch a change to the system itself, to kirchhoff.Checksum or to the
// text format. A change that moves one edits the constant and gives old →
// new in CHANGES.md.
func TestFormationPinned(t *testing.T) {
	const (
		wantCount = 2 * 64 * 64 * 64
		wantHash  = 0xab93dc179323e0bf
		wantBytes = 300970754
	)
	ref := Serial{}.Run(integerProblem(t, 64), Options{})
	if ref.Count != wantCount || ref.Hash != wantHash {
		t.Errorf("64×64: Serial formed %d equations with digest %#x, want %d and %#x", ref.Count, ref.Hash, wantCount, uint64(wantHash))
	}
	n, err := WritePipelined(integerProblem(t, 48), discard{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != wantBytes {
		t.Errorf("48×48: WritePipelined wrote %d bytes, want %d", n, wantBytes)
	}
}
