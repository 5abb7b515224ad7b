package kirchhoff

import (
	"bytes"
	"runtime/debug"
	"testing"
)

// TestTextMatchesAppendEquation: Text renders every equation of the
// system as AppendEquation renders the one EquationAt forms, and only
// appends. m, n ∈ 1..12 reach every shape of run, down to the empty ones
// of a single row or column; 3×101 and 101×3 cross the 9→10 and 99→100
// digit-width steps in the wire, primed and layer indices.
func TestTextMatchesAppendEquation(t *testing.T) {
	sizes := [][2]int{{3, 101}, {101, 3}}
	for m := 1; m <= 12; m++ {
		for n := 1; n <= 12; n++ {
			sizes = append(sizes, [2]int{m, n})
		}
	}
	prefix := []byte("# kept\n")
	for _, sz := range sizes {
		p := syntheticProblem(t, sz[0], sz[1])
		text := NewText(p)
		var got, want []byte
		for idx := range SystemCensus(p.Array).Equations {
			got = text.AppendAt(append(got[:0], prefix...), idx)
			want = AppendEquation(append(want[:0], prefix...), p.EquationAt(idx, nil))
			if !bytes.Equal(got, want) {
				t.Fatalf("%dx%d equation %d:\n%q\nAppendEquation writes\n%q", sz[0], sz[1], idx, got, want)
			}
		}
	}
}

// TestTextPairLen: AppendPair writes a pair's equations in canonical
// order, pairLens counts exactly its bytes, and a buffer of MaxPairLen
// takes every pair without growing.
func TestTextPairLen(t *testing.T) {
	for _, sz := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 3}, {11, 13}, {3, 101}, {101, 3}} {
		p := syntheticProblem(t, sz[0], sz[1])
		text := NewText(p)
		perPair := sz[0] + sz[1]
		lens := text.pairLens()
		size := text.MaxPairLen()
		for pair := range p.Array.Pairs() {
			var want []byte
			for idx := pair * perPair; idx < (pair+1)*perPair; idx++ {
				want = text.AppendAt(want, idx)
			}
			got := text.AppendPair(make([]byte, 0, size), pair)
			if !bytes.Equal(got, want) {
				t.Fatalf("%dx%d pair %d: AppendPair differs from AppendAt over its equations", sz[0], sz[1], pair)
			}
			if cap(got) != size {
				t.Fatalf("%dx%d pair %d: %d bytes outgrew a MaxPairLen buffer of %d", sz[0], sz[1], pair, len(got), size)
			}
			if lens[pair] != len(got) {
				t.Fatalf("%dx%d pair %d: pairLens counts %d bytes, AppendPair wrote %d", sz[0], sz[1], pair, lens[pair], len(got))
			}
		}
	}
}

// TestNewTextAllocations: building the tables allocates the Text and its
// two slices, however large the array. The collector is off while it
// counts: a cycle per megabyte-sized call would add the runtime's own
// allocations to the count.
func TestNewTextAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var want float64
	for _, n := range []int{12, 48} {
		p := syntheticProblem(t, n, n)
		allocs := testing.AllocsPerRun(20, func() { NewText(p) })
		if n == 12 {
			want = allocs
		}
		if allocs != want || allocs > 3 {
			t.Fatalf("%dx%d: NewText made %.0f allocations, want %.0f (at most 3) at every size", n, n, allocs, want)
		}
	}
}
