package kirchhoff

import (
	"math"
	"slices"
	"testing"
)

// TestChecksumSeesEveryField: changing any one field of an equation, or the
// order of two adjacent terms, changes its digest. It runs every mutation
// on every equation of a 12×11 system.
func TestChecksumSeesEveryField(t *testing.T) {
	termEdits := []struct {
		name string
		edit func(*Term)
	}{
		{"Sign", func(t *Term) { t.Sign = -t.Sign }},
		{"RI", func(t *Term) { t.RI++ }},
		{"RJ", func(t *Term) { t.RJ++ }},
		{"Plus.Kind", func(t *Term) { t.Plus.Kind++ }},
		{"Plus.Idx", func(t *Term) { t.Plus.Idx++ }},
		{"Minus.Kind", func(t *Term) { t.Minus.Kind++ }},
		{"Minus.Idx", func(t *Term) { t.Minus.Idx++ }},
	}
	eqEdits := []struct {
		name string
		edit func(*Equation)
	}{
		{"PairI", func(e *Equation) { e.PairI++ }},
		{"PairJ", func(e *Equation) { e.PairJ++ }},
		{"Cat", func(e *Equation) { e.Cat = (e.Cat + 1) % numCategories }},
		{"Layer", func(e *Equation) { e.Layer++ }},
		{"Flow", func(e *Equation) { e.Flow = math.Nextafter(e.Flow, math.Inf(1)) }},
	}

	p, _ := testProblem(t, 12, 11, 47)
	for idx, e := range p.FormAll() {
		h := Checksum(e)
		// check reports a mutation of the header (k < 0) or of term k that
		// left the digest as it was.
		check := func(what string, k int, mutated Equation) {
			if Checksum(mutated) != h {
				return
			}
			if k < 0 {
				t.Fatalf("equation %d (%s): digest unchanged by a change of %s", idx, e, what)
			}
			t.Fatalf("equation %d (%s): digest unchanged by a change of term %d's %s", idx, e, k, what)
		}
		for _, ed := range eqEdits {
			mutated := e
			ed.edit(&mutated)
			check(ed.name, -1, mutated)
		}
		for k := range e.Terms {
			for _, ed := range termEdits {
				mutated := e
				mutated.Terms = slices.Clone(e.Terms)
				ed.edit(&mutated.Terms[k])
				check(ed.name, k, mutated)
			}
			if k+1 < len(e.Terms) {
				mutated := e
				mutated.Terms = slices.Clone(e.Terms)
				mutated.Terms[k], mutated.Terms[k+1] = mutated.Terms[k+1], mutated.Terms[k]
				check("place (swapped with the next term)", k, mutated)
			}
		}
	}
}
