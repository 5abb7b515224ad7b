package parallel

import (
	"testing"

	"parma/internal/kirchhoff"
)

// TestFineGrainedFormsWithoutAllocating: every worker forms into its own
// term buffer, so a pass allocates a fixed handful of times however many
// equations it forms.
func TestFineGrainedFormsWithoutAllocating(t *testing.T) {
	p := testProblem(t, 16, 16, 31)
	eqs := kirchhoff.SystemCensus(p.Array).Equations
	allocs := testing.AllocsPerRun(5, func() {
		if r := (FineGrained{}).Run(p, Options{Workers: 2}); r.Count != eqs {
			t.Fatalf("formed %d equations, want %d", r.Count, eqs)
		}
	})
	if allocs >= 64 {
		t.Fatalf("FineGrained made %.0f allocations forming %d equations, want < 64", allocs, eqs)
	}
}

// TestCollectOwnsTerms: a collected equation must not share its worker's
// term buffer. Each slot has to render as a freshly formed equation.
func TestCollectOwnsTerms(t *testing.T) {
	p := testProblem(t, 5, 4, 32)
	for _, s := range All() {
		res := s.Run(p, Options{Workers: 3, Chunk: 2, Collect: true})
		for idx, e := range res.Equations {
			if got, want := e.String(), p.EquationAt(idx, nil).String(); got != want {
				t.Fatalf("%s slot %d:\n%s\nfresh EquationAt renders\n%s", s.Name(), idx, got, want)
			}
		}
	}
}
