package kirchhoff

import "testing"

// TestEquationAtWarmBufferAllocatesNothing: once the buffer has room for
// the longest equation, forming any equation into it allocates nothing.
func TestEquationAtWarmBufferAllocatesNothing(t *testing.T) {
	p, _ := testProblem(t, 4, 6, 41)
	total := SystemCensus(p.Array).Equations
	buf := p.EquationAt(0, nil).Terms
	allocs := testing.AllocsPerRun(20, func() {
		for idx := 0; idx < total; idx++ {
			buf = p.EquationAt(idx, buf).Terms
		}
	})
	if allocs != 0 {
		t.Fatalf("warm EquationAt over %d equations made %.1f allocations, want 0", total, allocs)
	}
}

// TestFormPairAllocatesOneBuffer: a whole pair block shares one term
// buffer, so a call allocates at most once however many equations it has.
func TestFormPairAllocatesOneBuffer(t *testing.T) {
	p, _ := testProblem(t, 5, 7, 42)
	terms := 0
	emit := func(e Equation) { terms += len(e.Terms) }
	allocs := testing.AllocsPerRun(50, func() { p.FormPair(3, 2, emit) })
	if allocs > 1 {
		t.Fatalf("FormPair made %.1f allocations per call, want ≤ 1", allocs)
	}
	if terms == 0 {
		t.Fatal("FormPair emitted no terms")
	}
}

// TestFormAllOwnsTerms: FormAll keeps every equation, so each must own its
// Terms. A retained equation sharing the pair buffer would render as the
// pair's last equation instead of itself.
func TestFormAllOwnsTerms(t *testing.T) {
	p, _ := testProblem(t, 5, 4, 43)
	eqs := p.FormAll()
	for idx, e := range eqs {
		if got, want := e.String(), p.EquationAt(idx, nil).String(); got != want {
			t.Fatalf("FormAll slot %d:\n%s\nfresh EquationAt renders\n%s", idx, got, want)
		}
	}
}

// TestAppendEquationMatchesString: the serializer and String render the
// same line, and AppendEquation only appends.
func TestAppendEquationMatchesString(t *testing.T) {
	p, _ := testProblem(t, 3, 4, 44)
	prefix := []byte("# kept\n")
	for idx := 0; idx < SystemCensus(p.Array).Equations; idx++ {
		e := p.EquationAt(idx, nil)
		b := AppendEquation(append([]byte(nil), prefix...), e)
		if got, want := string(b), string(prefix)+e.String()+"\n"; got != want {
			t.Fatalf("equation %d:\n%q\nwant\n%q", idx, got, want)
		}
	}
}
