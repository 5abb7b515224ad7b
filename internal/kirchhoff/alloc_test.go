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
// same line, and AppendEquation only appends. 12×11 has two-digit wire
// and primed indices, 3×4 single-digit ones.
func TestAppendEquationMatchesString(t *testing.T) {
	for _, sz := range [][2]int{{3, 4}, {12, 11}} {
		p, _ := testProblem(t, sz[0], sz[1], 44)
		prefix := []byte("# kept\n")
		for idx := 0; idx < SystemCensus(p.Array).Equations; idx++ {
			e := p.EquationAt(idx, nil)
			b := AppendEquation(append([]byte(nil), prefix...), e)
			if got, want := string(b), string(prefix)+e.String()+"\n"; got != want {
				t.Fatalf("%dx%d equation %d:\n%q\nwant\n%q", sz[0], sz[1], idx, got, want)
			}
		}
	}
}

// TestEquationAtOverwritesDirtyBuffer: the builders fill term slots in
// place, so they must overwrite every field of every slot. A buffer full
// of garbage must form exactly what a fresh one does.
func TestEquationAtOverwritesDirtyBuffer(t *testing.T) {
	garbage := Term{
		Sign:  7,
		Plus:  VoltRef{Kind: 3, Idx: -1},
		Minus: VoltRef{Kind: 3, Idx: -1},
		RI:    -1, RJ: -1,
	}
	for _, sz := range [][2]int{{7, 5}, {12, 11}} {
		p, _ := testProblem(t, sz[0], sz[1], 45)
		buf := make([]Term, max(sz[0], sz[1]))
		for idx := 0; idx < SystemCensus(p.Array).Equations; idx++ {
			for k := range buf {
				buf[k] = garbage
			}
			got, want := p.EquationAt(idx, buf), p.EquationAt(idx, nil)
			if got.String() != want.String() {
				t.Fatalf("%dx%d equation %d from a dirty buffer:\n%s\nfresh:\n%s", sz[0], sz[1], idx, got, want)
			}
			if h, hw := Checksum(got), Checksum(want); h != hw {
				t.Fatalf("%dx%d equation %d: checksum %x from a dirty buffer, %x fresh", sz[0], sz[1], idx, h, hw)
			}
			// String prints any non-negative Sign as "+": check the value.
			for k := range want.Terms {
				if got.Terms[k].Sign != want.Terms[k].Sign {
					t.Fatalf("%dx%d equation %d term %d: Sign %d from a dirty buffer, %d fresh",
						sz[0], sz[1], idx, k, got.Terms[k].Sign, want.Terms[k].Sign)
				}
			}
		}
	}
}

// TestAppendEquationKeepsPairBlocksInPlace: AppendEquation reserves room
// for a line's terms before writing them, and that reservation must not
// outgrow the line by much. A buffer sized at pair 0's text plus a quarter
// must take every pair's block without being regrown.
func TestAppendEquationKeepsPairBlocksInPlace(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {2, 3}, {3, 5}, {8, 8}, {12, 11}} {
		m, n := sz[0], sz[1]
		p := syntheticProblem(t, m, n)
		block := func(pair int, data []byte) []byte {
			p.FormPair(pair/n, pair%n, func(e Equation) { data = AppendEquation(data, e) })
			return data
		}
		size := len(block(0, nil))
		size += size / 4
		for pair := 1; pair < m*n; pair++ {
			if data := block(pair, make([]byte, 0, size)); cap(data) != size {
				t.Fatalf("%dx%d pair %d: block of %d bytes regrown from %d to %d", m, n, pair, len(data), size, cap(data))
			}
		}
	}
}
