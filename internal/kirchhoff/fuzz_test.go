package kirchhoff

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseEquation hardens the parser: arbitrary input must never panic,
// and anything that parses must re-serialize to something that parses to
// the same equation (idempotent canonical form).
func FuzzParseEquation(f *testing.F) {
	f.Add("eq p=(0,0) source[0]: + U/R[0,0] = 2.5")
	f.Add("eq p=(2,3) ua[1]: + (U - Ua[1])/R[2,0] - (Ua[1] - Ub[0])/R[0,0] = 0")
	f.Add("eq p=(1,1) dest[0]: + U/R[1,1] + Ub[0]/R[0,1] = 0.3")
	f.Add("eq p=(1,1) ub[0]: + Ub[0]/R[0,1] - (Ua[0] - Ub[0])/R[0,0] = 0")
	f.Add("")
	f.Add("# comment only")
	f.Add("eq p=(")
	f.Add("eq p=(0,0) mystery[0]: = 1")
	f.Fuzz(func(t *testing.T, line string) {
		eqs, err := ParseSystem(strings.NewReader(line + "\n"))
		if err != nil || len(eqs) == 0 {
			return // rejected input is fine; panics are not
		}
		// Round-trip: serialize and re-parse.
		var sb strings.Builder
		if _, err := WriteSystem(&sb, eqs); err != nil {
			t.Fatalf("serialize parsed input: %v", err)
		}
		again, err := ParseSystem(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-parse own output %q: %v", sb.String(), err)
		}
		if len(again) != len(eqs) {
			t.Fatalf("round trip changed count: %d -> %d", len(eqs), len(again))
		}
		for i := range eqs {
			if eqs[i].String() != again[i].String() {
				t.Fatalf("round trip changed equation:\n%s\n%s", eqs[i], again[i])
			}
		}
	})
}

// FuzzAppendEquation checks the serializer against the reference rendering
// over arbitrary field values: e.String() plus a newline, after the prefix
// the caller's slice already held. One equation carries two terms, so both
// the table path and its fallback, and a switch between them, are reached.
func FuzzAppendEquation(f *testing.F) {
	f.Add(2, 3, uint8(CatUa), 1, 0.0, int8(-1), uint8(VoltUa), int32(1), uint8(VoltUb), int32(0), int16(0), int16(0), uint8(VoltU), int32(0), int16(2), int16(0))
	f.Add(9999, 10000, uint8(CatSource), 9999, 2.5, int8(1), uint8(VoltUa), int32(9999), uint8(VoltUb), int32(9999), int16(9999), int16(9999), uint8(VoltUa), int32(10000), int16(10000), int16(9999))
	f.Add(-1, -10000, uint8(CatDest), -9999, -0.0, int8(0), uint8(VoltUb), int32(-1), uint8(VoltNone), int32(-1), int16(-1), int16(-9999), uint8(VoltNone), int32(0), int16(0), int16(-1))
	f.Add(math.MaxInt, math.MinInt, uint8(CatUb), math.MaxInt, math.Inf(-1), int8(math.MinInt8), uint8(VoltUa), int32(math.MaxInt32), uint8(VoltUb), int32(math.MinInt32), int16(math.MaxInt16), int16(math.MinInt16), uint8(VoltUa), int32(math.MinInt32), int16(math.MinInt16), int16(math.MaxInt16))
	f.Add(0, 0, uint8(9), 0, math.NaN(), int8(math.MaxInt8), uint8(VoltUa), int32(0), uint8(7), int32(0), int16(0), int16(0), uint8(VoltUb), int32(10000), int16(0), int16(0))
	f.Fuzz(func(t *testing.T, pi, pj int, cat uint8, layer int, flow float64,
		sign int8, plusKind uint8, plusIdx int32, minusKind uint8, minusIdx int32, ri, rj int16,
		kind2 uint8, idx2 int32, ri2, rj2 int16) {
		e := Equation{
			PairI: pi, PairJ: pj, Cat: Category(cat), Layer: layer, Flow: flow,
			Terms: []Term{
				{
					Sign:  sign,
					Plus:  VoltRef{Kind: VoltKind(plusKind), Idx: plusIdx},
					Minus: VoltRef{Kind: VoltKind(minusKind), Idx: minusIdx},
					RI:    ri, RJ: rj,
				},
				{
					Sign: -sign,
					Plus: VoltRef{Kind: VoltKind(kind2), Idx: idx2},
					RI:   ri2, RJ: rj2,
				},
			},
		}
		const prefix = "# kept\n"
		got := string(AppendEquation([]byte(prefix), e))
		if want := prefix + e.String() + "\n"; got != want {
			t.Fatalf("AppendEquation:\n%q\nwant\n%q", got, want)
		}
		// putTerm must stay inside termMax: a slice with no byte to spare
		// panics on any store past it.
		for _, term := range e.Terms {
			if term.tabled() {
				w := make([]byte, termMax)
				if n := putTerm(w, 0, &term); string(w[:n]) != " "+term.String() {
					t.Fatalf("putTerm wrote %q, want %q", w[:n], " "+term.String())
				}
			}
		}
	})
}

// FuzzTextMatchesAppendEquation checks Text against AppendEquation over
// arbitrary array shapes up to 40×40 and any equation of each.
func FuzzTextMatchesAppendEquation(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint32(0))
	f.Add(uint8(3), uint8(40), uint32(12345))
	f.Add(uint8(40), uint8(2), uint32(999))
	f.Add(uint8(11), uint8(12), uint32(2874))
	f.Fuzz(func(t *testing.T, m, n uint8, idx uint32) {
		rows, cols := 1+int(m)%40, 1+int(n)%40
		p := syntheticProblem(t, rows, cols)
		eq := int(idx) % SystemCensus(p.Array).Equations
		got := NewText(p).AppendAt(nil, eq)
		if want := AppendEquation(nil, p.EquationAt(eq, nil)); !bytes.Equal(got, want) {
			t.Fatalf("%dx%d equation %d:\n%q\nAppendEquation writes\n%q", rows, cols, eq, got, want)
		}
	})
}
