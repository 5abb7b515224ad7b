package kirchhoff

import (
	"fmt"
	"slices"
	"strconv"
)

// Text renders a problem's formed system from per-wire term runs, byte for
// byte what AppendEquation writes for each equation EquationAt forms.
//
// Every equation's terms are its own first term plus, for the wire it
// leaves out (skip), the terms through every other wire along one line of
// the array, each carrying that wire's primed index: w' = w before skip and
// w−1 after it. A run renders the terms along one line twice, once with
// prime = w (half a) and once with prime = w−1 (half b). An equation's term
// list is then its own term plus a[:skip] + b[skip+1:] of one run:
//
//	source (i, j)     run of row i over k,       skip j
//	dest (i, j)       run of column j over m,    skip i
//	Ua (i, j) at k    run of (k, k') over m,     skip i
//	Ub (i, j) at m    run of (m, m') over k,     skip j
//
// A Ua line's own term is a term of its source's run, and a Ub line's one
// of its dest's run; the source and dest lines share " + U/R[i,j]", which
// is tabled per pair. So a line is its header, three copies out of the
// tables and its right-hand side.
//
// NewText renders each run once. The tables hold 13·m·n terms in one byte
// slice and one offset slice: 0.72 MB of text and 0.24 MB of offsets at
// 48×48. A Text is read-only once built, so any number of goroutines may
// render from it.
type Text struct {
	p    *Problem
	m, n int
	text []byte // every tabled term's text, back to back
	off  []int  // term x is text[off[x]:off[x+1]]
}

// NewText renders p's term runs. Every term goes through putTerm, or
// Term.String for a term it cannot render, as in AppendEquation.
func NewText(p *Problem) *Text {
	m, n := p.Array.Rows(), p.Array.Cols()
	terms := 13 * m * n
	// The widest term is a Ua or Ub run's " - (Ua[k'] - Ub[m'])/R[i,j]",
	// every index below max(m, n); putTerm wants termMax to spare past the
	// last one.
	width := len(" - (Ua[] - Ub[])/R[,]") + 4*indexLen(max(m, n))
	t := &Text{p: p, m: m, n: n,
		text: make([]byte, 0, terms*width+termMax),
		off:  make([]int, 1, terms+1)}
	for i := range m {
		t.putRun(CatSource, i, 0, n)
	}
	for j := range n {
		t.putRun(CatDest, j, 0, m)
	}
	for k := range n {
		t.putRun(CatUa, k, k, m)
		t.putRun(CatUa, k, k-1, m)
	}
	for mm := range m {
		t.putRun(CatUb, mm, mm, n)
		t.putRun(CatUb, mm, mm-1, n)
	}
	for i := range m {
		for j := range n {
			own := Term{Sign: 1, Plus: VoltRef{Kind: VoltU}, RI: int16(i), RJ: int16(j)}
			t.text = appendTerm(t.text, &own)
			t.off = append(t.off, len(t.text))
		}
	}
	return t
}

// The tables' layout, in terms: m source runs of 2n terms, n dest runs of
// 2m, two Ua runs of 2m per column k (k' = k, then k' = k−1), two Ub runs
// of 2n per row (m' = m, then m' = m−1), and the m·n own terms of the
// source and dest lines.
func (t *Text) srcRun(i int) int    { return 2 * t.n * i }
func (t *Text) dstRun(j int) int    { return 2*t.m*t.n + 2*t.m*j }
func (t *Text) uaRun(k, kp int) int { return 4*t.m*t.n + 2*t.m*(3*k-kp) }
func (t *Text) ubRun(m, mp int) int { return 8*t.m*t.n + 2*t.n*(3*m-mp) }
func (t *Text) ownU(i, j int) int   { return 12*t.m*t.n + t.n*i + j }

// putRun renders one run of w terms per half: the run of category cat
// along wire a, whose own primed index is ap (Ua and Ub runs only). A term
// with a negative primed index is in no equation and is left empty.
func (t *Text) putRun(cat Category, a, ap, w int) {
	for shift := range 2 {
		for x := range w {
			if xp := x - shift; xp >= 0 && ap >= 0 {
				term := runTerm(cat, a, ap, x, xp)
				t.text = appendTerm(t.text, &term)
			}
			t.off = append(t.off, len(t.text))
		}
	}
}

// runTerm is the term of cat's run along wire a (primed ap) through wire x
// (primed xp), as the Form* builders make it.
func runTerm(cat Category, a, ap, x, xp int) Term {
	var t Term
	switch cat {
	case CatSource: // row a: + (U − Ua[x'])/R[a,x]
		t.set(1, VoltRef{Kind: VoltU}, VoltRef{Kind: VoltUa, Idx: int32(xp)}, a, x)
	case CatDest: // column a: + Ub[x']/R[x,a]
		t.set(1, VoltRef{Kind: VoltUb, Idx: int32(xp)}, VoltRef{}, x, a)
	case CatUa: // column a: − (Ua[a'] − Ub[x'])/R[x,a]
		t.set(-1, VoltRef{Kind: VoltUa, Idx: int32(ap)}, VoltRef{Kind: VoltUb, Idx: int32(xp)}, x, a)
	default: // CatUb, row a: − (Ua[x'] − Ub[a'])/R[a,x]
		t.set(-1, VoltRef{Kind: VoltUa, Idx: int32(xp)}, VoltRef{Kind: VoltUb, Idx: int32(ap)}, a, x)
	}
	return t
}

// line is where one equation's text comes from: its header's category and
// layer, the table index of its own term, and the run (first term, w terms
// per half) whose a[:skip] + b[skip+1:] are the rest of its terms.
type line struct {
	cat         Category
	layer       int
	own, run, w int
	skip        int
}

// line locates equation off (0 ≤ off < m+n, in canonical order) of pair
// (i, j).
func (t *Text) line(i, j, off int) line {
	m, n := t.m, t.n
	switch {
	case off == 0:
		return line{cat: CatSource, own: t.ownU(i, j), run: t.srcRun(i), w: n, skip: j}
	case off == 1:
		return line{cat: CatDest, own: t.ownU(i, j), run: t.dstRun(j), w: m, skip: i}
	case off < n+1:
		kp := off - 2
		k := wireIndex(kp, j)
		own := t.srcRun(i) + k
		if k > j {
			own += n
		}
		return line{cat: CatUa, layer: kp, own: own, run: t.uaRun(k, kp), w: m, skip: i}
	default:
		mp := off - n - 1
		mm := wireIndex(mp, i)
		own := t.dstRun(j) + mm
		if mm > i {
			own += m
		}
		return line{cat: CatUb, layer: mp, own: own, run: t.ubRun(mm, mp), w: n, skip: j}
	}
}

// flow is the right-hand side of a line of pair (i, j): U/Z(i,j) for the
// source and dest lines, 0 for the intermediate layers.
func (t *Text) flow(i, j int, l line) float64 {
	if l.cat == CatSource || l.cat == CatDest {
		return t.p.SourceU / t.p.Z.At(i, j)
	}
	return 0
}

// appendLine appends equation off of pair (i, j).
func (t *Text) appendLine(b []byte, i, j, off int) []byte {
	l := t.line(i, j, off)
	b = appendHeader(b, i, j, l.cat, l.layer)
	b = append(b, t.text[t.off[l.own]:t.off[l.own+1]]...)
	b = append(b, t.text[t.off[l.run]:t.off[l.run+l.skip]]...)
	b = append(b, t.text[t.off[l.run+l.w+l.skip+1]:t.off[l.run+2*l.w]]...)
	return appendFlow(b, t.flow(i, j, l))
}

// AppendAt appends canonical equation idx (see EquationIndex), the bytes
// AppendEquation(b, p.EquationAt(idx, nil)) appends.
func (t *Text) AppendAt(b []byte, idx int) []byte {
	perPair := t.m + t.n
	if idx < 0 || idx >= perPair*t.m*t.n {
		panic(fmt.Sprintf("kirchhoff: equation index %d out of range [0,%d)", idx, perPair*t.m*t.n))
	}
	pair := idx / perPair
	return t.appendLine(b, pair/t.n, pair%t.n, idx%perPair)
}

// AppendPair appends every equation of pair index pair (i·n + j), in
// canonical order.
func (t *Text) AppendPair(b []byte, pair int) []byte {
	if pair < 0 || pair >= t.m*t.n {
		panic(fmt.Sprintf("kirchhoff: pair %d out of range [0,%d)", pair, t.m*t.n))
	}
	i, j := pair/t.n, pair%t.n
	for off := range t.m + t.n {
		b = t.appendLine(b, i, j, off)
	}
	return b
}

// MaxPairLen returns the length of the widest pair's text: a buffer of
// that capacity takes any pair's AppendPair without growing.
func (t *Text) MaxPairLen() int {
	return slices.Max(t.pairLens())
}

// pairLens returns len(AppendPair(nil, pair)) for every pair, counted from
// the offsets without rendering. A pair's source and dest lines, and its
// Ua and Ub lines' own terms, take its source and dest runs twice each.
// Its Ua lines take, over the wires k ≠ j, the runs (k, k) before j and
// (k, k−1) after it: sweeping j keeps that sum with one add and one
// subtract. Its Ub lines' runs sweep over i the same way, so the count is
// O(m·n), with one float format per pair.
func (t *Text) pairLens() []int {
	m, n := t.m, t.n
	// The header text every pair has: each line's category and layer.
	layers := len("source") + len("dest") + 2*indexLen(0)
	for kp := range n - 1 {
		layers += len("ua") + indexLen(kp)
	}
	for mp := range m - 1 {
		layers += len("ub") + indexLen(mp)
	}
	// ubAbove[j] and ubBelow[j]: the Ub lines' runs of pair (i, j) from
	// the rows above and below i.
	ubAbove, ubBelow := make([]int, n), make([]int, n)
	for j := range n {
		for mm := 1; mm < m; mm++ {
			ubBelow[j] += t.runLen(t.ubRun(mm, mm-1), n, j)
		}
	}
	lens := make([]int, 0, m*n)
	var scratch [32]byte
	for i := range m {
		if i > 0 {
			for j := range n {
				ubAbove[j] += t.runLen(t.ubRun(i-1, i-1), n, j)
				ubBelow[j] -= t.runLen(t.ubRun(i, i-1), n, j)
			}
		}
		uaLeft, uaRight := 0, 0
		for k := 1; k < n; k++ {
			uaRight += t.runLen(t.uaRun(k, k-1), m, i)
		}
		for j := range n {
			if j > 0 {
				uaLeft += t.runLen(t.uaRun(j-1, j-1), m, i)
				uaRight -= t.runLen(t.uaRun(j, j-1), m, i)
			}
			own := t.ownU(i, j)
			terms := 2*(t.off[own+1]-t.off[own]+t.runLen(t.srcRun(i), n, j)+t.runLen(t.dstRun(j), m, i)) +
				uaLeft + uaRight + ubAbove[j] + ubBelow[j]
			headers := (m+n)*(len("eq p=(,) []:")+indexLen(i)+indexLen(j)) + layers
			flows := 2*len(appendFlow(scratch[:0], t.p.SourceU/t.p.Z.At(i, j))) + (m+n-2)*len(" = 0\n")
			lens = append(lens, headers+terms+flows)
		}
	}
	return lens
}

// runLen is the length of a[:skip] + b[skip+1:] of the run starting at
// term run, w terms per half.
func (t *Text) runLen(run, w, skip int) int {
	return t.off[run+skip] - t.off[run] + t.off[run+2*w] - t.off[run+w+skip+1]
}

// indexLen is the length of appendIndex's text of v.
func indexLen(v int) int {
	if uint(v) < digitLimit {
		return int(digitTable[v] >> 32)
	}
	var s [20]byte
	return len(strconv.AppendInt(s[:0], int64(v), 10))
}
