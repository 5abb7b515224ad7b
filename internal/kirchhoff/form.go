package kirchhoff

import (
	"fmt"
	"slices"

	"parma/internal/grid"
	"parma/internal/obs"
)

// Span and counter names emitted during formation. Counters accumulate per
// pair (not per equation) so the enabled-path overhead stays amortized.
const (
	spanFormPair     = "formation/pair"
	spanFormCategory = "formation/category"
	ctrEquations     = "kirchhoff/equations_formed"
	ctrPairs         = "kirchhoff/pairs_formed"
)

// Problem bundles everything equation formation needs: the array geometry,
// the measured Z matrix, and the source voltage applied per pair.
type Problem struct {
	Array grid.Array
	Z     *grid.Field
	// SourceU is the applied end-to-end voltage (the paper uses 5 V).
	SourceU float64
}

// NewProblem validates and constructs a formation problem.
func NewProblem(a grid.Array, z *grid.Field, sourceU float64) (*Problem, error) {
	if z.Rows() != a.Rows() || z.Cols() != a.Cols() {
		return nil, fmt.Errorf("kirchhoff: Z is %dx%d but array is %dx%d",
			z.Rows(), z.Cols(), a.Rows(), a.Cols())
	}
	if sourceU <= 0 {
		return nil, fmt.Errorf("kirchhoff: source voltage %g must be positive", sourceU)
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if z.At(i, j) <= 0 {
				return nil, fmt.Errorf("kirchhoff: measured Z(%d,%d) = %g must be positive", i, j, z.At(i, j))
			}
		}
	}
	return &Problem{Array: a, Z: z, SourceU: sourceU}, nil
}

// primeIndex maps a wire index to the paper's primed index: k' = k when
// k < skip and k−1 when k > skip (0-based).
func primeIndex(k, skip int) int {
	if k < skip {
		return k
	}
	return k - 1
}

// wireIndex is primeIndex's inverse: the wire whose primed index is kp.
func wireIndex(kp, skip int) int {
	if kp < skip {
		return kp
	}
	return kp + 1
}

// termBuf returns buf resliced to n terms when it has room for them, else
// a fresh slice of n terms. Every builder fills the slots as one template
// over a primed index: slot 0 holds the equation's own branch, and slot
// 1+k' the branch through wire wireIndex(k', skip), where skip is the wire
// the equation leaves out. It writes every field of every slot, so
// whatever buf held before is overwritten.
func termBuf(buf []Term, n int) []Term {
	if cap(buf) < n {
		return make([]Term, n)
	}
	return buf[:n]
}

// set overwrites every field of the slot. The builders fill slots in place
// through it rather than appending Term literals: a literal is assembled
// in a stack temporary with narrow stores and then copied out with wide
// loads, which stall on store-to-load forwarding once per term.
func (x *Term) set(sign int8, plus, minus VoltRef, ri, rj int) {
	x.Sign = sign
	x.Plus = plus
	x.Minus = minus
	x.RI, x.RJ = int16(ri), int16(rj)
}

// FormSource builds the single source equation of pair (i, j):
//
//	U/R_ij + Σ_{k≠j} (U − Ua_k')/R_ik = U/Z_ij.
//
// Like every Form* builder it writes the terms into buf, reusing its
// backing array when it has room for them, so the result aliases buf.
func (p *Problem) FormSource(i, j int, buf []Term) Equation {
	t := termBuf(buf, p.Array.Cols())
	t[0].set(1, VoltRef{Kind: VoltU}, VoltRef{}, i, j)
	rest := t[1:]
	for kp := range rest {
		rest[kp].set(1, VoltRef{Kind: VoltU}, VoltRef{Kind: VoltUa, Idx: int32(kp)}, i, wireIndex(kp, j))
	}
	return Equation{
		PairI: i, PairJ: j, Cat: CatSource,
		Flow:  p.SourceU / p.Z.At(i, j),
		Terms: t,
	}
}

// FormDest builds the single destination equation of pair (i, j):
//
//	U/R_ij + Σ_{m≠i} Ub_m'/R_mj = U/Z_ij.
func (p *Problem) FormDest(i, j int, buf []Term) Equation {
	t := termBuf(buf, p.Array.Rows())
	t[0].set(1, VoltRef{Kind: VoltU}, VoltRef{}, i, j)
	rest := t[1:]
	for mp := range rest {
		rest[mp].set(1, VoltRef{Kind: VoltUb, Idx: int32(mp)}, VoltRef{}, wireIndex(mp, i), j)
	}
	return Equation{
		PairI: i, PairJ: j, Cat: CatDest,
		Flow:  p.SourceU / p.Z.At(i, j),
		Terms: t,
	}
}

// FormUa builds the intermediate equation at vertical wire k (k ≠ j):
//
//	(U − Ua_k')/R_ik − Σ_{m≠i} (Ua_k' − Ub_m')/R_mk = 0.
func (p *Problem) FormUa(i, j, k int, buf []Term) Equation {
	if k == j {
		panic(fmt.Sprintf("kirchhoff: FormUa at the destination wire k=%d", k))
	}
	kp := primeIndex(k, j)
	ua := VoltRef{Kind: VoltUa, Idx: int32(kp)}
	t := termBuf(buf, p.Array.Rows())
	t[0].set(1, VoltRef{Kind: VoltU}, ua, i, k)
	rest := t[1:]
	for mp := range rest {
		rest[mp].set(-1, ua, VoltRef{Kind: VoltUb, Idx: int32(mp)}, wireIndex(mp, i), k)
	}
	return Equation{PairI: i, PairJ: j, Cat: CatUa, Layer: kp, Terms: t}
}

// FormUb builds the intermediate equation at horizontal wire m (m ≠ i):
//
//	Ub_m'/R_mj − Σ_{k≠j} (Ua_k' − Ub_m')/R_mk = 0.
func (p *Problem) FormUb(i, j, m int, buf []Term) Equation {
	if m == i {
		panic(fmt.Sprintf("kirchhoff: FormUb at the source wire m=%d", m))
	}
	mp := primeIndex(m, i)
	ub := VoltRef{Kind: VoltUb, Idx: int32(mp)}
	t := termBuf(buf, p.Array.Cols())
	t[0].set(1, ub, VoltRef{}, m, j)
	rest := t[1:]
	for kp := range rest {
		rest[kp].set(-1, VoltRef{Kind: VoltUa, Idx: int32(kp)}, ub, m, wireIndex(kp, j))
	}
	return Equation{PairI: i, PairJ: j, Cat: CatUb, Layer: mp, Terms: t}
}

// pairBuf allocates a term buffer that holds the longest equation of any
// pair: source and Ub equations have n terms, dest and Ua equations m.
func (p *Problem) pairBuf() []Term {
	return make([]Term, 0, max(p.Array.Rows(), p.Array.Cols()))
}

// FormPair emits the complete 2 + (n−1) + (m−1) equation block of one pair
// in canonical order: source, dest, Ua layers ascending, Ub layers
// ascending.
//
// Every equation is formed into one term buffer allocated per call, so
// e.Terms is valid only until emit returns: the next equation overwrites
// it. An emit that keeps an equation must copy its Terms (slices.Clone).
func (p *Problem) FormPair(i, j int, emit func(Equation)) {
	sp := obs.StartSpan(spanFormPair)
	buf := p.pairBuf()
	emit(p.FormSource(i, j, buf))
	emit(p.FormDest(i, j, buf))
	for k := 0; k < p.Array.Cols(); k++ {
		if k != j {
			emit(p.FormUa(i, j, k, buf))
		}
	}
	for m := 0; m < p.Array.Rows(); m++ {
		if m != i {
			emit(p.FormUb(i, j, m, buf))
		}
	}
	if sp.Active() {
		obs.Add(ctrPairs, 1)
		obs.Add(ctrEquations, int64(p.Array.Rows()+p.Array.Cols()))
		sp.End(obs.I("i", i), obs.I("j", j))
	}
}

// FormCategory emits every equation of one category for one pair — the
// task granularity of the paper's four-way Parallel strategy. Like
// FormPair it forms into one buffer per call: e.Terms is valid only until
// emit returns.
func (p *Problem) FormCategory(i, j int, cat Category, emit func(Equation)) {
	sp := obs.StartSpan(spanFormCategory)
	if sp.Active() {
		defer func() {
			eqs := 1
			switch cat {
			case CatUa:
				eqs = p.Array.Cols() - 1
			case CatUb:
				eqs = p.Array.Rows() - 1
			}
			obs.Add(ctrEquations, int64(eqs))
			obs.Add("kirchhoff/category_"+cat.String()+"_tasks", 1)
			sp.End(obs.I("i", i), obs.I("j", j), obs.S("category", cat.String()))
		}()
	}
	buf := p.pairBuf()
	switch cat {
	case CatSource:
		emit(p.FormSource(i, j, buf))
	case CatDest:
		emit(p.FormDest(i, j, buf))
	case CatUa:
		for k := 0; k < p.Array.Cols(); k++ {
			if k != j {
				emit(p.FormUa(i, j, k, buf))
			}
		}
	case CatUb:
		for m := 0; m < p.Array.Rows(); m++ {
			if m != i {
				emit(p.FormUb(i, j, m, buf))
			}
		}
	default:
		panic(fmt.Sprintf("kirchhoff: unknown category %v", cat))
	}
}

// EquationIndex returns the canonical dense index of an equation within the
// whole-array system, so concurrent strategies can write results into
// disjoint slots and produce bit-identical systems.
func (p *Problem) EquationIndex(e Equation) int {
	m, n := p.Array.Rows(), p.Array.Cols()
	perPair := 2 + (n - 1) + (m - 1)
	base := (e.PairI*n + e.PairJ) * perPair
	switch e.Cat {
	case CatSource:
		return base
	case CatDest:
		return base + 1
	case CatUa:
		return base + 2 + e.Layer
	case CatUb:
		return base + 2 + (n - 1) + e.Layer
	default:
		panic(fmt.Sprintf("kirchhoff: unknown category %v", e.Cat))
	}
}

// EquationAt decodes a canonical index (the inverse of EquationIndex) and
// forms that single equation into buf. This is the finest task
// granularity: the fine-grained strategy parallelizes directly over the
// canonical index space, the Go analogue of pushing PyMP into each
// k-dimensional loop.
//
// The terms reuse buf's backing array when it has room for them, so a
// caller that passes the previous result's Terms back in forms without
// allocating, and the previous equation's Terms are overwritten. A nil buf
// allocates a fresh slice that the result owns.
func (p *Problem) EquationAt(idx int, buf []Term) Equation {
	m, n := p.Array.Rows(), p.Array.Cols()
	perPair := 2 + (n - 1) + (m - 1)
	if idx < 0 || idx >= perPair*m*n {
		panic(fmt.Sprintf("kirchhoff: equation index %d out of range [0,%d)", idx, perPair*m*n))
	}
	pair := idx / perPair
	off := idx % perPair
	i, j := pair/n, pair%n
	switch {
	case off == 0:
		return p.FormSource(i, j, buf)
	case off == 1:
		return p.FormDest(i, j, buf)
	case off < 2+(n-1):
		return p.FormUa(i, j, wireIndex(off-2, j), buf)
	default:
		return p.FormUb(i, j, wireIndex(off-2-(n-1), i), buf)
	}
}

// FormAll forms the entire system serially in canonical order — the
// paper's Single-thread baseline. Every returned equation owns its Terms.
func (p *Problem) FormAll() []Equation {
	census := SystemCensus(p.Array)
	out := make([]Equation, 0, census.Equations)
	for i := 0; i < p.Array.Rows(); i++ {
		for j := 0; j < p.Array.Cols(); j++ {
			p.FormPair(i, j, func(e Equation) {
				e.Terms = slices.Clone(e.Terms)
				out = append(out, e)
			})
		}
	}
	return out
}
