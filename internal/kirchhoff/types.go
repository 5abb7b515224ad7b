// Package kirchhoff implements the paper's §IV-A joint-constraint model:
// the lossless conversion of the exponential all-pair-path problem into a
// polynomial system of nonlinear flow equations enforced at joints.
//
// For an m x n array and each wire pair (i, j) the model introduces the
// measured end-to-end voltage U and 2 + (n−1) + (m−1) flow-conservation
// equations over the unknowns R (resistances), Ua (potentials of vertical
// wires other than j), and Ub (potentials of horizontal wires other than i):
//
//	source (at i):  U/Z = U/R_ij + Σ_k (U − Ua_k')/R_ik
//	dest   (at j):  U/Z = U/R_ij + Σ_m Ub_m'/R_mj
//	Ua (wire k≠j):  (U − Ua_k')/R_ik = Σ_m (Ua_k' − Ub_m')/R_mk
//	Ub (wire m≠i):  Ub_m'/R_mj = Σ_k (Ua_k' − Ub_m')/R_mk
//
// Forming this system — and writing it to disk — is the workload the
// paper's evaluation measures; package parallel schedules it.
package kirchhoff

import (
	"fmt"

	"parma/internal/grid"
)

// Category classifies an equation into the paper's four constraint types
// (§IV-A): sources, destinations, and the two intermediate layers.
type Category uint8

const (
	// CatSource is the 1-to-n flow constraint at the source wire i.
	CatSource Category = iota
	// CatDest is the n-to-1 flow constraint at the destination wire j.
	CatDest
	// CatUa is a flow constraint at an intermediate vertical wire (near
	// the source).
	CatUa
	// CatUb is a flow constraint at an intermediate horizontal wire (near
	// the destination).
	CatUb
	numCategories
)

// Categories lists all four constraint categories in canonical order.
var Categories = [...]Category{CatSource, CatDest, CatUa, CatUb}

// String names the category.
func (c Category) String() string {
	switch c {
	case CatSource:
		return "source"
	case CatDest:
		return "dest"
	case CatUa:
		return "ua"
	case CatUb:
		return "ub"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// VoltKind identifies the voltage symbol in a term's numerator.
type VoltKind uint8

const (
	// VoltNone marks an absent numerator slot.
	VoltNone VoltKind = iota
	// VoltU is the measured end-to-end voltage U_ij (a known constant).
	VoltU
	// VoltUa is the unknown potential Ua_ijk' of an intermediate vertical
	// wire.
	VoltUa
	// VoltUb is the unknown potential Ub_ijm' of an intermediate
	// horizontal wire.
	VoltUb
)

// VoltRef names one voltage symbol: U, Ua[idx], or Ub[idx], where idx is
// the paper's primed index (k' or m').
type VoltRef struct {
	Kind VoltKind
	Idx  int32
}

// String renders the reference as the paper writes it.
func (v VoltRef) String() string {
	switch v.Kind {
	case VoltU:
		return "U"
	case VoltUa:
		return fmt.Sprintf("Ua[%d]", v.Idx)
	case VoltUb:
		return fmt.Sprintf("Ub[%d]", v.Idx)
	case VoltNone:
		return "0"
	default:
		return fmt.Sprintf("VoltRef(%d,%d)", v.Kind, v.Idx)
	}
}

// Term is one signed current branch: Sign · (Plus − Minus) / R, where Plus
// and Minus are voltage symbols (Minus may be VoltNone) and R is the
// unknown resistor at (RI, RJ). Every numerator in the paper's equations
// has at most two voltage symbols, so the representation is exact and
// fixed-size.
type Term struct {
	Sign   int8
	Plus   VoltRef
	Minus  VoltRef
	RI, RJ int16
}

// String renders the term.
func (t Term) String() string {
	sign := "+"
	if t.Sign < 0 {
		sign = "-"
	}
	if t.Minus.Kind == VoltNone {
		return fmt.Sprintf("%s %s/R[%d,%d]", sign, t.Plus, t.RI, t.RJ)
	}
	return fmt.Sprintf("%s (%s - %s)/R[%d,%d]", sign, t.Plus, t.Minus, t.RI, t.RJ)
}

// Equation is one flow-conservation constraint: Σ terms = Flow, where Flow
// is the known constant U/Z for source/destination equations and 0 for the
// intermediate layers.
type Equation struct {
	// PairI, PairJ identify the wire pair (i, j).
	PairI, PairJ int
	// Cat is the constraint category; Layer is the primed index k' or m'
	// for CatUa/CatUb (0 otherwise).
	Cat   Category
	Layer int
	// Flow is the known right-hand side.
	Flow float64
	// Terms are the signed current branches on the left-hand side.
	Terms []Term
}

// String renders the equation in the serialization format.
func (e Equation) String() string {
	s := fmt.Sprintf("eq p=(%d,%d) %s[%d]:", e.PairI, e.PairJ, e.Cat, e.Layer)
	for _, t := range e.Terms {
		s += " " + t.String()
	}
	return fmt.Sprintf("%s = %.12g", s, e.Flow)
}

// Census summarizes the size of the joint-constraint system.
type Census struct {
	Pairs            int
	EquationsPerPair int
	Equations        int
	UnknownR         int
	UnknownUa        int
	UnknownUb        int
	Unknowns         int
}

// SystemCensus returns the system size for an array: the paper's 2n³
// equations and (2n−1)·n² unknowns in the square case.
func SystemCensus(a grid.Array) Census {
	m, n := a.Rows(), a.Cols()
	perPair := 2 + (n - 1) + (m - 1)
	pairs := m * n
	return Census{
		Pairs:            pairs,
		EquationsPerPair: perPair,
		Equations:        pairs * perPair,
		UnknownR:         m * n,
		UnknownUa:        pairs * (n - 1),
		UnknownUb:        pairs * (m - 1),
		Unknowns:         m*n + pairs*(n-1) + pairs*(m-1),
	}
}

// TermCensus returns the exact number of terms in the whole-array system:
// per pair, the source equation has n terms, the destination m, each of
// the (n−1) Ua equations has m terms and each of the (m−1) Ub equations n.
// Total work — and retained memory — is Θ(m·n·(m+n)) per the m·n pairs,
// i.e. Θ(n⁴) for square arrays; this is the quantity behind the paper's
// Figure-8 memory curves.
func TermCensus(a grid.Array) int {
	m, n := a.Rows(), a.Cols()
	perPair := n + m + (n-1)*m + (m-1)*n
	return m * n * perPair
}
