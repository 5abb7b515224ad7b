package circuit

import (
	"fmt"
	"math"

	"parma/internal/grid"
	"parma/internal/mat"
)

// MaskedSolver measures a defective MEA: resistors masked out contribute
// no conductance, and the wire graph may fall into several electrical
// components. Pairs in different components are unmeasurable and report
// +Inf. Each component is grounded and inverted independently, so a query
// is a lookup in its component's inverse, as in Solver.
//
// Like Solver, a MaskedSolver is immutable after construction and safe for
// concurrent readers: queries only read the per-component inverses.
type MaskedSolver struct {
	arr    grid.Array
	labels []int         // component label per wire node
	invs   []*mat.Matrix // grounded inverse per component; nil for an isolated wire
	index  []int         // wire node -> row index within its component's matrix (-1 for ground)
}

// NewMaskedSolver prepares a solver for the array with the given
// resistance field and mask.
func NewMaskedSolver(a grid.Array, r *grid.Field, mask *grid.Mask) (*MaskedSolver, error) {
	checkField(a, r)
	g := a.MaskedWireGraph(mask)
	labels, count := g.Components()
	n := a.Rows() + a.Cols()

	// Assign per-component row indices, grounding the first node of each.
	index := make([]int, n)
	rows := make([]int, count)
	ground := make([]bool, count)
	for node := 0; node < n; node++ {
		comp := labels[node]
		if !ground[comp] {
			ground[comp] = true
			index[node] = -1
			continue
		}
		index[node] = rows[comp]
		rows[comp]++
	}

	// Assemble per-component grounded Laplacians densely.
	mats := make([]*mat.Matrix, count)
	for comp := range mats {
		mats[comp] = mat.NewMatrix(rows[comp], rows[comp])
	}
	stamp := func(u, v int, gcond float64) {
		comp := labels[u]
		iu, iv := index[u], index[v]
		if iu >= 0 {
			mats[comp].Add(iu, iu, gcond)
		}
		if iv >= 0 {
			mats[comp].Add(iv, iv, gcond)
		}
		if iu >= 0 && iv >= 0 {
			mats[comp].Add(iu, iv, -gcond)
			mats[comp].Add(iv, iu, -gcond)
		}
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if !mask.Active(i, j) {
				continue
			}
			stamp(a.WireVertex(true, i), a.WireVertex(false, j), conductance(r, i, j))
		}
	}

	s := &MaskedSolver{arr: a, labels: labels, index: index, invs: make([]*mat.Matrix, count)}
	for comp := range mats {
		if mats[comp].Rows() == 0 {
			continue // singleton component: an isolated wire
		}
		chol, err := mat.CholeskyInPlace(mats[comp])
		if err != nil {
			return nil, fmt.Errorf("circuit: component %d Laplacian singular: %w", comp, err)
		}
		s.invs[comp] = mat.NewMatrix(mats[comp].Rows(), mats[comp].Rows())
		chol.InverseTo(s.invs[comp])
	}
	return s, nil
}

// EffectiveResistance returns Z between horizontal wire i and vertical
// wire j, or +Inf when the masked device cannot connect them.
func (s *MaskedSolver) EffectiveResistance(i, j int) float64 {
	u := s.arr.WireVertex(true, i)
	v := s.arr.WireVertex(false, j)
	comp := s.labels[u]
	if s.labels[v] != comp || s.invs[comp] == nil {
		return math.Inf(1)
	}
	g := s.invs[comp]
	at := func(a, b int) float64 { // the ground's row and column of the inverse are zero
		if a < 0 || b < 0 {
			return 0
		}
		return g.At(a, b)
	}
	iu, iv := s.index[u], s.index[v]
	return at(iu, iu) + at(iv, iv) - 2*at(iu, iv)
}

// MeasureAllMasked returns the pairwise Z field of a defective device,
// with +Inf marking unmeasurable pairs.
func MeasureAllMasked(a grid.Array, r *grid.Field, mask *grid.Mask) (*grid.Field, error) {
	s, err := NewMaskedSolver(a, r, mask)
	if err != nil {
		return nil, err
	}
	z := grid.NewFieldFor(a)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			z.Set(i, j, s.EffectiveResistance(i, j))
		}
	}
	return z, nil
}
