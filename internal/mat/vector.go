// Package mat provides the dense float64 linear algebra used by the circuit
// forward model and the nonlinear recovery solver: vectors, matrices, LU
// factorization with partial pivoting, linear solves, and least squares.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS: the systems it solves are the 2n x 2n wire Laplacians and the
// modest Newton systems arising from MEA parametrization.
package mat

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dot returns the inner product of v and w. Lengths must match.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// AddScaled sets v = v + alpha*w in place and returns v.
func (v Vector) AddScaled(alpha float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
	return v
}

// Scale multiplies every entry by alpha in place and returns v.
func (v Vector) Scale(alpha float64) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// Norm2 returns the Euclidean norm, guarding against overflow.
func (v Vector) Norm2() float64 {
	var maxAbs float64
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 { // the scaled norm of the exactly-zero vector is zero; guards division below
		return 0
	}
	var s float64
	for _, x := range v {
		r := x / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// NormInf returns the maximum absolute entry.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sub sets v = v - w in place and returns v.
func (v Vector) Sub(w Vector) Vector {
	return v.AddScaled(-1, w)
}

// Fill sets every entry to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// ApproxEqual reports whether v and w agree entrywise within tol.
func (v Vector) ApproxEqual(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}
