package sparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"parma/internal/mat"
)

// TestCGOpMatchesCGWith: the matrix-free core and the CSR entry point must
// produce the same solution on the same system.
func TestCGOpMatchesCGWith(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a, _ := randomSPD(rng, 12)
	rhs := mat.NewVector(12)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	var ws1, ws2 Workspace
	x1, err := CGWith(&ws1, a, rhs, CGOptions{Tol: 1e-12, Precondition: true})
	if err != nil {
		t.Fatal(err)
	}
	invDiag := mat.NewVector(12)
	a.DiagonalTo(invDiag)
	InvertDiagonal(invDiag, invDiag)
	x2, stats, err := CGOp(context.Background(), &ws2, (*csrOperator)(a), rhs, Jacobi{InvDiag: invDiag}, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations == 0 || stats.Residual > 1e-12 {
		t.Fatalf("stats = %+v", stats)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("x1[%d] = %g, x2[%d] = %g: same algorithm must be bit-identical", i, x1[i], i, x2[i])
		}
	}
}

// TestCGOpCanceled: a canceled context aborts the iteration, the error
// wraps the context cause, and the best iterate so far is still returned.
func TestCGOpCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, _ := randomSPD(rng, 10)
	rhs := mat.NewVector(10)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ws Workspace
	x, _, err := CGOp(ctx, &ws, (*csrOperator)(a), rhs, nil, CGOptions{Tol: 1e-12})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "CG canceled at iteration") {
		t.Fatalf("err = %v, want the mid-iteration cancellation message", err)
	}
	if x == nil || len(x) != 10 {
		t.Fatalf("best iterate not returned: %v", x)
	}
}

// TestCGOpBreakdown: an indefinite operator must be reported as breakdown,
// not silently iterated on.
func TestCGOpBreakdown(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, -1)
	b.Add(1, 1, -1)
	a := b.Build()
	var ws Workspace
	_, _, err := CGOp(context.Background(), &ws, (*csrOperator)(a), mat.Vector{1, 1}, nil, CGOptions{})
	if err == nil || !strings.Contains(err.Error(), "breakdown") {
		t.Fatalf("err = %v, want breakdown", err)
	}
}

// TestCGOpNoConvergenceReturnsBestIterate: exhausting the budget reports
// ErrNoConvergence with the partial solution and honest stats.
func TestCGOpNoConvergenceReturnsBestIterate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, _ := randomSPD(rng, 20)
	rhs := mat.NewVector(20)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	var ws Workspace
	x, stats, err := CGOp(context.Background(), &ws, (*csrOperator)(a), rhs, nil, CGOptions{Tol: 1e-14, MaxIter: 2})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if stats.Iterations != 2 || stats.Residual <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	var norm float64
	for i := range x {
		norm += x[i] * x[i]
	}
	if norm == 0 || math.IsNaN(norm) {
		t.Fatalf("best iterate unusable: %v", x)
	}
}

// TestCGOpUnreachableTolNoConvergence: a tolerance below float64 round-off
// on an SPD operator CG solves well inside its budget is no breakdown. CG
// stops at cgResidualFloor and reports ErrNoConvergence with a finite
// iterate that solves the system, instead of iterating on its recursive
// residual until that underflows and pᵀAp reads 0 or NaN.
func TestCGOpUnreachableTolNoConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a, _ := randomSPD(rng, 24)
	rhs := mat.NewVector(24)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	var ws Workspace
	x, stats, err := CGOp(context.Background(), &ws, (*csrOperator)(a), rhs, nil, CGOptions{Tol: 1e-300})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if stats.Iterations >= 240 || stats.Residual >= cgResidualFloor {
		t.Fatalf("stats = %+v, want a stop at the residual floor inside the budget", stats)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
	res := a.MulVec(x)
	res.AddScaled(-1, rhs)
	if rel := res.Norm2() / rhs.Norm2(); rel > 1e-12 {
		t.Fatalf("true relative residual %g", rel)
	}
}
