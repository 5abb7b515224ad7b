package solver

import (
	"context"
	"errors"
	"testing"

	"parma/internal/circuit"
	"parma/internal/grid"
)

// TestRecoverCanceled pins the cancellation contract: an already-cancelled
// context aborts before the first LM iteration, the error wraps both
// ErrCanceled and the context cause, and the result still carries a usable
// (strictly positive) partial iterate.
func TestRecoverCanceled(t *testing.T) {
	a := grid.NewSquare(6)
	truth := grid.UniformField(6, 6, 4000)
	truth.Set(2, 2, 9000) // non-uniform: the closed-form guess cannot converge at iteration zero
	z, err := circuit.MeasureAll(a, truth)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Recover(ctx, a, z, RecoverOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
	if res.R == nil || res.R.Min() <= 0 {
		t.Fatalf("cancelled recovery must still return the best iterate, got %v", res.R)
	}
}

// TestRecoverContextCompletes ensures a live context does not disturb a
// normal recovery.
func TestRecoverContextCompletes(t *testing.T) {
	a := grid.NewSquare(4)
	truth := grid.UniformField(4, 4, 3000)
	z, err := circuit.MeasureAll(a, truth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(context.Background(), a, z, RecoverOptions{Tol: 1e-9})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.R.MaxAbsDiff(truth) > 1e-4 {
		t.Fatalf("recovered field off by %g", res.R.MaxAbsDiff(truth))
	}
}
