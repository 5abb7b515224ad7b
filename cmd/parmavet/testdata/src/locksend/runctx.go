package locksend

import (
	"context"

	"parma/internal/mpi"
)

// runCtxUnderLock: World.RunCtx waits for every rank, as World.Run does.
func runCtxUnderLock(ctx context.Context, w *mpi.World, s *shared, fn func(context.Context, *mpi.Comm) error) []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return w.RunCtx(ctx, fn) // want "World.RunCtx may block while s.mu is held"
}
