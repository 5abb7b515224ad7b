// Package ctxspan exercises ctxflow's span-start check: starting a span
// with the context-blind obs.StartSpan/obs.StartOn while a context.Context
// parameter is lexically in scope detaches the span from the request trace.
package ctxspan

import (
	"context"

	"parma/internal/obs"
)

// blindWithCtx is the canonical miss: ctx is right there, the span forks
// off the trace anyway.
func blindWithCtx(ctx context.Context) {
	sp := obs.StartSpan("work") // want "obs.StartSpan ignores the in-scope context parameter ctx"
	defer sp.End()
	_ = ctx
}

// blindStartOn covers the track-addressed constructor.
func blindStartOn(ctx context.Context, track int32) {
	sp := obs.StartOn(track, "work") // want "obs.StartOn ignores the in-scope context parameter ctx"
	defer sp.End()
	_ = ctx
}

// contextAware is the sanctioned shape: the span parents to the trace.
func contextAware(ctx context.Context) {
	ctx, sp := obs.StartSpanCtx(ctx, "work")
	defer sp.End()
	inner := obs.StartSpanIn(ctx, "inner")
	inner.End()
}

// noContext has nothing to thread; the blind constructor is the only
// option and stays clean.
func noContext() {
	sp := obs.StartSpan("work")
	defer sp.End()
}

// closureInheritsCtx: the literal has no context parameter of its own, but
// its enclosing function does and the closure can capture it.
func closureInheritsCtx(ctx context.Context) func() {
	return func() {
		sp := obs.StartSpan("work") // want "obs.StartSpan ignores the in-scope context parameter ctx"
		sp.End()
		_ = ctx
	}
}

// literalWithOwnCtx: the nearest context parameter belongs to the literal
// itself.
func literalWithOwnCtx() func(context.Context) {
	return func(ctx context.Context) {
		sp := obs.StartSpan("work") // want "obs.StartSpan ignores the in-scope context parameter ctx"
		sp.End()
		_ = ctx
	}
}

// ignoredCtx: a parameter named _ cannot be threaded from this frame, so
// the blind start is tolerated.
func ignoredCtx(_ context.Context) {
	sp := obs.StartSpan("work")
	defer sp.End()
}

// allowAnnotated documents an intentional detachment: a background janitor
// span that must outlive the request.
func allowAnnotated(ctx context.Context) {
	sp := obs.StartSpan("janitor") //parmavet:allow ctxflow — deliberately outlives the request
	defer sp.End()
	_ = ctx
}
