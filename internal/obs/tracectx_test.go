package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	wire := tc.Traceparent()
	if len(wire) != 55 || !strings.HasPrefix(wire, "00-") {
		t.Fatalf("malformed traceparent %q", wire)
	}
	got, err := ParseTraceparent(wire)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", wire, err)
	}
	if got != tc {
		t.Fatalf("round trip mismatch: %+v != %+v", got, tc)
	}
}

func TestParseTraceparentRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-abc",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // wrong version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
		"00-0af7651916cd43dd8448eb211c80319x-b7ad6b7169203331-01", // non-hex
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted garbage", bad)
		}
	}
}

func TestStartSpanCtxParentsChildren(t *testing.T) {
	r := NewRecorder()
	Enable(r)
	defer Disable()

	ctx, root := StartSpanCtx(context.Background(), "req")
	if root.Trace().IsZero() || root.ID().IsZero() {
		t.Fatal("root span has no trace identity")
	}
	ctx2, child := StartSpanCtx(ctx, "stage")
	if child.Trace() != root.Trace() {
		t.Fatalf("child trace %s != root trace %s", child.Trace(), root.Trace())
	}
	sib1 := StartSpanIn(ctx2, "leaf1")
	sib2 := StartSpanIn(ctx2, "leaf2")
	sib1.End()
	sib2.End()
	child.End()
	root.End()

	byName := map[string]Event{}
	for _, ev := range r.Events() {
		byName[ev.Name] = ev
	}
	if got := byName["stage"].Parent; got != root.ID() {
		t.Fatalf("stage parent %s, want root %s", got, root.ID())
	}
	for _, leaf := range []string{"leaf1", "leaf2"} {
		if got := byName[leaf].Parent; got != child.ID() {
			t.Fatalf("%s parent %s, want stage %s", leaf, got, child.ID())
		}
	}
	if byName["req"].Parent != (SpanID{}) {
		t.Fatalf("root span should have no parent, got %s", byName["req"].Parent)
	}
}

func TestStartOnTracedAdoptsRemoteContext(t *testing.T) {
	r := NewRecorder()
	Enable(r)
	defer Disable()

	origin := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	track := NewTrack("rank 3")
	sp := StartOnTraced(track, "mpi/bcast", origin.Trace, origin.Span)
	sp.End()

	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].Trace != origin.Trace || evs[0].Parent != origin.Span {
		t.Fatalf("remote span not parented to origin: %+v", evs[0])
	}
	if evs[0].Track != track {
		t.Fatalf("span lost its track: %d != %d", evs[0].Track, track)
	}
}

func TestContextWithTraceIgnoresZero(t *testing.T) {
	ctx := context.Background()
	if got := ContextWithTrace(ctx, TraceContext{}); got != ctx {
		t.Fatal("zero trace context should not derive a new context")
	}
	if _, ok := TraceFromContext(ctx); ok {
		t.Fatal("background context should carry no trace")
	}
}

// The ctx-aware entry points must stay free when recording is disabled:
// they sit on the serve hot path for every request.
func TestDisabledCtxSpansDoNotAllocate(t *testing.T) {
	Disable()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		ctx2, sp := StartSpanCtx(ctx, "serve/http/recover")
		sp.End()
		sp2 := StartSpanIn(ctx2, "serve/queue")
		sp2.End(I("n", 1))
		StartOnTraced(AnonTrack, "mpi/bcast", TraceID{}, SpanID{}).End()
	})
	if allocs != 0 {
		t.Fatalf("disabled ctx span path allocates %.1f times per op, want 0", allocs)
	}
}

// TestSpanBufferRingBound: the ring cap bounds the event buffer, every
// overwrite counts as dropped, and the rollups still count every span
// sent, overwritten ones included.
func TestSpanBufferRingBound(t *testing.T) {
	r := NewRecorder()
	const ringCap = eventShards * 4 // 4 events per shard
	r.SetSpanCap(ringCap)
	Enable(r)
	defer Disable()

	const total = 10 * ringCap
	for i := 0; i < total; i++ {
		StartSpan("ring").End()
	}
	if n := r.EventCount(); n > ringCap {
		t.Fatalf("buffer holds %d events, cap is %d", n, ringCap)
	}
	dropped := r.Registry().Counter("obs/spans_dropped").Value()
	if want := int64(total - r.EventCount()); dropped != want {
		t.Fatalf("dropped %d, want %d (total %d, kept %d)", dropped, want, total, r.EventCount())
	}
	ros := r.Rollups()
	if len(ros) != 1 || ros[0].Name != "ring" || ros[0].Count != total {
		t.Fatalf("Rollups = %+v, want one 'ring' rollup counting all %d spans", ros, total)
	}
}

// TestRingOverwriteKeepsTracesConnected: once the ring overwrites, what
// is left must still form connected request trees. 500 traced requests,
// each a root with three children, go through a ring of 8 events a shard;
// the written trace must pass the distributed validation, which rejects a
// child whose parent was overwritten.
func TestRingOverwriteKeepsTracesConnected(t *testing.T) {
	r := NewRecorder()
	r.SetSpanCap(eventShards * 8)
	Enable(r)
	defer Disable()

	for i := 0; i < 500; i++ {
		ctx, root := StartSpanCtx(context.Background(), "serve/http/recover")
		for _, name := range []string{"serve/queue", "serve/factor", "solver/recover"} {
			StartSpanIn(ctx, name).End()
		}
		root.End()
	}
	if dropped := r.Registry().Counter("obs/spans_dropped").Value(); dropped == 0 {
		t.Fatal("the ring never overwrote; the test exercises nothing")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateDistributedTrace(buf.Bytes()); err != nil {
		t.Fatalf("overwritten ring left a broken trace: %v", err)
	}
}

func TestSetSpanCapUnbounded(t *testing.T) {
	r := NewRecorder()
	r.SetSpanCap(0)
	Enable(r)
	defer Disable()
	for i := 0; i < DefaultSpanCap/16; i++ {
		StartSpan("x").End()
	}
	if d := r.Registry().Counter("obs/spans_dropped").Value(); d != 0 {
		t.Fatalf("unbounded recorder dropped %d spans", d)
	}
}
