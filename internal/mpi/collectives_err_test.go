package mpi

import (
	"errors"
	"testing"

	"parma/internal/obs"
)

// TestCollectivesRecordSpansAndPropagateTypedErrors extends the Barrier
// span-leak regression to every collective: each must record its span even
// on the error path, and the transport's error must reach the caller intact
// (errors.Is matchable).
func TestCollectivesRecordSpansAndPropagateTypedErrors(t *testing.T) {
	cases := []struct {
		span string
		call func(c *Comm) error
	}{
		{"mpi/barrier", func(c *Comm) error { return c.Barrier() }},
		{"mpi/bcast", func(c *Comm) error { _, err := c.Bcast(0, []byte("x")); return err }},
		{"mpi/reduce", func(c *Comm) error { _, err := c.ReduceSum([]float64{1}); return err }},
		{"mpi/allreduce", func(c *Comm) error { _, err := c.AllreduceSum([]float64{1}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.span, func(t *testing.T) {
			rec := obs.NewRecorder()
			obs.Enable(rec)
			defer obs.Disable()

			c := &Comm{rank: 0, size: 2, tr: failTransport{}, track: obs.AnonTrack}
			err := tc.call(c)
			if err == nil {
				t.Fatalf("%s over a dead transport succeeded", tc.span)
			}
			if !errors.Is(err, errTransportDown) {
				t.Fatalf("%s error %v lost its identity; want errors.Is(err, errTransportDown)", tc.span, err)
			}
			var found bool
			for _, ev := range rec.Events() {
				if ev.Name == tc.span {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("failed %s left no span; the error path leaked it", tc.span)
			}
		})
	}
}

// TestCollectiveErrorsNoSpanLeak runs failing collectives back to back on
// one recorder and checks the recorded events are exactly the spans those
// calls start — nested ones included. A leaked span (started, never ended)
// would be missing from the event list; a double-End would add an extra.
func TestCollectiveErrorsNoSpanLeak(t *testing.T) {
	rec := obs.NewRecorder()
	obs.Enable(rec)
	defer obs.Disable()

	c := &Comm{rank: 0, size: 2, tr: failTransport{}, track: obs.AnonTrack}
	_ = c.Barrier()                     // mpi/barrier
	_, _ = c.AllreduceSum([]float64{1}) // mpi/allreduce + nested mpi/reduce
	_, _ = c.Bcast(0, nil)              // mpi/bcast

	want := map[string]int{
		"mpi/barrier": 1, "mpi/allreduce": 1, "mpi/reduce": 1, "mpi/bcast": 1,
	}
	got := map[string]int{}
	for _, ev := range rec.Events() {
		got[ev.Name]++
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("span %s recorded %d times, want %d (leak or double-End)", name, got[name], n)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected span %s recorded on the error path", name)
		}
	}
}
