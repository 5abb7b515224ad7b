package mpi

import (
	"fmt"
	"sync"
	"time"

	"parma/internal/obs"
)

// World is an in-process communicator group: size ranks sharing a mailbox
// table, each run on its own goroutine.
type World struct {
	size    int
	model   CostModel
	inboxes []*inbox
	speeds  []float64 // per-rank relative compute speed; nil = homogeneous
}

// NewWorld creates a world of the given size with a communication cost
// model (use the zero CostModel to charge nothing).
func NewWorld(size int, model CostModel) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	w := &World{size: size, model: model, inboxes: make([]*inbox, size)}
	for i := range w.inboxes {
		w.inboxes[i] = newInbox()
	}
	return w
}

// SetSpeeds declares per-rank relative compute speeds for a heterogeneous
// cluster (the paper's first future-work item): ChargeCompute on rank r is
// scaled by 1/speeds[r], so a speed-2 rank finishes the same work in half
// the simulated time. All speeds must be positive and the table must have
// one entry per rank; nil restores homogeneity. Invalid input is rejected
// with an error and leaves the previous table untouched.
func (w *World) SetSpeeds(speeds []float64) error {
	if speeds == nil {
		w.speeds = nil
		return nil
	}
	if len(speeds) != w.size {
		return fmt.Errorf("mpi: %d speeds for a world of %d ranks", len(speeds), w.size)
	}
	for r, s := range speeds {
		if s <= 0 || s != s { // non-positive or NaN
			return fmt.Errorf("mpi: invalid speed %g at rank %d (must be positive)", s, r)
		}
	}
	cp := make([]float64, len(speeds))
	copy(cp, speeds)
	w.speeds = cp
	return nil
}

// Speeds returns the per-rank speed table, or nil for homogeneous worlds.
func (w *World) Speeds() []float64 { return w.speeds }

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes fn once per rank on concurrent goroutines and blocks until
// all return. The per-rank error slice is indexed by rank. Comms are valid
// only within fn. When recording is enabled it turns the trace envelope on
// for every rank (all or none, so the strict framing check holds) and opens
// each rank's mpi/rank span around fn, as one trace: rank 0's span is the
// root, opened before any rank starts, and every other rank's is its child.
func (w *World) Run(fn func(c *Comm) error) []error {
	errs := make([]error, w.size)
	comms := make([]*Comm, w.size)
	observed := obs.Enabled()
	spans := make([]obs.Span, w.size)
	for r := range comms {
		c := newComm(&chanTransport{rank: r, inboxes: w.inboxes}, r, w.size, w.model)
		if w.speeds != nil {
			c.speed = w.speeds[r]
		}
		if observed {
			// spans[0] is still zero for rank 0, whose span mints the
			// trace; it seeds every later rank.
			c.track = obs.NewTrack(fmt.Sprintf("rank %d", r))
			c.EnableTracePropagation(spans[0].TraceContext())
		}
		c.simComm += w.model.RankStartup
		spans[r] = c.StartRootSpan("mpi/rank")
		comms[r] = c
	}
	var wg sync.WaitGroup
	for r, c := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
				}
			}()
			start := time.Now()
			errs[r] = fn(c)
			wall := time.Since(start)
			spans[r].End(obs.I("rank", r))
			if observed {
				flushRankMetrics(c, wall)
			}
		}()
	}
	wg.Wait()
	for _, ib := range w.inboxes {
		ib.close()
	}
	return errs
}

// flushRankMetrics publishes one rank's traffic counters and its
// modeled-vs-wall time gauges into the global registry.
func flushRankMetrics(c *Comm, wall time.Duration) {
	prefix := fmt.Sprintf("mpi/rank%d/", c.rank)
	st := c.Stats()
	obs.Add(prefix+"msgs_sent", st.MsgsSent)
	obs.Add(prefix+"bytes_sent", st.BytesSent)
	obs.Add(prefix+"msgs_recv", st.MsgsRecv)
	obs.Add(prefix+"bytes_recv", st.BytesRecv)
	obs.Add("mpi/msgs_sent", st.MsgsSent)
	obs.Add("mpi/bytes_sent", st.BytesSent)
	obs.SetGauge(prefix+"sim_comm_s", c.SimCommTime().Seconds())
	obs.SetGauge(prefix+"sim_compute_s", c.SimComputeTime().Seconds())
	obs.SetGauge(prefix+"sim_total_s", c.SimTotal().Seconds())
	obs.SetGauge(prefix+"wall_s", wall.Seconds())
}

// RunCollect is Run plus per-rank simulated-time collection: it returns the
// maximum simulated total time across ranks (the modeled makespan) and the
// per-rank breakdown.
func (w *World) RunCollect(fn func(c *Comm) error) (RankTimes, []error) {
	times := RankTimes{Compute: make([]float64, w.size), Comm: make([]float64, w.size)}
	var mu sync.Mutex
	errs := w.Run(func(c *Comm) error {
		err := fn(c)
		mu.Lock()
		times.Compute[c.Rank()] = c.SimComputeTime().Seconds()
		times.Comm[c.Rank()] = c.SimCommTime().Seconds()
		mu.Unlock()
		return err
	})
	return times, errs
}

// RankTimes records per-rank simulated seconds.
type RankTimes struct {
	Compute []float64
	Comm    []float64
}

// Makespan returns the modeled parallel completion time: the maximum over
// ranks of compute + communication.
func (t RankTimes) Makespan() float64 {
	var m float64
	for i := range t.Compute {
		if s := t.Compute[i] + t.Comm[i]; s > m {
			m = s
		}
	}
	return m
}

// FirstError returns the first non-nil error, or nil.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
