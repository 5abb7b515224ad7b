package mpi

import (
	"fmt"

	"parma/internal/obs"
)

// Trace propagation: when enabled, every user payload leaving a Comm
// carries a fixed 26-byte envelope naming the trace it belongs to and the
// sender's current span, so ranks in other goroutines — or other
// processes, over TCP — can parent their own spans to the originating
// request. Comm seals the envelope onto a payload after charging it and
// opens it before charging a received one, so the envelope never enters
// CommStats.
//
// Framing is strict: once enabled, every rank of the world must enable it
// too (World.Run and the parma-mpi launcher both enable it globally),
// so a received payload without the envelope is a framing error rather
// than a silent mis-parse. Both seed their ranks the same way: rank 0's
// root span mints the trace and the others' spans become its children —
// World.Run seeds them before they start, parma-mpi's rank processes
// adopt it from the first frame they receive.

// traceEnvelope layout: [magic][flags][16-byte trace id][8-byte span id].
const (
	traceMagic   = 0xB7
	traceEnvLen  = 26
	traceFlagSet = 1
)

// seal prepends the envelope for the comm's current trace context when
// propagation is on, and returns data unchanged otherwise.
func (c *Comm) seal(data []byte) []byte {
	if !c.traceOn {
		return data
	}
	out := make([]byte, traceEnvLen+len(data))
	out[0] = traceMagic
	if tc := c.outgoingTrace(); tc.Valid() {
		out[1] = traceFlagSet
		copy(out[2:18], tc.Trace[:])
		copy(out[18:26], tc.Span[:])
	}
	copy(out[traceEnvLen:], data)
	return out
}

// open strips the envelope when propagation is on, adopting its trace
// context when the comm does not have one yet (the remote-rank case: trace
// identity arrives with the first frame from an already-traced peer).
func (c *Comm) open(data []byte) ([]byte, error) {
	if !c.traceOn {
		return data, nil
	}
	if len(data) < traceEnvLen || data[0] != traceMagic {
		return nil, fmt.Errorf("mpi: rank %d received a frame without trace envelope "+
			"(trace propagation must be enabled on every rank)", c.rank)
	}
	if data[1]&traceFlagSet != 0 && !c.trace.Valid() {
		var tc obs.TraceContext
		copy(tc.Trace[:], data[2:18])
		copy(tc.Span[:], data[18:26])
		if tc.Valid() {
			c.trace = tc
		}
	}
	return data[traceEnvLen:], nil
}

// EnableTracePropagation turns on the trace envelope for every payload the
// rank sends and receives, and seeds the comm's trace context (a zero tc
// leaves the rank to adopt the context from its first received frame).
// Every rank of a world must enable it, or receives fail with a framing
// error. A second seed-less call changes nothing.
func (c *Comm) EnableTracePropagation(tc obs.TraceContext) {
	if tc.Valid() {
		c.trace = tc
	}
	c.traceOn = true
}

// TraceContext returns the trace identity the rank is working under — its
// seed, or the context adopted from a peer's frame; zero when untraced.
func (c *Comm) TraceContext() obs.TraceContext { return c.trace }

// outgoingTrace is the context stamped on outbound frames: the rank's own
// root span when one is open, else the origin's span.
func (c *Comm) outgoingTrace() obs.TraceContext {
	if !c.trace.Valid() {
		return obs.TraceContext{}
	}
	if !c.rankSpan.IsZero() {
		return obs.TraceContext{Trace: c.trace.Trace, Span: c.rankSpan}
	}
	return c.trace
}

// StartRootSpan opens the rank's top-level span. Under an active trace it
// becomes the parent of the rank's collective spans and of the context
// propagated to peers; without one it is a plain track span. parma-mpi's
// rank 0 calls this with no prior seed, which mints a fresh trace that the
// other rank processes adopt through frame metadata.
func (c *Comm) StartRootSpan(name string) obs.Span {
	if !obs.Enabled() {
		return obs.Span{}
	}
	if !c.traceOn {
		return obs.StartOn(c.track, name)
	}
	if !c.trace.Valid() {
		c.trace = obs.TraceContext{Trace: obs.NewTraceID()}
	}
	sp := obs.StartOnTraced(c.track, name, c.trace.Trace, c.trace.Span)
	c.rankSpan = sp.ID()
	return sp
}
