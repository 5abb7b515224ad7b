package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"parma/internal/obs"
)

// CostModel charges simulated time for communication, LogP-style: each
// message costs Latency plus size/Bandwidth. The zero value charges
// nothing (pure functional messaging).
type CostModel struct {
	// Latency is the fixed per-message overhead.
	Latency time.Duration
	// BandwidthBytesPerSec divides the payload size; zero means infinite
	// bandwidth.
	BandwidthBytesPerSec float64
	// RankStartup is a fixed cost charged to every rank when the world
	// starts: process spawn, interpreter import, and MPI_Init in the
	// paper's Python/mpi4py deployment. It is the overhead that makes
	// inter-node parallelism ineffective on small workloads (§V-F).
	RankStartup time.Duration
}

// FDRInfiniBand approximates the paper's cluster setup: FDR InfiniBand
// interconnect (~1.5 µs latency, ~6 GB/s effective bandwidth) plus the
// per-rank spawn/import cost of the Python MPI deployment.
var FDRInfiniBand = CostModel{
	Latency:              1500 * time.Nanosecond,
	BandwidthBytesPerSec: 6e9,
	RankStartup:          40 * time.Millisecond,
}

// cost returns the simulated duration of moving size bytes.
func (cm CostModel) cost(size int) time.Duration {
	d := cm.Latency
	if cm.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(size) / cm.BandwidthBytesPerSec * float64(time.Second))
	}
	return d
}

// Traffic returns the modeled cost of msgs messages totalling bytes, the
// aggregate counterpart of per-message cost charging. It matches the sum
// of per-message charges whenever each message's bandwidth term converts
// to a whole nanosecond count (the observability tests pick models where
// it does).
func (cm CostModel) Traffic(msgs, bytes int64) time.Duration {
	d := time.Duration(msgs) * cm.Latency
	if cm.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(bytes) / cm.BandwidthBytesPerSec * float64(time.Second))
	}
	return d
}

// CommStats counts the point-to-point traffic one rank moved, as charged
// by the cost model: every charge of Latency+size/Bandwidth corresponds to
// exactly one counted message on the side that paid it.
type CommStats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
}

// Comm is one rank's endpoint: point-to-point operations, collectives, and
// the rank's simulated-time accumulators. A Comm is owned by one goroutine.
type Comm struct {
	rank, size int
	tr         Transport
	model      CostModel
	speed      float64 // relative compute speed; 0 is treated as 1
	track      int32   // obs timeline track; obs.AnonTrack outside World.Run

	simComm    time.Duration // accumulated simulated communication time
	simCompute time.Duration // accumulated charged compute time
	stats      CommStats

	// Trace propagation state (see traceprop.go): the trace the rank works
	// under — seeded, minted by its root span, or adopted from a peer's
	// frame — the rank's own root span, and whether payloads carry the
	// trace envelope.
	trace    obs.TraceContext
	rankSpan obs.SpanID
	traceOn  bool
}

// newComm builds one rank's endpoint over tr.
func newComm(tr Transport, rank, size int, model CostModel) *Comm {
	return &Comm{rank: rank, size: size, model: model, speed: 1, track: obs.AnonTrack, tr: tr}
}

// Stats returns the traffic this rank has been charged for so far.
func (c *Comm) Stats() CommStats { return c.stats }

// chargeSend accounts one outbound message of size bytes.
func (c *Comm) chargeSend(size int) {
	c.simComm += c.model.cost(size)
	c.stats.MsgsSent++
	c.stats.BytesSent += int64(size)
}

// chargeRecv accounts one inbound message of size bytes.
func (c *Comm) chargeRecv(size int) {
	c.simComm += c.model.cost(size)
	c.stats.MsgsRecv++
	c.stats.BytesRecv += int64(size)
}

// span opens a collective-timing span on this rank's timeline track,
// parented to the rank's root span (or the originating request) when the
// rank is working under a propagated trace.
func (c *Comm) span(name string) obs.Span {
	if !obs.Enabled() {
		return obs.Span{}
	}
	if c.traceOn && c.trace.Valid() {
		parent := c.rankSpan
		if parent.IsZero() {
			parent = c.trace.Span
		}
		return obs.StartOnTraced(c.track, name, c.trace.Trace, parent)
	}
	return obs.StartOn(c.track, name)
}

// Rank returns this endpoint's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// SimCommTime returns the accumulated simulated communication time.
func (c *Comm) SimCommTime() time.Duration { return c.simComm }

// SimComputeTime returns the accumulated charged compute time.
func (c *Comm) SimComputeTime() time.Duration { return c.simCompute }

// ChargeCompute adds measured local work to the rank's simulated clock,
// scaled by the rank's relative speed on heterogeneous worlds.
func (c *Comm) ChargeCompute(d time.Duration) {
	speed := c.speed
	if speed <= 0 {
		speed = 1
	}
	c.simCompute += time.Duration(float64(d) / speed)
}

// SimTotal returns compute + communication simulated time.
func (c *Comm) SimTotal() time.Duration { return c.simCompute + c.simComm }

// Send delivers data to dst with a tag. It charges the payload, then seals
// it in the trace envelope when propagation is on — in that order, so the
// envelope never enters CommStats — and hands it to the transport.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst == c.rank {
		return fmt.Errorf("mpi: rank %d sending to itself", c.rank)
	}
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("mpi: rank %d sending to rank %d outside world of %d", c.rank, dst, c.size)
	}
	c.chargeSend(len(data))
	return c.tr.Send(dst, tag, c.seal(data))
}

// Recv blocks for a message from src (or AnySource) with the tag and
// returns the payload and actual source. It opens the trace envelope when
// propagation is on, then charges the payload.
func (c *Comm) Recv(src, tag int) ([]byte, int, error) {
	if src != AnySource && (src < 0 || src >= c.size) {
		return nil, 0, fmt.Errorf("mpi: rank %d receiving from rank %d outside world of %d", c.rank, src, c.size)
	}
	data, actual, err := c.tr.Recv(src, tag)
	if err != nil {
		return nil, 0, err
	}
	if data, err = c.open(data); err != nil {
		return nil, 0, err
	}
	c.chargeRecv(len(data))
	return data, actual, nil
}

// Collective tags live in a reserved space above user tags.
const (
	tagBarrier = 1 << 28
	tagBcast   = 1<<28 + 1
	tagReduce  = 1<<28 + 3
)

// Barrier blocks until every rank has entered. It uses a binomial tree
// reduce-then-broadcast, costing O(log P) rounds.
func (c *Comm) Barrier() error {
	sp := c.span("mpi/barrier")
	defer sp.End()
	if _, err := c.reduceBytes(nil, tagBarrier, func(a, b []byte) []byte { return nil }); err != nil {
		return err
	}
	_, err := c.bcastBytes(nil, tagBarrier)
	return err
}

// Bcast distributes root's buffer to every rank via a binomial tree and
// returns each rank's copy. Non-root ranks pass nil.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if root != 0 {
		return nil, fmt.Errorf("mpi: only root 0 broadcasts in this implementation")
	}
	sp := c.span("mpi/bcast")
	out, err := c.bcastBytes(data, tagBcast)
	sp.End(obs.I("bytes", len(out)))
	return out, err
}

func (c *Comm) bcastBytes(data []byte, tag int) ([]byte, error) {
	// Binomial tree rooted at 0: rank r's parent clears r's highest set
	// bit; its children are r + 2^j for every 2^j above that bit.
	if c.rank != 0 {
		parent := c.rank &^ (1 << (bits.Len(uint(c.rank)) - 1))
		got, _, err := c.Recv(parent, tag)
		if err != nil {
			return nil, err
		}
		data = got
	}
	startBit := 0
	if c.rank > 0 {
		startBit = bits.Len(uint(c.rank))
	}
	for j := startBit; ; j++ {
		child := c.rank + 1<<j
		if child >= c.size {
			break
		}
		if err := c.Send(child, tag, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// reduceBytes folds every rank's contribution at root 0 with the combiner,
// using a binomial tree (log P rounds).
func (c *Comm) reduceBytes(mine []byte, tag int, combine func(a, b []byte) []byte) ([]byte, error) {
	acc := mine
	for stride := 1; stride < c.size; stride *= 2 {
		if c.rank%(2*stride) == stride {
			return nil, c.Send(c.rank-stride, tag, acc)
		}
		if c.rank%(2*stride) == 0 && c.rank+stride < c.size {
			got, _, err := c.Recv(c.rank+stride, tag)
			if err != nil {
				return nil, err
			}
			acc = combine(acc, got)
		}
	}
	return acc, nil
}

// ReduceSum folds float64 vectors elementwise at root 0. Every rank must
// pass equal-length slices; root receives the sum, others nil.
func (c *Comm) ReduceSum(vals []float64) ([]float64, error) {
	sp := c.span("mpi/reduce")
	defer sp.End(obs.I("values", len(vals)))
	out, err := c.reduceBytes(encodeFloats(vals), tagReduce, func(a, b []byte) []byte {
		av, bv := decodeFloats(a), decodeFloats(b)
		if len(av) != len(bv) {
			panic(fmt.Sprintf("mpi: ReduceSum length mismatch %d vs %d", len(av), len(bv)))
		}
		for i := range av {
			av[i] += bv[i]
		}
		return encodeFloats(av)
	})
	if err != nil || out == nil {
		return nil, err
	}
	return decodeFloats(out), nil
}

// AllreduceSum gives every rank the elementwise sum.
func (c *Comm) AllreduceSum(vals []float64) ([]float64, error) {
	sp := c.span("mpi/allreduce")
	defer sp.End(obs.I("values", len(vals)))
	summed, err := c.ReduceSum(vals)
	if err != nil {
		return nil, err
	}
	data, err := c.bcastBytes(encodeFloats(summed), tagBcast)
	if err != nil {
		return nil, err
	}
	return decodeFloats(data), nil
}

func encodeFloats(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func decodeFloats(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}
