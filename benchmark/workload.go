package main

import (
	"fmt"
	"time"
)

// config is what one benchmark invocation fixes for every workload.
type config struct {
	root   string // repository root: where the program under test is built from
	binDir string // where the parmad / parma-router binaries were built
	outDir string // where traces and full records are written
	seed   int64
	quick  bool // small sizes, same code paths; numbers are not comparable
}

// op is one completed operation of a timed region: a formation cycle, a
// recovery, or a served request. Times are relative to the region's start.
type op struct {
	start, end time.Duration
	// due is when the operation could have been sent: its scheduled arrival
	// in an open loop, the previous reply in a closed one. Latency counts
	// from it, so a stall is charged to every request it delays, and
	// start-due is how late the generator ran.
	due    time.Duration
	failed bool
	// class names the kind of operation where a workload mixes several
	// ("recover 8x8"); the full record keeps it beside the times.
	class string
	// work is what the program reports it did for the operation, where it
	// says: Levenberg-Marquardt iterations, summed over a served
	// operation's replies.
	work int
}

func (o op) latencyMS() float64 { return float64(o.end-o.due) / float64(time.Millisecond) }

// measurement is what one timed region of a workload produced.
type measurement struct {
	// closed holds the closed-loop operations, from which ops_per_s is
	// computed. open holds the open-loop phase (serve-mixed only); when it
	// is empty, latency is read off the closed-loop operations too.
	closed []op
	open   []op
	// region is the timed region on the recorder's clock (traced runs only):
	// the stretch the harness spans must cover.
	region     interval
	cpuS       float64 // user+sys of the harness and its children over the region
	harnessCPU float64 // the harness's own share of cpuS
	failures   []string
	// layer carries the per-layer numbers the workload's own operations
	// yield (reply timings, solver result fields); traced runs report them.
	layer map[string]float64
	// exchanges keeps a served run's requests and replies for the direct
	// replay that separates the router hop from the worker's own overhead.
	exchanges []exchange
}

func (m *measurement) attempted() int { return len(m.closed) + len(m.open) }

func (m *measurement) failed() int {
	n := 0
	for _, ops := range [][]op{m.closed, m.open} {
		for _, o := range ops {
			if o.failed {
				n++
			}
		}
	}
	return n
}

// latencyOps returns the operations latency is read from.
func (m *measurement) latencyOps() []op {
	if len(m.open) > 0 {
		return m.open
	}
	return m.closed
}

func (m *measurement) fail(format string, args ...any) {
	if len(m.failures) < 20 { // enough to diagnose; a broken build fails every op
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// instance is a workload after set-up: inputs generated, problems and plans
// built, processes booted and warmed.
type instance interface {
	// run drives the workload for about the given time and returns what it
	// measured. A non-nil recorder receives one span per call into a layer.
	run(seconds float64, rec *recorder) *measurement
	// pids lists child processes whose CPU and memory count toward the
	// workload (the served fleet); nil for in-process workloads.
	pids() []int
	// tracks names the trace lanes run uses.
	tracks() []string
	close()
}

// workload is one named set of inputs. The why sentence and the fixed sizes
// live beside the generator and are copied into BENCHMARK.json.
type workload struct {
	name  string
	why   string
	setup func(cfg config) (instance, error)
}

func workloads() []workload {
	return []workload{form64, recover64, serveMixed, serveSeries}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cpuClock samples the CPU seconds of the harness and a set of children.
type cpuClock struct {
	pids          []int
	self, kids    float64
	selfT0, kidT0 float64
}

func startCPU(pids []int) *cpuClock {
	c := &cpuClock{pids: pids}
	c.selfT0 = procCPU(0)
	for _, p := range pids {
		c.kidT0 += procCPU(p)
	}
	return c
}

func (c *cpuClock) stop() {
	c.self = procCPU(0) - c.selfT0
	var k float64
	for _, p := range c.pids {
		k += procCPU(p)
	}
	c.kids = k - c.kidT0
}

// closedLoop runs body back to back until the time is spent, at least once.
// It stops early when the median operation would carry it past the
// deadline, so a run of few long operations still ends on time.
func closedLoop(seconds float64, body func(i int) bool) []op {
	var ops []op
	var durs []float64
	t0 := time.Now()
	prevEnd := time.Duration(0)
	for i := 0; ; i++ {
		if i > 0 && prevEnd.Seconds()+median(durs) > seconds {
			break
		}
		start := time.Since(t0)
		ok := body(i)
		end := time.Since(t0)
		ops = append(ops, op{start: start, due: prevEnd, end: end, failed: !ok})
		durs = append(durs, (end - start).Seconds())
		prevEnd = end
	}
	return ops
}
