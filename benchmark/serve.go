package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parma/internal/fleet"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/serve"
)

var serveMixed = workload{
	name: "serve-mixed",
	why: "Many small requests through the real router and two workers: router hop, batch window, JSON codec, factorization cache " +
		"and dense kernels are a large share of each request; sparse does nothing.",
	setup: func(cfg config) (instance, error) { return setupServe(cfg, mixedRequests) },
}

var serveSeries = workload{
	name: "serve-series",
	why: "Few large solve-dominated requests on the same fleet: two 32x32-class time series, one per worker. " +
		"Warm starts and how concurrent solves share the cores decide latency; per-request overhead is noise.",
	setup: func(cfg config) (instance, error) { return setupServe(cfg, seriesRequests) },
}

const (
	serveClients = 2 // closed-loop clients and open-loop connections; <= nproc

	// serve-mixed: 40 % recover small, 40 % recover mid (both dense under
	// auto), 20 % measure large from a pool of fixed R fields.
	mixedSmall, mixedMid, mixedLarge = 8, 12, 32
	mixedQuickLarge                  = 16
	mixedRecoverPool                 = 48 // distinct media per recover geometry
	mixedMeasurePool                 = 8  // fixed R fields: first use misses the factorization cache, later uses hit
	mixedListLen                     = 4096
	// mixedOpenRate is the open-loop arrival rate, fixed near a third of the
	// closed-loop capacity measured at the seed commit so a backlog never
	// builds on a healthy system.
	mixedOpenRate = 30.0 // requests per second

	// serve-series: 6 media per geometry, each at the wet-lab protocol's
	// 0/6/12/24 h time points, sent in order with warm start on.
	seriesMedia       = 6
	seriesGrowthPerHr = 0.03

	// One reply in verifyEvery is checked by re-simulating the returned R.
	verifyEvery    = 20
	verifyTol      = 1e-6
	servedResidual = 1e-8
)

// seriesGeometries are tried in order; the workload uses the first two whose
// ring owners differ, so each client's series lands on its own worker.
var seriesGeometries = [][2]int{{32, 32}, {32, 31}, {31, 32}, {30, 32}, {32, 30}}
var seriesQuickGeometries = [][2]int{{16, 16}, {16, 15}, {15, 16}, {14, 16}, {16, 14}}

// request is one pre-encoded HTTP request plus what is needed to check the
// reply. The served program sees only path and body.
type request struct {
	path string // /v1/recover or /v1/measure
	key  string // geometry key, "RxC"
	body []byte
	arr  grid.Array
	z    *grid.Field // recover: submitted Z; measure: expected Z
}

// requestPlan is a generated workload: an ordered list per closed-loop
// client (clients pull from a shared cursor when there is one list), the
// warm-up requests, and whether an open-loop phase follows.
type requestPlan struct {
	lists    [][]request // one list shared by all clients, or one per client
	warmup   []request   // one per geometry, sent before the clock
	group    int         // consecutive requests that make one operation
	openRate float64     // > 0: second half of the run is open loop at this rate
	owners   bool        // warm-up must land each list's geometry on a different worker
}

func fieldRows(f *grid.Field) [][]float64 {
	out := make([][]float64, f.Rows())
	for i := range out {
		out[i] = make([]float64, f.Cols())
		for j := range out[i] {
			out[i][j] = f.At(i, j)
		}
	}
	return out
}

func rowsField(rows [][]float64, arr grid.Array) (*grid.Field, error) {
	if len(rows) != arr.Rows() {
		return nil, fmt.Errorf("reply has %d rows, want %d", len(rows), arr.Rows())
	}
	f := grid.NewFieldFor(arr)
	for i, row := range rows {
		if len(row) != arr.Cols() {
			return nil, fmt.Errorf("reply row %d has %d columns, want %d", i, len(row), arr.Cols())
		}
		for j, v := range row {
			f.Set(i, j, v)
		}
	}
	return f, nil
}

func recoverRequest(md medium) (request, error) {
	body, err := json.Marshal(serve.RecoverRequest{Rows: md.arr.Rows(), Cols: md.arr.Cols(), Z: fieldRows(md.z)})
	if err != nil {
		return request{}, err
	}
	return request{path: "/v1/recover", key: geomKey(md.arr), body: body, arr: md.arr, z: md.z}, nil
}

func measureRequest(md medium) (request, error) {
	body, err := json.Marshal(serve.MeasureRequest{Rows: md.arr.Rows(), Cols: md.arr.Cols(), R: fieldRows(md.r)})
	if err != nil {
		return request{}, err
	}
	return request{path: "/v1/measure", key: geomKey(md.arr), body: body, arr: md.arr, z: md.z}, nil
}

// fleetRing is the consistent-hash ring the router builds over the fleet's
// worker names: which worker owns which geometry.
func fleetRing() *fleet.Ring {
	names := make([]string, fleetWorkers)
	for i := range names {
		names[i] = workerName(i)
	}
	return fleet.NewRing(names, fleet.DefaultVnodes)
}

func geomKey(a grid.Array) string { return fmt.Sprintf("%dx%d", a.Rows(), a.Cols()) }

// mixedRequests builds the serve-mixed list from the seed.
func mixedRequests(cfg config) (requestPlan, error) {
	large := mixedLarge
	if cfg.quick {
		large = mixedQuickLarge
	}
	pool := func(n, count int, seedOff int64, build func(medium) (request, error)) ([]request, error) {
		out := make([]request, count)
		for k := range out {
			md, err := newMedium(n, n, cfg.seed+seedOff+int64(k), 1)
			if err != nil {
				return nil, err
			}
			if out[k], err = build(md); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	small, err := pool(mixedSmall, mixedRecoverPool, 1000, recoverRequest)
	if err != nil {
		return requestPlan{}, err
	}
	mid, err := pool(mixedMid, mixedRecoverPool, 2000, recoverRequest)
	if err != nil {
		return requestPlan{}, err
	}
	big, err := pool(large, mixedMeasurePool, 3000, measureRequest)
	if err != nil {
		return requestPlan{}, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	list := make([]request, mixedListLen)
	for i := range list {
		switch u := rng.Float64(); {
		case u < 0.4:
			list[i] = small[rng.Intn(len(small))]
		case u < 0.8:
			list[i] = mid[rng.Intn(len(mid))]
		default:
			list[i] = big[rng.Intn(len(big))]
		}
	}
	return requestPlan{
		lists:    [][]request{list},
		group:    1,
		warmup:   []request{small[0], mid[0], big[0]},
		openRate: mixedOpenRate,
	}, nil
}

// seriesRequests builds the serve-series lists: one geometry per client,
// chosen so the two land on different workers.
func seriesRequests(cfg config) (requestPlan, error) {
	geoms := seriesGeometries
	if cfg.quick {
		geoms = seriesQuickGeometries
	}
	ring := fleetRing()
	var chosen [][2]int
	taken := map[string]bool{}
	for _, g := range geoms {
		if owner := ring.Owner(geomKey(grid.New(g[0], g[1]))); !taken[owner] {
			taken[owner] = true
			chosen = append(chosen, g)
		}
		if len(chosen) == serveClients {
			break
		}
	}
	if len(chosen) < serveClients {
		return requestPlan{}, fmt.Errorf("serve-series: no %d candidate geometries with distinct ring owners", serveClients)
	}
	// One operation is one medium's whole series: every operation then costs
	// the same, where single requests alternate between a medium's first
	// time point (a far warm start) and its later ones (a near one).
	plan := requestPlan{owners: true, group: len(gen.SampleHours)}
	for c, g := range chosen {
		var list []request
		for k := 0; k < seriesMedia; k++ {
			seed := cfg.seed + int64(100*c+k)
			n := g[0]
			if g[1] < n {
				n = g[1]
			}
			base := gen.Config{Rows: g[0], Cols: g[1], Seed: seed, Anomalies: seededAnomalies(n, seed, 1)}
			series := gen.TimeSeries(base, seriesGrowthPerHr)
			for _, h := range gen.SampleHours {
				md, err := measured(grid.New(g[0], g[1]), series[h])
				if err != nil {
					return requestPlan{}, err
				}
				rq, err := recoverRequest(md)
				if err != nil {
					return requestPlan{}, err
				}
				list = append(list, rq)
			}
		}
		plan.lists = append(plan.lists, list)
		plan.warmup = append(plan.warmup, list[0])
	}
	return plan, nil
}

type serveInstance struct {
	seed    int64
	fleet   *servedFleet
	plan    requestPlan
	coldLM  []float64 // LM iterations of the warm-up recoveries: cold by construction
	sampled atomic.Int64
}

func setupServe(cfg config, generate func(config) (requestPlan, error)) (instance, error) {
	plan, err := generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve set-up: generating requests: %w", err)
	}
	f, err := bootFleet(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	in := &serveInstance{seed: cfg.seed, fleet: f, plan: plan}
	seen := map[string]bool{}
	for _, rq := range plan.warmup {
		rp := f.post(f.router, rq.path, rq.body)
		if err := in.check(rq, rp, true); err != nil {
			f.stop()
			return nil, fmt.Errorf("serve set-up: warm-up %s %s: %w", rq.path, rq.key, err)
		}
		if rq.path == "/v1/recover" {
			in.coldLM = append(in.coldLM, float64(rp.body.Iterations))
		}
		if plan.owners && seen[rp.backend] {
			f.stop()
			return nil, fmt.Errorf("serve set-up: geometry %s answered by %s, which already owns another series", rq.key, rp.backend)
		}
		seen[rp.backend] = true
	}
	return in, nil
}

func (in *serveInstance) pids() []int { return in.fleet.pids() }
func (in *serveInstance) close()      { in.fleet.stop() }
func (in *serveInstance) tracks() []string {
	out := make([]string, serveClients)
	for i := range out {
		out[i] = fmt.Sprintf("client %d", i)
	}
	return out
}

// check applies the correctness rule of every served reply: 200, not
// degraded, converged; a measure reply must equal the locally simulated Z,
// and one recover reply in verifyEvery (or every one when always is set) is
// re-simulated and compared with the submitted Z.
func (in *serveInstance) check(rq request, rp reply, always bool) error {
	if rp.err != nil {
		return rp.err
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("status %d", rp.status)
	}
	if rp.body.Degraded {
		return fmt.Errorf("degraded reply")
	}
	if rp.body.Timings == nil {
		return fmt.Errorf("reply carries no timings")
	}
	if rq.path == "/v1/measure" {
		got, err := rowsField(rp.body.Z, rq.arr)
		if err != nil {
			return err
		}
		if e := maxRelErr(got, rq.z); !(e <= verifyTol) {
			return fmt.Errorf("served Z is off by %.3g from the local simulation", e)
		}
		return nil
	}
	if !(rp.body.Residual <= servedResidual) {
		return fmt.Errorf("residual %.3g exceeds %.0e", rp.body.Residual, servedResidual)
	}
	if always || in.sampled.Add(1)%verifyEvery == 0 {
		r, err := rowsField(rp.body.R, rq.arr)
		if err != nil {
			return err
		}
		return measureMatches(rq.arr, r, rq.z, verifyTol)
	}
	return nil
}

// exchange is one request with its reply, kept for layer attribution.
type exchange struct {
	rq request
	rp reply
}

// load describes one phase of served traffic.
type load struct {
	// target picks the base URL a request goes to: the router, or for the
	// direct replay the worker that answered the request's geometry.
	target func(request) string
	lists  [][]request // one list shared by all clients, or one per client
	offset int         // where in its list each client starts
	group  int         // consecutive requests of a list that make one operation
	// rate > 0 makes the phase open loop: requests fall due on a seeded
	// Poisson schedule at this many per second regardless of replies, the
	// clients are merely the connections that carry them, and each is timed
	// from its due time. rate 0 is a closed loop: each client sends its next
	// operation as soon as the previous one is answered.
	rate    float64
	seed    int64
	seconds float64
}

// drive runs one phase and returns its operations and exchanges.
func (in *serveInstance) drive(ld load, rec *recorder, m *measurement) ([]op, []exchange) {
	var (
		mu     sync.Mutex
		ops    []op
		exch   []exchange
		cursor atomic.Int64
		opID   atomic.Int64
		wg     sync.WaitGroup
	)
	var due []time.Duration
	if ld.rate > 0 {
		rng := rand.New(rand.NewSource(ld.seed ^ 0x09e7))
		for t := 0.0; ; {
			t += rng.ExpFloat64() / ld.rate
			if t >= ld.seconds {
				break
			}
			due = append(due, time.Duration(t*float64(time.Second)))
		}
	}
	t0 := time.Now()
	recT0 := rec.now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			list, next := ld.lists[0], &cursor
			if len(ld.lists) > 1 {
				list, next = ld.lists[c], new(atomic.Int64)
			}
			prevEnd := time.Duration(0)
			for {
				i := int(next.Add(1)) - 1
				dueAt := prevEnd
				if ld.rate > 0 {
					if i >= len(due) {
						return
					}
					dueAt = due[i]
					if wait := dueAt - time.Since(t0); wait > 0 {
						// Nothing is due: the span keeps the idle stretch from
						// reading as an unattributed gap in the trace.
						sp := rec.begin("idle", "wait for next arrival", c, -1, -1)
						time.Sleep(wait)
						rec.end(sp)
					}
				} else if time.Since(t0).Seconds() >= ld.seconds {
					return
				}
				id := int(opID.Add(1)) - 1
				parent := -1
				if ld.group > 1 {
					parent = rec.begin("loadgen", fmt.Sprintf("%d requests %s", ld.group, list[0].key), c, -1, id)
				}
				started := time.Since(t0)
				failed := false
				work := 0
				for k := 0; k < ld.group; k++ {
					rq := list[(ld.offset+i*ld.group+k)%len(list)]
					sp := rec.begin("loadgen", "POST "+rq.path+" "+rq.key, c, parent, id)
					sent := time.Since(t0)
					rp := in.fleet.post(ld.target(rq), rq.path, rq.body)
					end := time.Since(t0)
					rec.end(sp)
					err := in.check(rq, rp, false)
					rp.body.R, rp.body.Z = nil, nil // checked; keep only the metadata
					work += rp.body.Iterations
					if err == nil {
						rebuildStages(rec, sp, c, id, recT0+sent, recT0+end, rp.body.Timings)
					}
					mu.Lock()
					if err != nil {
						m.fail("%s %s: %v", rq.path, rq.key, err)
						failed = true
					}
					exch = append(exch, exchange{rq, rp})
					mu.Unlock()
				}
				rec.end(parent)
				prevEnd = time.Since(t0)
				mu.Lock()
				first := list[(ld.offset+i*ld.group)%len(list)]
				ops = append(ops, op{start: started, due: dueAt, end: prevEnd, failed: failed, work: work,
					class: strings.TrimPrefix(first.path, "/v1/") + " " + first.key})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ops, exch
}

// rebuildStages lays the reply's server-side stage timings out as child
// spans of the request span, centred in it: what is left on either side is
// the client, loopback, router and handler time.
func rebuildStages(rec *recorder, parent, track, op int, start, end time.Duration, tm *serve.Timings) {
	if rec == nil || tm == nil {
		return
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	total := ms(tm.TotalMS)
	at := start
	if slack := (end - start) - total; slack > 0 {
		at += slack / 2
	}
	for _, st := range []struct {
		layer, name string
		d           time.Duration
	}{
		{"serve", "serve.queue", ms(tm.QueueMS)},
		{"serve", "serve.batch", ms(tm.BatchMS)},
		{"circuit", "serve.factor", ms(tm.FactorMS)},
		{"solver", "serve.solve", ms(tm.SolveMS)},
	} {
		stop := at + st.d
		if stop > end {
			stop = end
		}
		rec.add(st.layer, st.name, track, parent, op, at, stop)
		at = stop
	}
}

func (in *serveInstance) viaRouter(request) string { return in.fleet.router }

func (in *serveInstance) run(seconds float64, rec *recorder) *measurement {
	m := &measurement{layer: map[string]float64{}}
	closedFor := seconds
	if in.plan.openRate > 0 {
		closedFor = seconds / 2
	}
	hits0, miss0 := in.fleet.cacheCounters()
	cpu := startCPU(in.fleet.pids())
	routerCPU0 := procCPU(in.fleet.routerPid())
	m.region.lo = rec.now()
	var exch []exchange
	if in.plan.openRate > 0 {
		// The open phase runs first, straight after the warm-up, when every
		// geometry still sits on its ring owner: the closed loop's spills move
		// geometries between the workers and the router keeps them where they
		// last landed, so an open phase run second would start from whatever
		// placement the closed loop happened to end in.
		m.open, exch = in.drive(load{target: in.viaRouter, lists: in.plan.lists, group: 1,
			rate: in.plan.openRate, seed: in.seed, seconds: seconds - closedFor}, rec, m)
	}
	// The closed phase continues down the same list. Each phase keeps its
	// own clock: only differences within a phase are read off its operations.
	var closedExch []exchange
	m.closed, closedExch = in.drive(load{target: in.viaRouter, lists: in.plan.lists, offset: len(m.open), group: in.plan.group, seconds: closedFor}, rec, m)
	exch = append(exch, closedExch...)
	m.region.hi = rec.now()
	cpu.stop()
	m.cpuS, m.harnessCPU = cpu.self+cpu.kids, cpu.self
	routerCPU := procCPU(in.fleet.routerPid()) - routerCPU0
	hits1, miss1 := in.fleet.cacheCounters()

	m.exchanges = exch
	in.attribute(m.layer, exch)
	m.layer["serve.cache_hit_ratio"] = float64(hits1-hits0) / math.Max(1, float64(hits1-hits0+miss1-miss0))
	m.layer["fleet.cpu_s_per_req"] = routerCPU / float64(len(exch))
	m.layer["serve.rss_mb"] = maxRSS(in.fleet.workerPids())
	m.layer["fleet.rss_mb"] = procPeakRSS(in.fleet.routerPid())
	return m
}

func maxRSS(pids []int) float64 {
	var worst float64
	for _, p := range pids {
		if v := procPeakRSS(p); v > worst {
			worst = v
		}
	}
	return worst
}

// attribute turns the replies of a run through the router into the serve
// and fleet layer numbers that need no second run.
func (in *serveInstance) attribute(out map[string]float64, exch []exchange) {
	ring := fleetRing()
	var queue, batch, factor, solve, total, batchSize, attempts, warmLM []float64
	coldLM := append([]float64(nil), in.coldLM...)
	var recovers, warmHits, owned, hedged, serveShed, fleetShed, degraded float64
	for _, e := range exch {
		rp := e.rp
		if rp.status == http.StatusTooManyRequests || rp.status == http.StatusServiceUnavailable {
			if rp.backend == "" {
				fleetShed++
			} else {
				serveShed++
			}
		}
		if rp.body.Degraded {
			degraded++
		}
		if rp.hedged {
			hedged++
		}
		if rp.backend == ring.Owner(e.rq.key) {
			owned++
		}
		if rp.attempts > 0 {
			attempts = append(attempts, float64(rp.attempts))
		}
		tm := rp.body.Timings
		if rp.status != http.StatusOK || tm == nil {
			continue
		}
		queue = append(queue, tm.QueueMS)
		batch = append(batch, tm.BatchMS)
		factor = append(factor, tm.FactorMS)
		solve = append(solve, tm.SolveMS)
		total = append(total, tm.TotalMS)
		batchSize = append(batchSize, float64(rp.body.BatchSize))
		if e.rq.path == "/v1/recover" {
			recovers++
			if rp.body.Cache == "hit" {
				warmHits++
				warmLM = append(warmLM, float64(rp.body.Iterations))
			} else {
				coldLM = append(coldLM, float64(rp.body.Iterations))
			}
		}
	}
	n := float64(len(exch))
	out["serve.queue_ms_p50"] = median(queue)
	out["serve.batch_ms_p50"] = median(batch)
	out["serve.factor_ms_p50"] = median(factor)
	out["serve.solve_ms_p50"] = median(solve)
	out["serve.total_ms_p50"] = median(total)
	out["serve.batch_size_mean"] = mean(batchSize)
	out["serve.warm_hit_ratio"] = warmHits / math.Max(1, recovers)
	out["serve.warm_lm_iters_mean"] = mean(warmLM)
	out["serve.cold_lm_iters_mean"] = mean(coldLM)
	out["serve.shed"] = serveShed
	out["serve.degraded"] = degraded
	out["fleet.owner_ratio"] = owned / math.Max(1, n)
	out["fleet.attempts_mean"] = mean(attempts)
	out["fleet.hedged"] = hedged
	out["fleet.shed"] = fleetShed
}

// hopAndHTTP replays the workload's lists from the start, with the same
// clients, straight to the worker that answered each geometry through the
// router, and splits client-side overhead (client latency minus the
// server's total_ms) into the worker's own HTTP share and what the router
// hop adds.
func (in *serveInstance) hopAndHTTP(out map[string]float64, viaRouter []exchange, seconds float64, m *measurement) {
	overhead := func(exch []exchange) []float64 {
		var xs []float64
		for _, e := range exch {
			if e.rp.status == http.StatusOK && e.rp.body.Timings != nil {
				xs = append(xs, e.rp.clientMS-e.rp.body.Timings.TotalMS)
			}
		}
		return xs
	}
	workerOf := map[string]string{}
	for i, w := range in.fleet.workers {
		workerOf[workerName(i)] = w
	}
	answered := map[string]string{} // geometry key -> worker URL
	for _, e := range viaRouter {
		if url := workerOf[e.rp.backend]; url != "" {
			answered[e.rq.key] = url
		}
	}
	direct := func(rq request) string {
		if url := answered[rq.key]; url != "" {
			return url
		}
		return in.fleet.workers[0]
	}
	_, exch := in.drive(load{target: direct, lists: in.plan.lists, group: in.plan.group, seconds: seconds}, nil, m)
	routed := overhead(viaRouter)
	base := median(overhead(exch))
	out["serve.http_ms_p50"] = base
	out["fleet.hop_ms_p50"] = median(routed) - base
	out["fleet.hop_ms_p95"] = quantile(routed, 0.95) - base
}
