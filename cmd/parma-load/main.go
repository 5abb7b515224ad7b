// Command parma-load drives open-loop load against a running parmad and
// reports latency, throughput, and cache effectiveness. It synthesizes a
// mixed-geometry workload (ground-truth fields plus their forward-model
// measurements), fires requests at a target QPS without waiting for
// responses between sends, and aggregates per-request results:
//
//	parmad -addr 127.0.0.1:8321 &
//	parma-load -addr 127.0.0.1:8321 -n 200 -qps 100 -geoms 4x4,5x5,6x6
//
// Repeatable -target flags spread load over several addresses (workers or
// routers); when a parma-router answers, its X-Parma-Backend header feeds
// the per-backend response distribution in the report, and
// -expect-affinity asserts each geometry stays pinned to one worker.
//
// The exit status is the assertion surface for smoke tests: nonzero when
// any request fails or when -min-cache-hit-rate (or -expect-affinity, or
// the other -expect-* flags) is not met.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"parma"
	"parma/internal/serve"
)

func main() {
	// -h already printed the usage and is not a failure.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "parma-load:", err)
		os.Exit(1)
	}
}

// workItem is one prepared request body.
type workItem struct {
	path string
	body []byte
	geom string
}

// result is one completed request.
type result struct {
	status     int
	latency    time.Duration
	cache      string
	degraded   bool
	retryAfter string
	timings    *serve.Timings
	traceID    string
	backend    string
	err        error
}

func run(argv []string) error {
	fs := flag.NewFlagSet("parma-load", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8321", "parmad address (host:port); ignored when -target is given")
	var targets []string
	fs.Func("target", "target address (repeatable; comma lists allowed); requests round-robin across targets",
		func(v string) error {
			for _, one := range strings.Split(v, ",") {
				if one = strings.TrimSpace(one); one != "" {
					targets = append(targets, one)
				}
			}
			return nil
		})
	n := fs.Int("n", 200, "total requests to send")
	qps := fs.Float64("qps", 100, "target send rate (requests/second)")
	geoms := fs.String("geoms", "4x4,5x5,6x6", "comma-separated square geometries, e.g. 4x4,6x6")
	seed := fs.Int64("seed", 1, "workload seed")
	measureFrac := fs.Float64("measure-frac", 0.5, "fraction of requests hitting /v1/measure (rest /v1/recover)")
	tol := fs.Float64("tol", 0, "recover tolerance forwarded to the server (0 = server default)")
	deadline := fs.Int64("deadline", 0, "per-request deadline_ms forwarded to the server (0 = server default)")
	minHitRate := fs.Float64("min-cache-hit-rate", -1, "exit 1 when the observed cache hit rate is below this (e.g. 0.5); negative disables")
	checkMetrics := fs.Bool("check-metrics", false, "scrape /metrics afterwards and require queue-depth, stage-latency, and RED series")
	checkTimings := fs.Bool("check-timings", false, "require every OK response's timings stages to sum to within 10% (+2ms) of its total_ms")
	checkTraces := fs.Bool("check-traces", false, "require every OK response to carry a trace_id")
	expectAffinity := fs.Bool("expect-affinity", false, "exit 1 unless responses span >=2 backends overall while each geometry stays pinned (<=2 backends, majority on one); needs a router setting X-Parma-Backend")
	allowShed := fs.Bool("allow-shed", false, "treat 429/503 sheds as expected backpressure instead of failures (each must carry Retry-After)")
	expectShed := fs.Bool("expect-shed", false, "exit 1 unless at least one request was shed with Retry-After (implies -allow-shed)")
	expectDegraded := fs.Bool("expect-degraded", false, "exit 1 unless at least one request was served degraded from the stale cache")
	expectPrewarmHit := fs.Bool("expect-prewarm-hit", false, "exit 1 unless the first OK /v1/recover for every geometry (in send order) was a warm-start cache hit — the warm-handoff assertion")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *n <= 0 || *qps <= 0 {
		return fmt.Errorf("-n and -qps must be positive")
	}

	items, err := buildWorkload(*geoms, *seed, *tol, *deadline, *measureFrac, *n)
	if err != nil {
		return err
	}

	if len(targets) == 0 {
		targets = []string{*addr}
	}
	bases := make([]string, len(targets))
	for i, t := range targets {
		if strings.Contains(t, "://") {
			bases[i] = strings.TrimRight(t, "/")
		} else {
			bases[i] = "http://" + t
		}
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	// Open loop: send on the tick regardless of completions, so the server's
	// queue — not the client — absorbs bursts. Multiple -target addresses
	// are rotated per request.
	interval := time.Duration(float64(time.Second) / *qps)
	results := make([]result, len(items))
	var wg sync.WaitGroup
	start := time.Now()
	for i, it := range items {
		if i > 0 {
			time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		}
		wg.Add(1)
		go func(i int, it workItem, base string) {
			defer wg.Done()
			results[i] = fire(client, base, it.path, it.body)
		}(i, it, bases[i%len(bases)])
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(os.Stdout, items, results, elapsed)

	shedOK := *allowShed || *expectShed
	failures, hits, sheds, shedsNoHint, degraded, degradedBad := 0, 0, 0, 0, 0, 0
	badTimings, missingTraces := 0, 0
	for _, r := range results {
		if r.degraded {
			degraded++
			if r.cache != "stale" {
				degradedBad++
			}
		}
		if r.err == nil && r.status == http.StatusOK {
			if r.cache == "hit" {
				hits++
			}
			if *checkTimings && !r.degraded && !timingsAddUp(r.timings) {
				badTimings++
			}
			if *checkTraces && r.traceID == "" {
				missingTraces++
			}
			continue
		}
		if shedOK && (r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable) {
			if r.retryAfter == "" {
				shedsNoHint++
			} else {
				sheds++
			}
			continue
		}
		failures++
	}
	hitRate := float64(hits) / float64(len(results))
	if *checkMetrics {
		want := []string{"parma_serve_queue_depth", "parma_serve_stage_solve_ms", "parma_serve_red_"}
		if err := verifyMetrics(client, bases[0], want); err != nil {
			return err
		}
		fmt.Println("metrics: required series present")
	}
	if *expectAffinity {
		if err := checkAffinity(items, results); err != nil {
			return err
		}
		fmt.Println("affinity: per-geometry pinning confirmed")
	}
	if *expectPrewarmHit {
		if err := checkPrewarmHits(items, results); err != nil {
			return err
		}
		fmt.Println("prewarm: first recover per geometry was a warm-start hit")
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d requests failed", failures, len(results))
	}
	if badTimings > 0 {
		return fmt.Errorf("%d responses had timings stages that do not sum to their total", badTimings)
	}
	if missingTraces > 0 {
		return fmt.Errorf("%d OK responses carried no trace_id", missingTraces)
	}
	if shedsNoHint > 0 {
		return fmt.Errorf("%d shed responses were missing the Retry-After header", shedsNoHint)
	}
	if degradedBad > 0 {
		return fmt.Errorf("%d degraded responses were not labelled cache=stale", degradedBad)
	}
	if *expectShed && sheds == 0 {
		return fmt.Errorf("expected backpressure sheds with Retry-After, saw none")
	}
	if *expectDegraded && degraded == 0 {
		return fmt.Errorf("expected degraded stale-cache responses, saw none")
	}
	if *minHitRate >= 0 && hitRate < *minHitRate {
		return fmt.Errorf("cache hit rate %.2f below required %.2f", hitRate, *minHitRate)
	}
	return nil
}

// buildWorkload synthesizes n request bodies over the geometry mix. Each
// geometry gets one ground-truth field and its measured Z, so repeat
// traffic exercises both cache keyspaces: bit-identical R fields for
// /v1/measure factorization reuse, repeat geometries for /v1/recover warm
// starts.
func buildWorkload(geoms string, seed int64, tol float64, deadlineMS int64, measureFrac float64, n int) ([]workItem, error) {
	type geomData struct {
		name        string
		rows, cols  int
		rRows, zRow [][]float64
	}
	var gds []geomData
	for _, g := range strings.Split(geoms, ",") {
		g = strings.TrimSpace(g)
		var rows, cols int
		if _, err := fmt.Sscanf(g, "%dx%d", &rows, &cols); err != nil || rows < 2 || cols < 2 {
			return nil, fmt.Errorf("invalid geometry %q (want e.g. 5x5 with sides >= 2)", g)
		}
		r, z, err := parma.Synthesize(parma.MediumConfig{Rows: rows, Cols: cols, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", g, err)
		}
		gds = append(gds, geomData{name: g, rows: rows, cols: cols,
			rRows: fieldRows(r), zRow: fieldRows(z)})
	}
	if len(gds) == 0 {
		return nil, fmt.Errorf("no geometries given")
	}

	rng := rand.New(rand.NewSource(seed))
	items := make([]workItem, 0, n)
	for i := 0; i < n; i++ {
		gd := gds[rng.Intn(len(gds))]
		var it workItem
		it.geom = gd.name
		if rng.Float64() < measureFrac {
			body, err := json.Marshal(serve.MeasureRequest{
				Rows: gd.rows, Cols: gd.cols, R: gd.rRows, DeadlineMS: deadlineMS})
			if err != nil {
				return nil, err
			}
			it.path, it.body = "/v1/measure", body
		} else {
			body, err := json.Marshal(serve.RecoverRequest{
				Rows: gd.rows, Cols: gd.cols, Z: gd.zRow, Tol: tol, DeadlineMS: deadlineMS})
			if err != nil {
				return nil, err
			}
			it.path, it.body = "/v1/recover", body
		}
		items = append(items, it)
	}
	return items, nil
}

func fieldRows(f *parma.Field) [][]float64 {
	out := make([][]float64, f.Rows())
	for i := range out {
		row := make([]float64, f.Cols())
		for j := range row {
			row[j] = f.At(i, j)
		}
		out[i] = row
	}
	return out
}

func fire(client *http.Client, base, path string, body []byte) result {
	start := time.Now()
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return result{err: err, latency: time.Since(start), backend: base}
	}
	defer resp.Body.Close()
	var meta struct {
		Cache    string         `json:"cache"`
		Degraded bool           `json:"degraded"`
		Timings  *serve.Timings `json:"timings"`
		TraceID  string         `json:"trace_id"`
		Error    string         `json:"error"`
	}
	dec := json.NewDecoder(resp.Body)
	_ = dec.Decode(&meta)
	// X-Parma-Backend identifies which fleet worker answered when a
	// parma-router is in front; direct parmad targets fall back to the
	// target address itself.
	backend := resp.Header.Get("X-Parma-Backend")
	if backend == "" {
		backend = base
	}
	res := result{status: resp.StatusCode, latency: time.Since(start),
		cache: meta.Cache, degraded: meta.Degraded,
		timings: meta.Timings, traceID: meta.TraceID, backend: backend,
		retryAfter: resp.Header.Get("Retry-After")}
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, meta.Error)
	}
	return res
}

func report(w io.Writer, items []workItem, results []result, elapsed time.Duration) {
	lat := make([]time.Duration, 0, len(results))
	hits, failures, sheds, degraded := 0, 0, 0, 0
	perGeom := map[string]int{}
	for i, r := range results {
		lat = append(lat, r.latency)
		perGeom[items[i].geom]++
		if r.degraded {
			degraded++
		}
		if r.err != nil || r.status != http.StatusOK {
			if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
				sheds++
			}
			failures++
			continue
		}
		if r.cache == "hit" {
			hits++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		idx := int(p * float64(len(lat)-1))
		return lat[idx]
	}
	geomNames := make([]string, 0, len(perGeom))
	for g := range perGeom {
		geomNames = append(geomNames, g)
	}
	sort.Strings(geomNames)
	mix := make([]string, 0, len(geomNames))
	for _, g := range geomNames {
		mix = append(mix, fmt.Sprintf("%s:%d", g, perGeom[g]))
	}

	fmt.Fprintf(w, "requests:   %d (%d failed) in %s\n", len(results), failures, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput: %.1f req/s\n", float64(len(results))/elapsed.Seconds())
	fmt.Fprintf(w, "geometries: %s\n", strings.Join(mix, " "))
	fmt.Fprintf(w, "latency:    p50=%s p95=%s p99=%s max=%s\n",
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), q(1.0).Round(time.Microsecond))
	fmt.Fprintf(w, "cache:      %d/%d hits (%.0f%%)\n", hits, len(results),
		100*float64(hits)/float64(len(results)))
	// Per-backend response distribution with per-backend cache hit rate:
	// the observable difference between affinity routing (each geometry hot
	// on one worker) and round-robin (every worker lukewarm on everything).
	perBackend, backendHits := map[string]int{}, map[string]int{}
	for _, r := range results {
		if r.backend == "" {
			continue
		}
		perBackend[r.backend]++
		if r.status == http.StatusOK && r.cache == "hit" {
			backendHits[r.backend]++
		}
	}
	if len(perBackend) > 0 {
		names := make([]string, 0, len(perBackend))
		for b := range perBackend {
			names = append(names, b)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, b := range names {
			parts = append(parts, fmt.Sprintf("%s:%d(hit %.0f%%)", b, perBackend[b],
				100*float64(backendHits[b])/float64(perBackend[b])))
		}
		fmt.Fprintf(w, "backends:   %s\n", strings.Join(parts, " "))
	}
	if sheds > 0 || degraded > 0 {
		fmt.Fprintf(w, "resilience: %d shed (429/503), %d served degraded from stale cache\n", sheds, degraded)
	}
}

// checkAffinity asserts the response distribution looks like geometry-
// affinity routing: work spread over at least two backends overall, but
// each geometry's OK responses pinned — at most two distinct backends
// (the owner plus one spill/failover target) with a strict majority on
// one of them. Round-robin over three or more workers fails both ways.
func checkAffinity(items []workItem, results []result) error {
	perGeom := map[string]map[string]int{}
	overall := map[string]bool{}
	for i, r := range results {
		if r.err != nil || r.status != http.StatusOK || r.backend == "" {
			continue
		}
		g := items[i].geom
		if perGeom[g] == nil {
			perGeom[g] = map[string]int{}
		}
		perGeom[g][r.backend]++
		overall[r.backend] = true
	}
	if len(perGeom) == 0 {
		return fmt.Errorf("affinity check: no OK responses carried a backend label")
	}
	if len(overall) < 2 {
		return fmt.Errorf("affinity check: all traffic landed on %d backend(s); fleet is not spreading geometries", len(overall))
	}
	for g, counts := range perGeom {
		if len(counts) > 2 {
			return fmt.Errorf("affinity check: geometry %s answered by %d backends, want <= 2", g, len(counts))
		}
		total, top := 0, 0
		for _, c := range counts {
			total += c
			if c > top {
				top = c
			}
		}
		if 2*top < total {
			return fmt.Errorf("affinity check: geometry %s has no majority backend (%v)", g, counts)
		}
	}
	return nil
}

// timingsAddUp checks the latency-attribution acceptance bar: the stage
// breakdown must sum to within 10% (plus 2ms absolute slack for very fast
// requests) of the reported total.
func timingsAddUp(tm *serve.Timings) bool {
	if tm == nil {
		return false
	}
	sum := tm.QueueMS + tm.FactorMS + tm.SolveMS
	diff := tm.TotalMS - sum
	if diff < 0 {
		diff = -diff
	}
	return diff <= 0.1*tm.TotalMS+2
}

// checkPrewarmHits asserts warm handoff worked: the first OK /v1/recover
// for every geometry, in send order, must report a warm-start cache hit.
// On a cold worker that first request would be a miss, so a pass means
// the re-homed keys were prewarmed before traffic arrived.
func checkPrewarmHits(items []workItem, results []result) error {
	seen := map[string]bool{}
	for i, r := range results {
		if items[i].path != "/v1/recover" || seen[items[i].geom] {
			continue
		}
		if r.err != nil || r.status != http.StatusOK {
			continue // sheds don't reach a worker's cache
		}
		seen[items[i].geom] = true
		if r.cache != "hit" {
			return fmt.Errorf("prewarm check: first recover for %s was cache=%q, want \"hit\"", items[i].geom, r.cache)
		}
	}
	if len(seen) == 0 {
		return fmt.Errorf("prewarm check: no OK /v1/recover responses to judge")
	}
	return nil
}

// verifyMetrics scrapes /metrics and requires each of the wanted series
// substrings to be present.
func verifyMetrics(client *http.Client, base string, want []string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics returned HTTP %d", resp.StatusCode)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, w := range want {
		if !bytes.Contains(text, []byte(w)) {
			return fmt.Errorf("/metrics is missing series %s", w)
		}
	}
	return nil
}
