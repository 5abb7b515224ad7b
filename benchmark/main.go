// Command benchmark is the repository's one benchmark: four named workloads
// (form-64, recover-64, serve-mixed, serve-series), end-to-end metrics from
// an untraced run, and per-layer metrics plus a Chrome trace from a traced
// run. See README.md in this directory and BENCHMARK.json at the root.
//
//	bash benchmark/run.sh                        every workload, end to end
//	bash benchmark/run.sh --trace 1              every workload, traced, with per-layer metrics
//	bash benchmark/run.sh --selfcheck            A/A: two sets on the same tree must agree
//	bash benchmark/run.sh --quick                small sizes, same code paths, numbers not comparable
//	bash benchmark/run.sh --workload recover-64 --seed 7 --seconds 28 --trace 0
//
// The last line of standard output is one JSON object per workload with the
// keys correct, attempted, failed and metrics; everything else goes to
// standard error and to benchmark/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const (
	defaultSeed    = 2022
	defaultSeconds = 28 // run_seconds in BENCHMARK.json
	quickSeconds   = 0.5
	// Set-up is repeated and its median reported: at least twice before the
	// measured region and once after it, and each time until setupMinSeconds
	// are spent or setupMaxReps is reached, so a set-up of a tenth of a
	// second is not read off three samples.
	setupMaxReps    = 8
	setupMinSeconds = 1.0
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's one-line answer.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of one run, written under benchmark/out/.
type record struct {
	Workload      string            `json:"workload"`
	Why           string            `json:"why"`
	Seed          int64             `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Traced        bool              `json:"traced"`
	NonComparable bool              `json:"non_comparable"` // quick mode
	Env           envRecord         `json:"env"`
	Noise         noiseRecord       `json:"noise"`
	Result        result            `json:"result"`
	Failures      []string          `json:"failures,omitempty"`
	Notes         map[string]string `json:"notes,omitempty"`
	// Ops are the raw operations the metrics were read from, for whoever
	// wants another statistic.
	Ops []opRecord `json:"ops,omitempty"`
}

// opRecord is one operation of an untraced run. Times are milliseconds
// since its phase began; latency is EndMS - DueMS.
type opRecord struct {
	Phase   string  `json:"phase"` // "closed" or "open"
	Class   string  `json:"class,omitempty"`
	Work    int     `json:"work,omitempty"` // iterations the program reported for the operation
	StartMS float64 `json:"start_ms"`
	DueMS   float64 `json:"due_ms"`
	EndMS   float64 `json:"end_ms"`
	Failed  bool    `json:"failed,omitempty"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all; see -list)")
	seed := fs.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long each run measures")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics and benchmark/out/trace-<workload>.json; 0: end-to-end metrics")
	list := fs.Bool("list", false, "print the workloads and why each is here")
	quick := fs.Bool("quick", false, "small sizes and a one-second run: same code paths, numbers not comparable")
	selfcheck := fs.Bool("selfcheck", false, "A/A: two alternating sets of runs on this tree; fail if the sets' medians of an end-to-end metric differ by more than its bound")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as generated from the tables in this program")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads() {
			fmt.Printf("%-13s %s\n", w.name, w.why)
		}
		return 0
	}
	if *manifest {
		data, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		os.Stdout.Write(data)
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if *quick && *seconds == defaultSeconds {
		*seconds = quickSeconds
	}
	selected := workloads()
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (see -list)\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg := config{root: root, binDir: filepath.Join(root, ".bench_build", "bin"), outDir: filepath.Join(root, "benchmark", "out"), seed: *seed, quick: *quick}
	if err := os.MkdirAll(cfg.binDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Built before any clock starts; every traced run boots a fleet too.
	if err := buildBinaries(root, cfg.binDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	if *selfcheck {
		return selfCheck(selected, cfg, *seconds, *trace == 1)
	}
	if *name == "" {
		// Each workload in a process of its own, as the driver runs them: a
		// workload's peak memory and heap state never leak into the next.
		code := 0
		for _, w := range selected {
			res, err := runChild(w, cfg, *seconds, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
		}
		return code
	}
	rec, err := runOne(selected[0], cfg, readEnv(root), *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	report(os.Stderr, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process of this same binary, echoes
// its result line and returns the parsed result.
func runChild(w workload, cfg config, seconds float64, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	fmt.Println(lines[len(lines)-1])
	return &res, nil
}

// findRoot walks up from the working directory to the go.mod of module
// parma: the program under test is built from there.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			first, _, _ := strings.Cut(string(data), "\n")
			if strings.TrimSpace(first) == "module parma" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module parma above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// runOne runs one workload, traced or not, and writes its record.
func runOne(w workload, cfg config, env envRecord, seconds float64, traced bool) (*record, error) {
	rec := &record{Workload: w.name, Why: w.why, Seed: cfg.seed, Seconds: seconds, Traced: traced,
		NonComparable: cfg.quick, Env: env, Notes: map[string]string{}}
	host0 := readHostCPU()
	rec.Noise.CalibMS = calibrate()
	var err error
	if traced {
		err = runTraced(w, cfg, seconds, rec)
	} else {
		err = runEndToEnd(w, cfg, seconds, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Noise.CalibMS = append(rec.Noise.CalibMS, calibrate()...)
	rec.Noise.MemBWMS = membwMS()
	rec.Noise.StealRatio = stealRatio(host0, readHostCPU())
	rec.Noise.judge()
	if traced {
		rec.Result.Metrics["host.steal_ratio"] = metricValue{rec.Noise.StealRatio, "ratio"}
		rec.Result.Metrics["host.calib_ms"] = metricValue{median(rec.Noise.CalibMS), "ms"}
		rec.Result.Metrics["host.membw_ms"] = metricValue{rec.Noise.MemBWMS, "ms"}
	}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		if _, ok := rec.Result.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	if len(rec.Result.Metrics) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(rec.Result.Metrics), len(defs))
	}
	rec.Result.Correct = rec.Result.Failed == 0 && len(rec.Failures) == 0
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	suffix := ""
	if traced {
		suffix = "-traced"
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "result-"+w.name+suffix+".json"), data, 0o644); err != nil {
		return nil, err
	}
	return rec, nil
}

// throughputAndLatency reads the two headline numbers off a measurement;
// failed operations count for neither.
func throughputAndLatency(m *measurement) (opsPerS, p50 float64, lat []float64) {
	var ends []time.Duration
	for _, o := range m.closed {
		if !o.failed {
			ends = append(ends, o.end)
		}
	}
	for _, o := range m.latencyOps() {
		if !o.failed {
			lat = append(lat, o.latencyMS())
		}
	}
	return sliceThroughput(ends), median(lat), lat
}

// setUpRepeatedly sets the workload up at least minReps times, and until
// setupMinSeconds are spent or setupMaxReps is reached, appending each
// set-up's time to times. It closes every instance but the last, which it
// returns.
func setUpRepeatedly(w workload, cfg config, minReps int, times *[]float64) (instance, error) {
	var in instance
	var spent float64
	for n := 0; n < minReps || (spent < setupMinSeconds && n < setupMaxReps); n++ {
		if in != nil {
			in.close()
		}
		t := time.Now()
		var err error
		if in, err = w.setup(cfg); err != nil {
			return nil, err
		}
		*times = append(*times, time.Since(t).Seconds())
		spent += (*times)[len(*times)-1]
		if cfg.quick {
			break
		}
	}
	return in, nil
}

func runEndToEnd(w workload, cfg config, seconds float64, rec *record) error {
	// Set-ups are timed before the measured region and again after it: the
	// machine's speed shifts within seconds, and one end of the run alone
	// would report whichever state it met there.
	var setups []float64
	in, err := setUpRepeatedly(w, cfg, 2, &setups)
	if err != nil {
		return err
	}
	m := in.run(seconds, nil)
	peakRSS := math.Max(procPeakRSS(0), maxRSS(in.pids()))
	in.close()
	if !cfg.quick {
		again, err := setUpRepeatedly(w, cfg, 1, &setups)
		if err != nil {
			return err
		}
		again.close()
	}
	opsPerS, p50, lat := throughputAndLatency(m)
	rec.Result = result{Attempted: m.attempted(), Failed: m.failed(), Metrics: map[string]metricValue{
		"setup_s":           {median(setups), "s"},
		"ops_per_s":         {opsPerS, "1/s"},
		"op_latency_ms_p50": {p50, "ms"},
		"cpu_s_per_op":      {m.cpuS / float64(m.attempted()), "s"},
	}}
	rec.Notes["peak_rss_mb"] = fmt.Sprintf("%.1f", peakRSS)
	rec.Failures = m.failures
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, o := range m.open {
		rec.Ops = append(rec.Ops, opRecord{Phase: "open", Class: o.class, Work: o.work, StartMS: ms(o.start), DueMS: ms(o.due), EndMS: ms(o.end), Failed: o.failed})
	}
	for _, o := range m.closed {
		rec.Ops = append(rec.Ops, opRecord{Phase: "closed", Class: o.class, Work: o.work, StartMS: ms(o.start), DueMS: ms(o.due), EndMS: ms(o.end), Failed: o.failed})
	}
	rec.Notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))
	rec.Notes["op_latency_ms_p50"] = fmt.Sprintf("n=%d", len(lat))
	rec.Notes["ops_per_s"] = fmt.Sprintf("n=%d closed-loop operations", len(m.closed))
	return nil
}

// runTraced measures the workload untraced, traced and untraced again, a
// sixth of the time each, so that neither side of the overhead comparison
// is the one that always runs on the warmer caches; writes the traced
// part's spans as a Chrome trace; and spends the rest on the layer probes.
func runTraced(w workload, cfg config, seconds float64, rec *record) error {
	in, err := w.setup(cfg)
	if err != nil {
		return err
	}
	defer in.close()
	out := map[string]float64{}

	before := in.run(seconds/6, nil)
	spans := newRecorder()
	m := in.run(seconds/6, spans)
	workloadSpans := spans.snapshot()
	after := in.run(seconds/6, nil)
	rec.Result = result{Attempted: before.attempted() + m.attempted() + after.attempted(),
		Failed: before.failed() + m.failed() + after.failed()}
	rec.Failures = append(append(append(rec.Failures, before.failures...), m.failures...), after.failures...)

	beforeOps, _, _ := throughputAndLatency(before)
	afterOps, _, _ := throughputAndLatency(after)
	tracedOps, _, lat := throughputAndLatency(m)
	out["bench.trace_overhead_ratio"] = (beforeOps + afterOps) / 2 / tracedOps
	out["bench.span_coverage"] = coverage(workloadSpans, m.region)
	// Root spans belong to the harness or its load generator; their self
	// time is what no layer call or reply timing accounts for.
	self := layerSelfSeconds(workloadSpans)
	out["bench.unattributed_share"] = (self["harness"] + self["loadgen"]) / (m.region.hi - m.region.lo).Seconds() / float64(len(in.tracks()))
	pct, tail, n := tailPercentile(lat)
	out["loadgen.latency_ms_tail"] = tail
	out["loadgen.latency_tail_pct"] = float64(pct)
	rec.Notes["loadgen.latency_ms_tail"] = fmt.Sprintf("p%d of n=%d", pct, n)
	var late []float64
	for _, o := range append(append([]op(nil), m.closed...), m.open...) {
		late = append(late, float64(o.start-o.due)/float64(time.Millisecond))
	}
	out["loadgen.late_ms_p95"] = quantile(late, 0.95)
	out["bench.peak_rss_mb"] = math.Max(procPeakRSS(0), maxRSS(in.pids()))

	// serve and fleet: the workload's own requests when it is served,
	// otherwise a short serve-mixed run on a fresh fleet.
	if sv, ok := in.(*serveInstance); ok {
		// The program runs in other processes: the harness's CPU is the
		// generator's.
		out["loadgen.cpu_share"] = m.harnessCPU / m.cpuS
		for k, v := range m.layer {
			out[k] = v
		}
		sv.hopAndHTTP(out, m.exchanges, seconds/8, m)
	} else {
		// The program runs inside the harness process: the generator's share
		// is the single-threaded time outside the calls into it.
		out["loadgen.cpu_share"] = self["harness"] / m.cpuS
		if err := serveProbe(cfg, spans, out, rec); err != nil {
			return err
		}
	}
	if err := runProbes(cfg, spans, out); err != nil {
		return err
	}

	path, err := writeChromeTrace(cfg.outDir, w.name, spans.snapshot(), in.tracks())
	if err != nil {
		return err
	}
	rec.Notes["trace"] = path
	rec.Result.Metrics = map[string]metricValue{}
	for _, d := range perLayerMetrics {
		if v, ok := out[d.Name]; ok {
			rec.Result.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	return nil
}

// serveProbe fills the serve and fleet metrics for a workload that serves
// nothing: three seconds of serve-mixed on a fresh fleet.
func serveProbe(cfg config, spans *recorder, out map[string]float64, rec *record) error {
	var perr error
	spanned(spans, "serve", "probe serve+fleet", func() {
		seconds := 3.0
		if cfg.quick {
			seconds = quickSeconds
		}
		in, err := serveMixed.setup(cfg)
		if err != nil {
			perr = err
			return
		}
		defer in.close()
		m := in.run(seconds, nil)
		for k, v := range m.layer {
			out[k] = v
		}
		in.(*serveInstance).hopAndHTTP(out, m.exchanges, seconds/3, m)
		rec.Failures = append(rec.Failures, m.failures...)
	})
	return perr
}

// report prints a run for a human: environment, noise verdict, metrics.
func report(w *os.File, rec *record) {
	mode := "end-to-end"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %.0f s) ==\n", rec.Workload, mode, rec.Seed, rec.Seconds)
	e := rec.Env
	fmt.Fprintf(w, "env: nproc=%d gomaxprocs=%d cpu=%q go=%s git=%s kernel=%s\n",
		e.NProc, e.GOMAXPROCS, e.CPUModel, e.GoVersion, e.GitSHA, e.Kernel)
	verdict := "quiet"
	if rec.Noise.Noisy {
		verdict = "NOISY: steal share above 0.10 or spin-loop probes more than 1.5x apart, do not read a regression off this run"
	}
	sorted := append([]float64(nil), rec.Noise.CalibMS...)
	sort.Float64s(sorted)
	fmt.Fprintf(w, "noise: host.steal_ratio=%.4f host.calib_ms=%.2f (probes %.2f..%.2f) host.membw_ms=%.2f (%s)\n",
		rec.Noise.StealRatio, median(sorted), sorted[0], sorted[len(sorted)-1], rec.Noise.MemBWMS, verdict)
	if rec.NonComparable {
		fmt.Fprintln(w, "quick mode: numbers are NOT comparable with a full run")
	}
	keys := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := rec.Result.Metrics[k]
		note := ""
		if n := rec.Notes[k]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s%s\n", k, v.Value, v.Unit, note)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAIL:", f)
	}
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of the same tree and seed.
var exactCounts = []string{"solver.lm_iters", "solver.cg_iters", "solver.nnz", "sparse.cg_probe_iters",
	"kirchhoff.bytes_per_eq", "mpi.msgs", "mpi.bytes"}

// selfCheckRounds is how many runs of each workload make one set of the
// A/A check: single runs on a shared machine differ by more than any bound,
// their medians do not.
const selfCheckRounds = 3

// selfCheck is the A/A test a benchmark must pass before it may judge an
// A/B: two sets of runs of the same tree and seed, the sets taking turns
// and every turn reversing the workload order. It fails if the two sets'
// medians of any end-to-end metric differ by more than the metric's bound.
// With traced set it compares one traced run per set and requires the
// exact counts to repeat.
func selfCheck(selected []workload, cfg config, seconds float64, traced bool) int {
	rounds := selfCheckRounds
	if traced {
		rounds = 1
	}
	type set map[string]map[string][]float64 // workload -> metric -> one value per round
	sets := [2]set{{}, {}}
	code := 0
	for turn := 0; turn < 2*rounds; turn++ {
		order := append([]workload(nil), selected...)
		if turn%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		into := sets[turn%2]
		for _, w := range order {
			res, err := runChild(w, cfg, seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "%s: incorrect outputs\n", w.name)
				code = 1
			}
			if into[w.name] == nil {
				into[w.name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				into[w.name][k] = append(into[w.name][k], v.Value)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "\n== A/A: medians of %d run(s) per set ==\n", rounds)
	for _, w := range selected {
		a, b := sets[0][w.name], sets[1][w.name]
		if traced {
			for _, k := range exactCounts {
				verdict := "repeats"
				if a[k][0] != b[k][0] {
					verdict = "DIFFERS: an exact count must repeat"
					code = 1
				}
				fmt.Fprintf(os.Stderr, "%-13s %-24s %12g %12g  %s\n", w.name, k, a[k][0], b[k][0], verdict)
			}
			continue
		}
		for _, d := range endToEndMetrics {
			va, vb := median(a[d.Name]), median(b[d.Name])
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if diff > d.Bound {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(os.Stderr, "%-13s %-20s %12.6g %12.6g  diff %.3f  bound %.2f  %s\n", w.name, d.Name, va, vb, diff, d.Bound, verdict)
		}
	}
	return code
}
