// Command parma-bench regenerates the paper's evaluation figures as data
// series (text tables or CSV). Each figure corresponds to one driver in
// internal/experiments; see EXPERIMENTS.md for the expected shapes.
//
// Usage:
//
//	parma-bench -figure 6                      # one figure, default sweep
//	parma-bench -figure all -csv               # everything, CSV output
//	parma-bench -figure 7 -sizes 10,20,50 -workers 2,4,8
//	parma-bench -figure 6 -profile native      # Go-native cost profile
//	parma-bench -figure 6 -json report.json    # machine-readable results
//
// The observability flags -trace, -metrics, -cpuprofile, -memprofile apply
// here too; with -json the report additionally embeds span rollups and
// metric snapshots from the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parma/internal/experiments"
	"parma/internal/obs"
)

func main() {
	figure := flag.String("figure", "all", "figure to regenerate: 6, 7, 8, 9, 10, or all")
	sizes := flag.String("sizes", "", "comma-separated array sizes (default: paper anchors)")
	workers := flag.String("workers", "", "comma-separated worker counts")
	ranks := flag.String("ranks", "", "comma-separated MPI rank counts")
	seed := flag.Int64("seed", 2022, "workload seed")
	profile := flag.String("profile", "python", "execution profile: python (paper-calibrated) or native")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonPath := flag.String("json", "", "write a machine-readable JSON report to this file")
	ob := obs.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	cfg := experiments.Config{Seed: *seed}
	var err error
	if cfg.Sizes, err = parseInts(*sizes); err != nil {
		fatal(err)
	}
	if cfg.Workers, err = parseInts(*workers); err != nil {
		fatal(err)
	}
	if cfg.Ranks, err = parseInts(*ranks); err != nil {
		fatal(err)
	}
	switch *profile {
	case "python":
		cfg.Profile = experiments.PythonProfile
	case "native":
		cfg.Profile = experiments.NativeProfile
	default:
		fatal(fmt.Errorf("unknown profile %q", *profile))
	}

	type driver struct {
		name string
		desc string
		run  func(experiments.Config) (*experiments.Table, error)
	}
	drivers := map[string]driver{
		"6":  {"Figure 6", "formation time: Parallel vs Balanced Parallel vs PyMP", experiments.Figure6},
		"7":  {"Figure 7", "PyMP compute time across parallelism k", experiments.Figure7},
		"8":  {"Figure 8", "memory usage distribution while forming and retaining the system", experiments.Figure8},
		"9":  {"Figure 9", "end-to-end time including writing equations to disk", experiments.Figure9},
		"10": {"Figure 10", "MPI strong scaling across rank counts", experiments.Figure10},
	}
	drivers["hetero"] = driver{
		"Heterogeneous cluster", "uniform vs speed-weighted partitioning (future-work extension)",
		func(cfg experiments.Config) (*experiments.Table, error) {
			hc := experiments.HeterogeneousConfig{Seed: cfg.Seed, Ranks: cfg.Ranks}
			if len(cfg.Sizes) > 0 {
				hc.N = cfg.Sizes[len(cfg.Sizes)-1]
			}
			return experiments.Heterogeneous(hc)
		},
	}
	drivers["noise"] = driver{
		"Noise robustness", "recovery error and detection F1 vs measurement noise (extension)",
		func(cfg experiments.Config) (*experiments.Table, error) {
			nc := experiments.NoiseConfig{Seed: cfg.Seed}
			if len(cfg.Sizes) > 0 {
				nc.N = cfg.Sizes[len(cfg.Sizes)-1]
			}
			return experiments.NoiseSweep(nc)
		},
	}
	drivers["inverse"] = driver{
		"Inverse methods", "LM recovery vs Landweber/LBP/Tikhonov baselines (§I ill-posedness)",
		func(cfg experiments.Config) (*experiments.Table, error) {
			ic := experiments.InverseConfig{Seed: cfg.Seed}
			if len(cfg.Sizes) > 0 {
				ic.N = cfg.Sizes[len(cfg.Sizes)-1]
			}
			return experiments.InverseComparison(ic)
		},
	}
	drivers["chunks"] = driver{
		"Chunk-size ablation", "fine-grained makespan vs chunk size (handout overhead vs tail balance)",
		func(cfg experiments.Config) (*experiments.Table, error) {
			cc := experiments.ChunkSweepConfig{Seed: cfg.Seed, Profile: cfg.Profile}
			if len(cfg.Sizes) > 0 {
				cc.N = cfg.Sizes[len(cfg.Sizes)-1]
			}
			if len(cfg.Workers) > 0 {
				cc.Workers = cfg.Workers[len(cfg.Workers)-1]
			}
			return experiments.ChunkSweep(cc)
		},
	}
	order := []string{"6", "7", "8", "9", "10"}

	selected := order
	if *figure != "all" {
		if _, ok := drivers[*figure]; !ok {
			fatal(fmt.Errorf("unknown figure %q (want 6..10, hetero, noise, inverse, chunks, or all)", *figure))
		}
		selected = []string{*figure}
	}
	err = ob.Run(func() error {
		var figures []figureReport
		for _, key := range selected {
			d := drivers[key]
			fmt.Printf("== %s: %s ==\n", d.name, d.desc)
			tbl, err := d.run(cfg)
			if err != nil {
				return err
			}
			if *csv {
				err = tbl.WriteCSV(os.Stdout)
			} else {
				err = tbl.Write(os.Stdout)
			}
			if err != nil {
				return err
			}
			fmt.Println()
			figures = append(figures, figureReport{
				Key: key, Name: d.name, Description: d.desc,
				Header: tbl.Header(), Rows: tbl.Rows(),
			})
		}
		if *jsonPath != "" {
			return writeJSONReport(*jsonPath, cfg, *figure, *profile, figures)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
}

// figureReport is one figure's table in the -json report.
type figureReport struct {
	Key         string     `json:"key"`
	Name        string     `json:"name"`
	Description string     `json:"description"`
	Header      []string   `json:"header"`
	Rows        [][]string `json:"rows"`
}

// jsonReport is the -json output schema: run configuration, every figure's
// series, and (when the run was traced) span rollups and metric snapshots.
type jsonReport struct {
	Schema  string               `json:"schema"`
	Figure  string               `json:"figure"`
	Seed    int64                `json:"seed"`
	Profile string               `json:"profile"`
	Sizes   []int                `json:"sizes,omitempty"`
	Workers []int                `json:"workers,omitempty"`
	Ranks   []int                `json:"ranks,omitempty"`
	Figures []figureReport       `json:"figures"`
	Spans   []obs.Rollup         `json:"spans,omitempty"`
	Metrics []obs.MetricSnapshot `json:"metrics,omitempty"`
}

func writeJSONReport(path string, cfg experiments.Config, figure, profile string, figures []figureReport) error {
	rep := jsonReport{
		Schema:  "parma-bench/v1",
		Figure:  figure,
		Seed:    cfg.Seed,
		Profile: profile,
		Sizes:   cfg.Sizes,
		Workers: cfg.Workers,
		Ranks:   cfg.Ranks,
		Figures: figures,
	}
	if rec := obs.Active(); rec != nil {
		rep.Spans = rec.Rollups()
		rep.Metrics = rec.Registry().Snapshot()
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "parma-bench: %v\n", err)
	os.Exit(1)
}
