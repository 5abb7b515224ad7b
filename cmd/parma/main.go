// Command parma is the command-line frontend of the Parma library: synthetic
// workload generation, topological analysis, parallel equation formation,
// resistance recovery, and anomaly detection.
//
// Usage:
//
//	parma gen       -rows 16 -cols 16 -seed 1 [-anomaly i,j,ri,rj,factor] -r r.txt -z z.txt
//	parma betti     -rows 16 -cols 16
//	parma census    -rows 16 -cols 16
//	parma paths     -n 4
//	parma equations -z z.txt [-strategy pymp] [-workers 8] [-out dir | -stdout]
//	parma solve     -z z.txt -o recovered.txt [-trace t.json] [-metrics m.txt]
//	parma detect    -r recovered.txt [-factor 2.5 | -threshold 11550]
//	parma tracecheck t.json
//
// Every command accepts the observability flags -trace, -metrics,
// -cpuprofile, and -memprofile (see docs/observability.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"parma/internal/anomaly"
	"parma/internal/core"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/hyper"
	"parma/internal/kirchhoff"
	"parma/internal/mpi"
	"parma/internal/obs"
	"parma/internal/parallel"
	"parma/internal/paths"
	"parma/internal/sched"
	"parma/internal/solver"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "betti":
		err = cmdBetti(os.Args[2:])
	case "census":
		err = cmdCensus(os.Args[2:])
	case "paths":
		err = cmdPaths(os.Args[2:])
	case "equations":
		err = cmdEquations(os.Args[2:])
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "diagnose":
		err = cmdDiagnose(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "hyper":
		err = cmdHyper(os.Args[2:])
	case "tracecheck":
		err = cmdTraceCheck(os.Args[2:])
	case "tracemerge":
		err = cmdTraceMerge(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "parma: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "parma: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `parma <command> [flags]

commands:
  gen        synthesize a medium and its measured Z matrix
  betti      print the topological report of an array
  census     print the joint-constraint system size
  paths      print the exponential path census (the §II-C wall)
  equations  form the equation system and write it to disk
  solve      recover the resistance field from measurements
  detect     find anomalous regions in a resistance field
  check      verify a resistance field against measurements (residuals)
  diagnose   topological fault diagnosis of a defective array
  export     render a field as a PGM heatmap or an array as Graphviz DOT
  hyper      censuses of k-dimensional MEA lattices
  tracecheck validate a Chrome trace produced by -trace and summarize it
  tracemerge join per-process Chrome traces into one timeline

every command takes -trace, -metrics, -cpuprofile, -memprofile
run 'parma <command> -h' for per-command flags`)
}

func writeFieldFile(path string, f *grid.Field) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	return grid.WriteField(out, f)
}

func readFieldFile(path string) (*grid.Field, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return grid.ReadField(in)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	rows := fs.Int("rows", 16, "horizontal wires")
	cols := fs.Int("cols", 16, "vertical wires")
	seed := fs.Int64("seed", 1, "generator seed")
	noise := fs.Float64("noise", 0, "relative Gaussian noise std-dev")
	rOut := fs.String("r", "r.txt", "output path for the ground-truth field")
	zOut := fs.String("z", "z.txt", "output path for the measured Z matrix")
	var anomalies anomalyFlags
	fs.Var(&anomalies, "anomaly", "anomaly as i,j,ri,rj,factor (repeatable)")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error {
		cfg := gen.Config{Rows: *rows, Cols: *cols, Seed: *seed, NoiseStdDev: *noise, Anomalies: anomalies}
		r, z, err := gen.Measurements(cfg)
		if err != nil {
			return err
		}
		if err := writeFieldFile(*rOut, r); err != nil {
			return err
		}
		if err := writeFieldFile(*zOut, z); err != nil {
			return err
		}
		fmt.Printf("wrote %s (ground truth, [%.4g, %.4g] kΩ) and %s (measured Z)\n",
			*rOut, r.Min(), r.Max(), *zOut)
		return nil
	})
}

// anomalyFlags parses repeated -anomaly i,j,ri,rj,factor flags.
type anomalyFlags []gen.Anomaly

func (a *anomalyFlags) String() string { return fmt.Sprint(*a) }

func (a *anomalyFlags) Set(s string) error {
	parts := strings.Split(s, ",")
	if len(parts) != 5 {
		return fmt.Errorf("want i,j,ri,rj,factor, got %q", s)
	}
	vals := make([]float64, 5)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	*a = append(*a, gen.Anomaly{
		CenterI: vals[0], CenterJ: vals[1],
		RadiusI: vals[2], RadiusJ: vals[3], Factor: vals[4],
	})
	return nil
}

func cmdBetti(args []string) error {
	fs := flag.NewFlagSet("betti", flag.ExitOnError)
	rows := fs.Int("rows", 16, "horizontal wires")
	cols := fs.Int("cols", 16, "vertical wires")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error {
		a := grid.New(*rows, *cols)
		rep := core.Analyze(a)
		fmt.Printf("array:        %v\n", a)
		fmt.Printf("simplices:    %d vertices, %d edges (dimension-1 complex)\n", rep.Simplices0, rep.Simplices1)
		fmt.Printf("β₀:           %d (connected components)\n", rep.Betti0)
		fmt.Printf("β₁:           %d (independent Kirchhoff loops)\n", rep.Betti1)
		fmt.Printf("cyclomatic:   %d (Maxwell cross-check)\n", rep.Cyclomatic)
		fmt.Printf("euler χ:      %d\n", rep.Euler)
		fmt.Printf("cycle basis:  %d fundamental cycles\n", rep.CycleBasisSize)
		if err := core.VerifyInvariants(a); err != nil {
			return err
		}
		fmt.Println("invariants:   all §III checks hold")
		return nil
	})
}

func cmdCensus(args []string) error {
	fs := flag.NewFlagSet("census", flag.ExitOnError)
	rows := fs.Int("rows", 16, "horizontal wires")
	cols := fs.Int("cols", 16, "vertical wires")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)
	return ob.Run(func() error { return runCensus(*rows, *cols) })
}

func runCensus(rows, cols int) error {
	c := kirchhoff.SystemCensus(grid.New(rows, cols))
	fmt.Printf("pairs:              %d\n", c.Pairs)
	fmt.Printf("equations per pair: %d\n", c.EquationsPerPair)
	fmt.Printf("equations total:    %d\n", c.Equations)
	fmt.Printf("unknown R:          %d\n", c.UnknownR)
	fmt.Printf("unknown Ua:         %d\n", c.UnknownUa)
	fmt.Printf("unknown Ub:         %d\n", c.UnknownUb)
	fmt.Printf("unknowns total:     %d\n", c.Unknowns)
	return nil
}

func cmdPaths(args []string) error {
	fs := flag.NewFlagSet("paths", flag.ExitOnError)
	n := fs.Int("n", 4, "array size")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error {
		perPair := paths.CountPairPaths(*n, *n)
		fmt.Printf("simple paths per wire pair:   %d\n", perPair)
		fmt.Printf("paper's n^(n-1) estimate:     %d\n", paths.PaperEstimate(*n)/uint64(*n)/uint64(*n))
		fmt.Printf("storage for all paths:        ~%d bytes\n", paths.StorageBytes(*n))
		census := kirchhoff.SystemCensus(grid.NewSquare(*n))
		fmt.Printf("joint-constraint equations:   %d (polynomial alternative)\n", census.Equations)
		return nil
	})
}

func cmdEquations(args []string) error {
	fs := flag.NewFlagSet("equations", flag.ExitOnError)
	zPath := fs.String("z", "z.txt", "measured Z matrix file")
	strategy := fs.String("strategy", "pymp", "single-thread|parallel|balanced-parallel|work-stealing|pymp")
	workers := fs.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	outDir := fs.String("out", "", "shard directory (default: print summary only)")
	toStdout := fs.Bool("stdout", false, "write equations to stdout instead")
	voltage := fs.Float64("voltage", gen.SourceVoltage, "source voltage")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error {
		z, err := readFieldFile(*zPath)
		if err != nil {
			return err
		}
		a := grid.New(z.Rows(), z.Cols())
		p, err := kirchhoff.NewProblem(a, z, *voltage)
		if err != nil {
			return err
		}
		if *toStdout {
			res := parallel.Serial{}.Run(p, parallel.Options{Collect: true})
			_, err := kirchhoff.WriteSystem(os.Stdout, res.Equations)
			return err
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			bytes, err := parallel.WriteSharded(p, *outDir, *workers, sched.Dynamic, 0)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %d bytes of equations to %s\n", bytes, *outDir)
			return nil
		}
		s, err := strategyByName(*strategy)
		if err != nil {
			return err
		}
		res := s.Run(p, parallel.Options{Workers: *workers})
		fmt.Printf("strategy %s formed %d equations (hash %016x)\n", res.Strategy, res.Count, res.Hash)
		return nil
	})
}

func strategyByName(name string) (parallel.Strategy, error) {
	for _, cand := range parallel.All() {
		if cand.Name() == name {
			return cand, nil
		}
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

// cmdSolve runs the full pipeline: joint-constraint formation with a
// parallel strategy (sanity check plus the formation/parallel spans on a
// traced run), a distributed-formation cross-check on a simulated MPI
// world, then Levenberg-Marquardt recovery.
func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	zPath := fs.String("z", "z.txt", "measured Z matrix file")
	out := fs.String("o", "recovered.txt", "output path for the recovered field")
	tol := fs.Float64("tol", 1e-8, "relative residual target")
	strategy := fs.String("strategy", "pymp", "formation strategy for the pre-solve validation pass")
	workers := fs.Int("workers", 0, "formation worker count (0 = GOMAXPROCS)")
	ranks := fs.Int("ranks", 4, "simulated MPI ranks for the formation cross-check (<2 disables)")
	voltage := fs.Float64("voltage", gen.SourceVoltage, "source voltage")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error {
		z, err := readFieldFile(*zPath)
		if err != nil {
			return err
		}
		a := grid.New(z.Rows(), z.Cols())

		p, err := kirchhoff.NewProblem(a, z, *voltage)
		if err != nil {
			return err
		}
		s, err := strategyByName(*strategy)
		if err != nil {
			return err
		}
		formed := s.Run(p, parallel.Options{Workers: *workers})
		fmt.Printf("formed %d equations via %s (hash %016x)\n", formed.Count, formed.Strategy, formed.Hash)

		if *ranks > 1 {
			world := mpi.NewWorld(*ranks, mpi.FDRInfiniBand)
			distTotal := 0
			errs := world.Run(func(c *mpi.Comm) error {
				fr, err := mpi.DistributedFormation(c, p)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					distTotal = fr.TotalEquations
				}
				return nil
			})
			if err := mpi.FirstError(errs); err != nil {
				return err
			}
			if distTotal != formed.Count {
				return fmt.Errorf("distributed formation over %d ranks produced %d equations, strategy produced %d",
					*ranks, distTotal, formed.Count)
			}
			fmt.Printf("distributed formation over %d simulated ranks agrees (%d equations)\n", *ranks, distTotal)
		}

		res, err := solver.Recover(context.Background(), a, z, solver.RecoverOptions{Tol: *tol})
		if err != nil {
			return fmt.Errorf("%w (residual %.3g after %d iterations)", err, res.Residual, res.Iterations)
		}
		if err := writeFieldFile(*out, res.R); err != nil {
			return err
		}
		fmt.Printf("recovered %dx%d field in %d iterations (residual %.3g) -> %s\n",
			res.R.Rows(), res.R.Cols(), res.Iterations, res.Residual, *out)
		return nil
	})
}

// stringListFlag collects a repeatable string flag.
type stringListFlag []string

func (s *stringListFlag) String() string { return strings.Join(*s, ",") }
func (s *stringListFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// cmdTraceCheck validates a Chrome trace written by -trace and prints what
// it contains — the obs-smoke and trace-smoke make targets' verifier. With
// -distributed it additionally checks cross-process span parenting: every
// trace id in the (typically merged) file must form exactly one connected
// tree, i.e. each traced request stayed one request across every rank that
// served it.
func cmdTraceCheck(args []string) error {
	fs := flag.NewFlagSet("tracecheck", flag.ExitOnError)
	distributed := fs.Bool("distributed", false, "validate cross-process span parenting (one connected tree per trace id)")
	var require stringListFlag
	fs.Var(&require, "require", "with -distributed: span name that must appear inside a single tree (repeatable)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: parma tracecheck [-distributed [-require name]...] <trace.json>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if !*distributed {
		sum, err := obs.ValidateTrace(data)
		if err != nil {
			return err
		}
		fmt.Printf("valid Chrome trace: %d events on %d tracks, %d span names\n",
			sum.Events, sum.Tracks, len(sum.Names))
		for _, n := range sum.Names {
			fmt.Printf("  %s\n", n)
		}
		return nil
	}
	sum, err := obs.ValidateDistributedTrace(data)
	if err != nil {
		return err
	}
	fmt.Printf("valid distributed trace: %d connected tree(s), %d untraced span(s)\n",
		len(sum.Trees), sum.Untraced)
	for _, tree := range sum.Trees {
		fmt.Printf("  trace %s root %s: %d spans across %d process(es)\n",
			tree.Trace, tree.Root, tree.Spans, tree.Pids)
	}
	if len(require) > 0 {
		// At least one tree must contain every required span name: the
		// request's path through the stack is connected, not scattered
		// across disjoint trees.
		best := -1
		for _, tree := range sum.Trees {
			have := 0
			for _, want := range require {
				for _, n := range tree.Names {
					if n == want {
						have++
						break
					}
				}
			}
			if have > best {
				best = have
			}
			if have == len(require) {
				fmt.Printf("  required spans %v all inside trace %s\n", []string(require), tree.Trace)
				return nil
			}
		}
		return fmt.Errorf("no single tree contains all of %v (best tree has %d of %d)",
			[]string(require), best, len(require))
	}
	return nil
}

// cmdTraceMerge joins per-process Chrome trace files (one per MPI rank, or
// daemon + ranks) into one timeline, remapping each input to its own pid so
// the processes render side by side and cross-rank trees validate.
func cmdTraceMerge(args []string) error {
	fs := flag.NewFlagSet("tracemerge", flag.ExitOnError)
	out := fs.String("o", "merged-trace.json", "output file")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: parma tracemerge [-o merged.json] <trace.json>...")
	}
	inputs := make([][]byte, fs.NArg())
	names := make([]string, fs.NArg())
	for i, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		inputs[i] = data
		names[i] = path
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := obs.MergeChromeTraces(f, inputs, names); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("merged %d trace(s) into %s\n", len(inputs), *out)
	return nil
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	rows := fs.Int("rows", 16, "horizontal wires")
	cols := fs.Int("cols", 16, "vertical wires")
	var dead resistorListFlag
	fs.Var(&dead, "dead", "dead resistor as i,j (repeatable)")
	deadRow := fs.Int("dead-row", -1, "kill every resistor on this horizontal wire")
	deadCol := fs.Int("dead-col", -1, "kill every resistor on this vertical wire")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error {
		return runDiagnose(*rows, *cols, dead, *deadRow, *deadCol)
	})
}

func runDiagnose(rows, cols int, dead resistorListFlag, deadRow, deadCol int) error {
	a := grid.New(rows, cols)
	mask := grid.FullMaskFor(a)
	for _, d := range dead {
		mask.Disable(d[0], d[1])
	}
	if deadRow >= 0 {
		mask.DisableWire(true, deadRow)
	}
	if deadCol >= 0 {
		mask.DisableWire(false, deadCol)
	}
	rep := core.Diagnose(a, mask)
	fmt.Printf("missing resistors: %d of %d\n", rep.MissingResistors, a.Resistors())
	fmt.Printf("components (β₀):   %d\n", rep.Betti0)
	fmt.Printf("loops (β₁):        %d (%d lost to defects)\n", rep.Betti1, rep.LostLoops)
	if len(rep.IsolatedWires) == 0 {
		fmt.Println("dead electrodes:   none")
	} else {
		for _, w := range rep.IsolatedWires {
			if w.Horizontal {
				fmt.Printf("dead electrode:    horizontal wire %s\n", grid.HorizontalLabel(w.Index))
			} else {
				fmt.Printf("dead electrode:    vertical wire %s\n", grid.VerticalLabel(w.Index))
			}
		}
	}
	if rep.FullyFunctional {
		fmt.Println("verdict:           fully functional")
	} else if rep.Betti0 > 1 {
		fmt.Println("verdict:           device PARTITIONED — some pairs unmeasurable")
	} else {
		fmt.Println("verdict:           degraded but fully measurable")
	}
	return nil
}

// resistorListFlag parses repeated -dead i,j flags.
type resistorListFlag [][2]int

func (r *resistorListFlag) String() string { return fmt.Sprint(*r) }

func (r *resistorListFlag) Set(s string) error {
	var i, j int
	if _, err := fmt.Sscanf(s, "%d,%d", &i, &j); err != nil {
		return fmt.Errorf("want i,j, got %q", s)
	}
	*r = append(*r, [2]int{i, j})
	return nil
}

func cmdHyper(args []string) error {
	fs := flag.NewFlagSet("hyper", flag.ExitOnError)
	dims := fs.String("dims", "10,10,10", "comma-separated lattice extents")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error { return runHyper(os.Stdout, *dims) })
}

func runHyper(w io.Writer, dims string) error {
	var extents []int
	for _, part := range strings.Split(dims, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad -dims: %v", err)
		}
		extents = append(extents, v)
	}
	if err := checkLatticeSize(extents); err != nil {
		return fmt.Errorf("bad -dims %s: %v", dims, err)
	}
	l := hyper.NewLattice(extents...)
	fmt.Fprintf(w, "%d-dimensional MEA lattice %v\n", l.K(), l.Dims())
	fmt.Fprintf(w, "points (resistors):   %d\n", l.Points())
	fmt.Fprintf(w, "edges:                %d\n", l.Edges())
	fmt.Fprintf(w, "unit cells (n-1)^k:   %d  (the paper's parallel work units)\n", l.UnitCells())
	fmt.Fprintf(w, "cycle rank β₁:        %d\n", l.CycleRank())
	c := l.TheoreticalComplexity()
	fmt.Fprintf(w, "complexity:           O(n^%d) sequential / %d units -> O(n^%d) parallel\n",
		c.SeqExponent, c.ParallelUnits, c.ParExponent)
	if l.K() == 2 {
		fmt.Fprintln(w, "note: in 2D, unit cells and cycle rank coincide exactly")
	} else if l.UnitCells() != l.CycleRank() {
		fmt.Fprintln(w, "note: beyond 2D the graph cycle space exceeds the unit-cell count")
	}
	return nil
}

// checkLatticeSize rejects the extents hyper.NewLattice panics on (any
// below 1) and lattices whose point count Π nᵢ or edge count
// Σ (n_a − 1)·Π_{b≠a} n_b does not fit in an int. Every other count the
// census prints is at most one of those two.
func checkLatticeSize(extents []int) error {
	points := 1
	for _, d := range extents {
		if d < 1 {
			return fmt.Errorf("extent %d, want at least 1", d)
		}
		if points > math.MaxInt/d {
			return errors.New("the point count overflows int")
		}
		points *= d
	}
	edges := 0
	for _, d := range extents {
		term := points / d * (d - 1)
		if edges > math.MaxInt-term {
			return errors.New("the edge count overflows int")
		}
		edges += term
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	rPath := fs.String("r", "", "field file to render as a PGM heatmap")
	rows := fs.Int("rows", 0, "with -graph: horizontal wires")
	cols := fs.Int("cols", 0, "with -graph: vertical wires")
	graph := fs.String("graph", "", "render an array graph instead: joint or wire")
	out := fs.String("o", "", "output path (default stdout)")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error {
		var dst *os.File = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			dst = f
		}
		if *graph != "" {
			if *rows < 1 || *cols < 1 {
				return fmt.Errorf("export -graph needs -rows and -cols")
			}
			a := grid.New(*rows, *cols)
			switch *graph {
			case "joint":
				return a.JointGraph().WriteDOT(dst, fmt.Sprintf("mea_%dx%d_joints", *rows, *cols))
			case "wire":
				return a.WireGraph().WriteDOT(dst, fmt.Sprintf("mea_%dx%d_wires", *rows, *cols))
			default:
				return fmt.Errorf("unknown graph kind %q (want joint or wire)", *graph)
			}
		}
		if *rPath == "" {
			return fmt.Errorf("export needs -r <field> or -graph joint|wire")
		}
		f, err := readFieldFile(*rPath)
		if err != nil {
			return err
		}
		return grid.WritePGM(dst, f)
	})
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	zPath := fs.String("z", "z.txt", "measured Z matrix file")
	rPath := fs.String("r", "recovered.txt", "candidate resistance field file")
	voltage := fs.Float64("voltage", gen.SourceVoltage, "source voltage")
	tol := fs.Float64("tol", 1e-6, "acceptable max relative residual")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error {
		z, err := readFieldFile(*zPath)
		if err != nil {
			return err
		}
		r, err := readFieldFile(*rPath)
		if err != nil {
			return err
		}
		a := grid.New(z.Rows(), z.Cols())
		p, err := kirchhoff.NewProblem(a, z, *voltage)
		if err != nil {
			return err
		}
		st, err := kirchhoff.GroundTruthState(a, r, *voltage)
		if err != nil {
			return err
		}
		eqs := p.FormAll()
		worst := 0.0
		for _, e := range eqs {
			scale := *voltage / z.At(e.PairI, e.PairJ)
			if rel := e.Residual(st) / scale; rel > worst || -rel > worst {
				if rel < 0 {
					rel = -rel
				}
				worst = rel
			}
		}
		fmt.Printf("checked %d equations: max relative residual %.3e\n", len(eqs), worst)
		if worst > *tol {
			return fmt.Errorf("field does not satisfy the measurements (residual %.3e > %.3e)", worst, *tol)
		}
		fmt.Println("field is consistent with the measurements")
		return nil
	})
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	rPath := fs.String("r", "recovered.txt", "resistance field file")
	factor := fs.Float64("factor", 2.5, "relative threshold over the median")
	threshold := fs.Float64("threshold", 0, "absolute threshold (overrides -factor)")
	minSize := fs.Int("min-size", 1, "minimum region size")
	ob := obs.AddCLIFlags(fs)
	fs.Parse(args)

	return ob.Run(func() error {
		f, err := readFieldFile(*rPath)
		if err != nil {
			return err
		}
		det := anomaly.Detect(f, anomaly.Options{
			Factor: *factor, AbsoluteThreshold: *threshold, MinRegionSize: *minSize,
		})
		fmt.Printf("threshold %.4g kΩ, %d region(s)\n", det.Threshold, len(det.Regions))
		for i, reg := range det.Regions {
			fmt.Printf("  region %d: %d cells, peak %.4g kΩ, seed (%d,%d)\n",
				i, reg.Size(), reg.PeakValue, reg.Cells[0][0], reg.Cells[0][1])
		}
		return nil
	})
}
