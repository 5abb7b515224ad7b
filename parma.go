// Package parma is a Go implementation of Parma: topological modeling and
// parallelization of multidimensional data on microelectrode arrays (MEAs).
//
// An m x n MEA has m horizontal and n vertical wires joined by m·n
// point-wise resistors. Parametrizing the device — recovering the unknown
// resistances R from the measured pairwise end-to-end resistances Z — is
// the computational bottleneck of MEA applications such as real-time
// anomaly detection on cell media. Parma models the MEA as an abstract
// simplicial complex, uses its first Betti number ((m−1)(n−1) independent
// Kirchhoff loops) to expose intrinsic parallelism, converts the
// exponential all-paths formulation into a polynomial joint-constraint
// system (2n³ equations for an n x n array), and schedules its formation
// with a family of parallel strategies.
//
// Typical flow:
//
//	a := parma.NewSquareArray(16)
//	r, z, _ := parma.Synthesize(parma.MediumConfig{Rows: 16, Cols: 16, Seed: 1})
//	report := parma.Analyze(a)                     // Betti numbers, cycle basis
//	prob, _ := parma.NewProblem(a, z, 5.0)         // joint-constraint system
//	res := parma.Form(prob, parma.FineGrained{}, parma.FormationOptions{Workers: 8})
//	rec, _ := parma.Recover(a, z, parma.RecoverOptions{})
//	det := parma.Detect(rec.R, parma.DetectOptions{})
//	_ = r // ground truth, available because the data is synthetic
//
// The internal packages implement every substrate from scratch: GF(2) and
// dense/sparse linear algebra, simplicial homology, a physical circuit
// simulator standing in for wet-lab measurements, the exponential path
// baseline, work-stealing and OpenMP-style scheduling, an MPI-like
// message-passing runtime, and the paper's five evaluation figures.
package parma

import (
	"context"
	"io"

	"parma/internal/anomaly"
	"parma/internal/circuit"
	"parma/internal/core"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/kirchhoff"
	"parma/internal/parallel"
	"parma/internal/sched"
	"parma/internal/solver"
)

// Array is the geometry of an m x n microelectrode array.
type Array = grid.Array

// Field holds one value per resistor position (resistances or measured Z).
type Field = grid.Field

// NewArray returns the geometry of an m x n array.
func NewArray(rows, cols int) Array { return grid.New(rows, cols) }

// NewSquareArray returns an n x n array.
func NewSquareArray(n int) Array { return grid.NewSquare(n) }

// NewField returns a zero field for an m x n array.
func NewField(rows, cols int) *Field { return grid.NewField(rows, cols) }

// UniformField returns a field with every entry set to v.
func UniformField(rows, cols int, v float64) *Field { return grid.UniformField(rows, cols, v) }

// MediumConfig controls synthetic medium generation (the stand-in for
// wet-lab measurement data; see gen for the paper-anchored defaults).
type MediumConfig = gen.Config

// Anomaly is an elliptical region of elevated resistance in a medium.
type Anomaly = gen.Anomaly

// SourceVoltage is the paper's applied end-to-end voltage (5 V).
const SourceVoltage = gen.SourceVoltage

// SynthesizeMedium generates a ground-truth resistance field.
func SynthesizeMedium(cfg MediumConfig) *Field { return gen.Medium(cfg) }

// Synthesize generates a ground-truth resistance field and its measured
// pairwise Z matrix via the physical forward model.
func Synthesize(cfg MediumConfig) (r, z *Field, err error) { return gen.Measurements(cfg) }

// TimeSeries generates the 0/6/12/24-hour measurement protocol with
// anomalies growing exponentially at the given hourly rate.
func TimeSeries(cfg MediumConfig, growthPerHour float64) map[int]*Field {
	return gen.TimeSeries(cfg, growthPerHour)
}

// TruthMask returns the ground-truth anomaly labels of a medium config.
func TruthMask(cfg MediumConfig) [][]bool { return gen.TruthMask(cfg) }

// Measure runs the forward circuit model: the pairwise effective
// resistances Z of an array with a known resistance field.
func Measure(a Array, r *Field) (*Field, error) { return circuit.MeasureAll(a, r) }

// TopologyReport summarizes the algebraic-topological analysis of an MEA:
// Betti numbers, Maxwell's cyclomatic number, Euler characteristic, and
// the fundamental cycle count.
type TopologyReport = core.Report

// Analyze computes the topological report of an array.
func Analyze(a Array) TopologyReport { return core.Analyze(a) }

// VerifyTopology cross-checks every §III invariant on the array (validity
// of the simplicial complex, β₁ = (m−1)(n−1), ∂∘∂ = 0, independence of the
// fundamental cycle basis). It returns nil when all hold.
func VerifyTopology(a Array) error { return core.VerifyInvariants(a) }

// Problem is a joint-constraint formation problem: array + Z + voltage.
type Problem = kirchhoff.Problem

// Equation is one flow-conservation constraint of the system.
type Equation = kirchhoff.Equation

// SystemCensus reports the system size: the paper's 2n³ equations and
// (2n−1)·n² unknowns for square arrays.
func SystemCensus(a Array) kirchhoff.Census { return kirchhoff.SystemCensus(a) }

// NewProblem validates and constructs a formation problem.
func NewProblem(a Array, z *Field, sourceU float64) (*Problem, error) {
	return kirchhoff.NewProblem(a, z, sourceU)
}

// GroundTruthState solves the forward model at a known resistance field,
// producing the assignment under which every formed equation has zero
// residual — the operational meaning of the lossless conversion.
func GroundTruthState(a Array, r *Field, sourceU float64) (*kirchhoff.State, error) {
	return kirchhoff.GroundTruthState(a, r, sourceU)
}

// Formation strategies (§IV–§V): the paper's Single-thread, Parallel,
// Balanced Parallel, and PyMP, plus runtime work-stealing as an ablation.
type (
	// Strategy forms the whole equation system under some schedule.
	Strategy = parallel.Strategy
	// Serial is the Single-thread baseline.
	Serial = parallel.Serial
	// FourWay is the paper's Parallel: one thread per constraint category.
	FourWay = parallel.FourWay
	// Balanced is the paper's Balanced Parallel: deterministic LPT.
	Balanced = parallel.Balanced
	// Stealing is runtime work-stealing over the same tasks.
	Stealing = parallel.Stealing
	// FineGrained is the paper's PyMP-k: equation-level parallelism.
	FineGrained = parallel.FineGrained
)

// FormationOptions configures a strategy run.
type FormationOptions = parallel.Options

// FormationResult reports a formation run.
type FormationResult = parallel.Result

// ChunkPolicy selects OpenMP-style iteration handout for FineGrained.
type ChunkPolicy = sched.Policy

// Chunk policies.
const (
	StaticChunks  = sched.Static
	DynamicChunks = sched.Dynamic
	GuidedChunks  = sched.Guided
)

// Strategies returns one instance of every formation strategy.
func Strategies() []Strategy { return parallel.All() }

// Form runs one strategy over the problem.
func Form(p *Problem, s Strategy, opts FormationOptions) FormationResult { return s.Run(p, opts) }

// WriteEquations renders the system with w workers and streams it to shard
// files in dir — the paper's end-to-end (compute + I/O) workload. The
// workers render from one table of per-wire term runs built for the call
// (kirchhoff.Text), not from formed equations; the bytes are WriteSystem's.
func WriteEquations(p *Problem, dir string, workers int) (int64, error) {
	return parallel.WriteSharded(p, dir, workers, sched.Dynamic, 0)
}

// WriteSystem serializes equations to one writer in the canonical format.
func WriteSystem(w io.Writer, eqs []Equation) (int64, error) { return kirchhoff.WriteSystem(w, eqs) }

// ParseSystem reads equations back from the canonical format.
func ParseSystem(r io.Reader) ([]Equation, error) { return kirchhoff.ParseSystem(r) }

// RecoverOptions configures resistance recovery.
type RecoverOptions = solver.RecoverOptions

// RecoverResult reports a recovery run.
type RecoverResult = solver.RecoverResult

// ErrRecoverCanceled reports a recovery aborted by its context.
var ErrRecoverCanceled = solver.ErrCanceled

// Recover estimates the resistance field from measured Z by
// Levenberg-Marquardt in log-resistance space (strictly positive iterates).
func Recover(a Array, z *Field, opts RecoverOptions) (RecoverResult, error) {
	return solver.Recover(context.Background(), a, z, opts)
}

// RecoverContext is Recover with cancellation: when ctx ends mid-iteration
// the returned error wraps ErrRecoverCanceled and the result carries the
// best iterate reached so far.
func RecoverContext(ctx context.Context, a Array, z *Field, opts RecoverOptions) (RecoverResult, error) {
	return solver.Recover(ctx, a, z, opts)
}

// DetectOptions tunes anomaly detection on a recovered field.
type DetectOptions = anomaly.Options

// Detection is the detection output: mask plus connected regions.
type Detection = anomaly.Detection

// DetectionScore compares predictions against ground truth.
type DetectionScore = anomaly.Score

// Detect thresholds a resistance field and extracts anomalous regions.
func Detect(f *Field, opts DetectOptions) Detection { return anomaly.Detect(f, opts) }

// EvaluateDetection scores a predicted mask against ground truth.
func EvaluateDetection(predicted, truth [][]bool) (DetectionScore, error) {
	return anomaly.Evaluate(predicted, truth)
}
