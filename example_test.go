package parma_test

import (
	"fmt"
	"log"
	"math"

	"parma"
	"parma/internal/topo"
)

// ExampleAnalyze shows the topological invariants of the paper's Figure 1
// device: a 3x3 MEA has 18 joints, 9 resistors, and 4 independent
// Kirchhoff loops.
func ExampleAnalyze() {
	report := parma.Analyze(parma.NewSquareArray(3))
	fmt.Println("joints:", report.Joints)
	fmt.Println("resistors:", report.Resistors)
	fmt.Println("independent loops:", report.Betti1)
	// Output:
	// joints: 18
	// resistors: 9
	// independent loops: 4
}

// ExampleSystemCensus shows the polynomial system size the joint-constraint
// conversion produces: 2n³ equations and (2n−1)n² unknowns.
func ExampleSystemCensus() {
	census := parma.SystemCensus(parma.NewSquareArray(100))
	fmt.Println("equations:", census.Equations)
	fmt.Println("unknowns:", census.Unknowns)
	// Output:
	// equations: 2000000
	// unknowns: 1990000
}

// ExampleForm forms the whole equation system with the fine-grained
// strategy and confirms it matches the serial baseline exactly.
func ExampleForm() {
	_, z, err := parma.Synthesize(parma.MediumConfig{Rows: 6, Cols: 6, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	prob, err := parma.NewProblem(parma.NewSquareArray(6), z, parma.SourceVoltage)
	if err != nil {
		log.Fatal(err)
	}
	serial := parma.Form(prob, parma.Serial{}, parma.FormationOptions{})
	fine := parma.Form(prob, parma.FineGrained{}, parma.FormationOptions{Workers: 4})
	fmt.Println("equations:", fine.Count)
	fmt.Println("identical to serial:", fine.Hash == serial.Hash)
	// Output:
	// equations: 432
	// identical to serial: true
}

// ExampleRecover closes the loop: measure a known field, recover it from
// the measurements alone, and report the worst-case relative error.
func ExampleRecover() {
	a := parma.NewSquareArray(4)
	truth := parma.UniformField(4, 4, 5000)
	truth.Set(1, 2, 20000) // an anomalous cell

	z, err := parma.Measure(a, truth)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := parma.Recover(a, z, parma.RecoverOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered within 0.01%:", rec.R.MaxAbsDiff(truth)/truth.Max() < 1e-4)
	fmt.Println("anomaly recovered:", rec.R.At(1, 2) > 15000)
	// Output:
	// recovered within 0.01%: true
	// anomaly recovered: true
}

// ExampleDetect runs anomaly detection on a resistance field.
func ExampleDetect() {
	f := parma.UniformField(5, 5, 3000)
	f.Set(2, 2, 18000)
	det := parma.Detect(f, parma.DetectOptions{Factor: 2})
	fmt.Println("regions:", len(det.Regions))
	fmt.Println("cells in region 0:", det.Regions[0].Size())
	// Output:
	// regions: 1
	// cells in region 0: 1
}

// ExampleDiagnose is a manufacturing test of a defective 8x8 device (§III):
// the homology that counts Kirchhoff loops also counts what defects
// destroyed. Three resistors failed in fabrication and the bond wire of
// vertical electrode VII broke. The diagnosis comes from the defect mask
// alone; measuring the damaged device confirms it pair by pair, since a
// pair is unmeasurable (+Inf) exactly when the topology says so.
func ExampleDiagnose() {
	const n = 8
	a := parma.NewSquareArray(n)
	mask := parma.NewMask(a)
	mask.Disable(2, 3)
	mask.Disable(2, 4)
	mask.Disable(5, 1)
	mask.DisableWire(false, 6)

	healthy := parma.Analyze(a)
	rep := parma.Diagnose(a, mask)
	fmt.Printf("healthy: %d resistors, %d loops\n", healthy.Resistors, healthy.Betti1)
	fmt.Println("missing resistors:", rep.MissingResistors)
	fmt.Println("components β₀:", rep.Betti0)
	fmt.Printf("loops β₁: %d (%d lost)\n", rep.Betti1, rep.LostLoops)
	for _, w := range rep.IsolatedWires {
		fmt.Printf("dead electrode: horizontal=%t wire %d\n", w.Horizontal, w.Index)
	}

	r := parma.SynthesizeMedium(parma.MediumConfig{Rows: n, Cols: n, Seed: 13})
	z, err := parma.MeasureMasked(a, r, mask)
	if err != nil {
		log.Fatal(err)
	}
	infPairs, disagree := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inf := math.IsInf(z.At(i, j), 1)
			if inf {
				infPairs++
			}
			if inf == parma.Measurable(a, mask, i, j) {
				disagree++
			}
		}
	}
	fmt.Printf("unmeasurable pairs: %d of %d, %d disagreeing with the topology\n", infPairs, n*n, disagree)
	// Output:
	// healthy: 64 resistors, 49 loops
	// missing resistors: 11
	// components β₀: 2
	// loops β₁: 39 (10 lost)
	// dead electrode: horizontal=false wire 6
	// unmeasurable pairs: 8 of 64, 0 disagreeing with the topology
}

// ExampleVerifyTopology runs §III's machinery on arrays of several shapes:
// the Betti numbers computed over GF(2), Maxwell's cyclomatic cross-check,
// the closed form (m−1)(n−1), and how many joint-constraint equations fall
// to each independent loop. It closes with what Z/2 coefficients cannot
// see: a torus and a Klein bottle share their mod-2 Betti numbers, but
// integral homology exposes the Klein bottle's torsion.
func ExampleVerifyTopology() {
	for _, s := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {3, 8}, {15, 15}} {
		a := parma.NewArray(s[0], s[1])
		if err := parma.VerifyTopology(a); err != nil {
			log.Fatal(err)
		}
		rep := parma.Analyze(a)
		fmt.Printf("%dx%d: joints %d, resistors %d, β₀ %d, β₁ %d, cyclomatic %d, χ %d, (m−1)(n−1) %d",
			s[0], s[1], rep.Joints, rep.Resistors, rep.Betti0, rep.Betti1, rep.Cyclomatic, rep.Euler, (s[0]-1)*(s[1]-1))
		if rep.Betti1 > 0 {
			fmt.Printf(", %d equations per loop", parma.SystemCensus(a).Equations/rep.Betti1)
		}
		fmt.Println()
	}
	for _, surf := range []struct {
		name string
		flip bool
	}{{"torus", false}, {"Klein bottle", true}} {
		c := quotientSurface(4, 4, surf.flip)
		h1 := c.IntegralHomologyAll()[1]
		fmt.Printf("%s: Z/2 β %v, H₁(ℤ) rank %d torsion %v\n", surf.name, c.BettiNumbers(), h1.Betti, h1.Torsion)
	}
	// Output:
	// 1x1: joints 2, resistors 1, β₀ 1, β₁ 0, cyclomatic 0, χ 1, (m−1)(n−1) 0
	// 2x2: joints 8, resistors 4, β₀ 1, β₁ 1, cyclomatic 1, χ 0, (m−1)(n−1) 1, 16 equations per loop
	// 3x3: joints 18, resistors 9, β₀ 1, β₁ 4, cyclomatic 4, χ -3, (m−1)(n−1) 4, 13 equations per loop
	// 3x8: joints 48, resistors 24, β₀ 1, β₁ 14, cyclomatic 14, χ -13, (m−1)(n−1) 14, 18 equations per loop
	// 15x15: joints 450, resistors 225, β₀ 1, β₁ 196, cyclomatic 196, χ -195, (m−1)(n−1) 196, 34 equations per loop
	// torus: Z/2 β [1 2 1], H₁(ℤ) rank 2 torsion []
	// Klein bottle: Z/2 β [1 2 1], H₁(ℤ) rank 1 torsion [2]
}

// quotientSurface glues a triangulated m x n square into a torus
// (straight) or a Klein bottle (flipped).
func quotientSurface(m, n int, flip bool) *topo.Complex {
	id := func(i, j int) int {
		for j >= n {
			j -= n
			if flip {
				i = -i
			}
		}
		i = ((i % m) + m) % m
		return i*n + j
	}
	c := topo.NewComplex()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c.Add(topo.NewSimplex(id(i, j), id(i+1, j), id(i+1, j+1)))
			c.Add(topo.NewSimplex(id(i, j), id(i, j+1), id(i+1, j+1)))
		}
	}
	return c
}

// ExampleExteriorDerivative runs §IV-B standalone. The voltage drops of a
// smooth potential form an exact 1-form, so Kirchhoff's voltage law holds
// on every unit loop; discrete Stokes equates a patch's boundary
// circulation with the integral of its curl; patch-parallel integration
// over frame-local patches reproduces the global boundary value at any
// worker count. On a 30°-sheared array the raw lattice gradient is wrong,
// and the Jacobian frame restores the physical one.
func ExampleExteriorDerivative() {
	const nodes = 64
	u := parma.SampleField(nodes, nodes, 0.1, 0.1, func(x, y float64) float64 {
		return 5 * math.Exp(-((x-3)*(x-3)+(y-3)*(y-3))/4) * math.Cos(x-y)
	})
	form := parma.ExteriorDerivative(u)
	worst := 0.0
	for i := 0; i < nodes-1; i++ {
		for j := 0; j < nodes-1; j++ {
			worst = math.Max(worst, math.Abs(form.Curl(i, j)))
		}
	}
	fmt.Println("KVL holds on every unit loop:", worst < 1e-12)

	patch := parma.Patch{I0: 5, I1: 50, J0: 10, J1: 60}
	fmt.Println("Stokes on a 45x50 patch:", math.Abs(form.Circulation(patch)-form.CurlIntegral(patch)) < 1e-12)

	global := form.Circulation(parma.Patch{I0: 0, I1: nodes - 1, J0: 0, J1: nodes - 1})
	patches := form.SplitPatches(8, 8)
	for _, workers := range []int{1, 4, 16} {
		total, parts := form.ParallelCurlIntegral(patches, workers)
		fmt.Printf("workers %d: %d patches sum to the global boundary: %t\n",
			workers, len(parts), math.Abs(total-global) < 1e-12)
	}

	const gx, gy = 2.5, -1.5
	frame := parma.SkewedFrame(1, 1, math.Pi/6)
	sheared := parma.NewScalarField(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			x, y := frame.Apply(float64(j), float64(i))
			sheared.Set(i, j, gx*x+gy*y)
		}
	}
	gu, gv := sheared.Gradient(8, 8)
	px, py, err := frame.PhysicalGradient(gu, gv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sheared lattice: raw gradient (%.2f, %.2f), physical (%.2f, %.2f)\n", gu, gv, px, py)
	// Output:
	// KVL holds on every unit loop: true
	// Stokes on a 45x50 patch: true
	// workers 1: 64 patches sum to the global boundary: true
	// workers 4: 64 patches sum to the global boundary: true
	// workers 16: 64 patches sum to the global boundary: true
	// sheared lattice: raw gradient (2.50, -0.05), physical (2.50, -1.50)
}

// ExampleTimeSeries is the biomedical scenario of §I: an MEA on a wound,
// measured on the wet-lab protocol (0, 6, 12 and 24 hours) while an
// anomaly's resistance grows about 7% an hour. At each time point the
// field is recovered from Z alone, anomalies are detected, and the
// detection is scored against the synthetic ground truth.
func ExampleTimeSeries() {
	const n = 8
	cfg := parma.MediumConfig{
		Rows: n, Cols: n, Seed: 7,
		Anomalies: []parma.Anomaly{
			{CenterI: 2.5, CenterJ: 5, RadiusI: 1.4, RadiusJ: 1.6, Factor: 3},
		},
	}
	series := parma.TimeSeries(cfg, 0.07)
	truth := parma.TruthMask(cfg)
	a := parma.NewSquareArray(n)

	prevPeak := 0.0
	for _, h := range []int{0, 6, 12, 24} {
		z, err := parma.Measure(a, series[h])
		if err != nil {
			log.Fatal(err)
		}
		rec, err := parma.Recover(a, z, parma.RecoverOptions{Tol: 1e-9})
		if err != nil {
			log.Fatal(err)
		}
		det := parma.Detect(rec.R, parma.DetectOptions{AbsoluteThreshold: 11000 * 1.05})
		score, err := parma.EvaluateDetection(det.Mask, truth)
		if err != nil {
			log.Fatal(err)
		}
		peak := det.Regions[0].PeakValue
		fmt.Printf("hour %d: recovered within 1e-5: %t, %d region of %d cells, peak %.0f MΩ",
			h, rec.R.MaxAbsDiff(series[h])/series[h].Max() < 1e-5, len(det.Regions), det.Regions[0].Size(), peak/1000)
		if prevPeak > 0 {
			fmt.Printf(" (+%.0f%%)", 100*(peak/prevPeak-1))
		}
		fmt.Printf(", precision %.2f recall %.2f\n", score.Precision(), score.Recall())
		prevPeak = peak
	}
	// Output:
	// hour 0: recovered within 1e-5: true, 1 region of 6 cells, peak 31 MΩ, precision 1.00 recall 1.00
	// hour 6: recovered within 1e-5: true, 1 region of 6 cells, peak 48 MΩ (+52%), precision 1.00 recall 1.00
	// hour 12: recovered within 1e-5: true, 1 region of 6 cells, peak 73 MΩ (+52%), precision 1.00 recall 1.00
	// hour 24: recovered within 1e-5: true, 1 region of 6 cells, peak 169 MΩ (+132%), precision 1.00 recall 1.00
}

// ExampleRecover_powerMesh is use case (iii) of §I: a chip's power-delivery
// mesh is electrically an MEA, and a via whose resistance has risen
// (electromigration, voiding) is an anomaly. Two degraded vias are planted
// in a 6-rail x 12-strap mesh; recovery from the pad-to-pad measurements
// finds both. Thresholding Z directly would not: current detours through
// the mesh, so a via that rose 6.3x raises its own Z by only 1.21x.
func ExampleRecover_powerMesh() {
	const rails, straps = 6, 12
	cfg := parma.MediumConfig{
		Rows: rails, Cols: straps, Seed: 77,
		BackgroundMin: 1.8, BackgroundMax: 2.2,
		Anomalies: []parma.Anomaly{
			{CenterI: 1, CenterJ: 3, RadiusI: 0.5, RadiusJ: 0.5, Factor: 8},
			{CenterI: 4, CenterJ: 9, RadiusI: 0.5, RadiusJ: 0.5, Factor: 8},
		},
	}
	truth, z, err := parma.Synthesize(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := parma.NewArray(rails, straps)
	rep := parma.Analyze(a)
	fmt.Printf("mesh: %d vias, %d independent loops, Z from %.2f to %.2f\n", rep.Resistors, rep.Betti1, z.Min(), z.Max())

	rec, err := parma.Recover(a, z, parma.RecoverOptions{Tol: 1e-10})
	if err != nil {
		log.Fatal(err)
	}
	det := parma.Detect(rec.R, parma.DetectOptions{Factor: 3})
	fmt.Printf("%d degraded via groups above %.2f\n", len(det.Regions), det.Threshold)
	for _, reg := range det.Regions {
		for _, cell := range reg.Cells {
			i, j := cell[0], cell[1]
			fmt.Printf("via (%d,%d): recovered %.1f, truth %.1f, %.1fx the mean\n",
				i, j, rec.R.At(i, j), truth.At(i, j), rec.R.At(i, j)/rec.R.Mean())
		}
	}
	score, err := parma.EvaluateDetection(det.Mask, parma.TruthMask(cfg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("precision %.2f, recall %.2f\n", score.Precision(), score.Recall())
	fmt.Printf("via (1,3) rose %.1fx, its Z only %.2fx\n", truth.At(1, 3)/truth.Mean(), z.At(1, 3)/z.Mean())
	// Output:
	// mesh: 72 vias, 55 independent loops, Z from 0.46 to 0.59
	// 2 degraded via groups above 6.07
	// via (1,3): recovered 15.0, truth 15.0, 6.3x the mean
	// via (4,9): recovered 16.5, truth 16.5, 6.9x the mean
	// precision 1.00, recall 1.00
	// via (1,3) rose 6.3x, its Z only 1.21x
}

// ExampleClassifyMorphology tells two lesions with the same anomalous-cell
// count apart: a solid 4x4 mass and a 5x5 ring with a necrotic
// (low-resistance) center. Both fields are measured, recovered from Z
// alone, and classified by the Betti numbers of their superlevel sets:
// cell counting sees 16 cells either way, β₁ sees the ring.
func ExampleClassifyMorphology() {
	const n = 10
	a := parma.NewSquareArray(n)
	for _, lesion := range []struct {
		name   string
		lo, hi int
		ring   bool
	}{{"solid mass", 2, 5, false}, {"ring lesion", 2, 6, true}} {
		truth := parma.UniformField(n, n, 3000)
		for i := lesion.lo; i <= lesion.hi; i++ {
			for j := lesion.lo; j <= lesion.hi; j++ {
				if !lesion.ring || i == lesion.lo || i == lesion.hi || j == lesion.lo || j == lesion.hi {
					truth.Set(i, j, 24000)
				}
			}
		}
		z, err := parma.Measure(a, truth)
		if err != nil {
			log.Fatal(err)
		}
		rec, err := parma.Recover(a, z, parma.RecoverOptions{Tol: 1e-9})
		if err != nil {
			log.Fatal(err)
		}
		det := parma.Detect(rec.R, parma.DetectOptions{Factor: 3})
		m := parma.ClassifyMorphology(rec.R, det.Threshold)
		fmt.Printf("%s: %d region of %d cells, β₀ %d, β₁ %d; Betti curve", lesion.name, len(det.Regions), det.Regions[0].Size(), m.Regions, m.Rings)
		for _, p := range parma.BettiCurve(rec.R, parma.AutoThresholds(rec.R, 5)) {
			fmt.Printf(" %.0f:%d/%d", p.Threshold, p.Components, p.Holes)
		}
		fmt.Println()
	}
	// Output:
	// solid mass: 1 region of 16 cells, β₀ 1, β₁ 0; Betti curve 20500:1/0 17000:1/0 13500:1/0 10000:1/0 6500:1/0
	// ring lesion: 1 region of 16 cells, β₀ 1, β₁ 1; Betti curve 20500:1/1 17000:1/1 13500:1/1 10000:1/1 6500:1/1
}
