package kirchhoff

import (
	"slices"
	"testing"
)

// benchSize is the fine-grained pass's array size in form-64: 64 terms per
// equation and two-digit indices, the shape the formation workload runs.
const benchSize = 64

var benchSink uint64

// BenchmarkFormEquation64 forms the system's equations in canonical order
// into one warm buffer, as a FineGrained worker does.
func BenchmarkFormEquation64(b *testing.B) {
	p := syntheticProblem(b, benchSize, benchSize)
	total := SystemCensus(p.Array).Equations
	buf := p.EquationAt(0, nil).Terms
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := p.EquationAt(i%total, buf)
		buf = e.Terms
		benchSink += uint64(len(e.Terms))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/eq")
}

// BenchmarkAppendEquation64 renders one pair block's equations, formed up
// front, into one reused byte slice, as a WritePipelined former does. The
// pair has two-digit indices, like most of the 64×64 system.
func BenchmarkAppendEquation64(b *testing.B) {
	p := syntheticProblem(b, benchSize, benchSize)
	var eqs []Equation
	p.FormPair(37, 21, func(e Equation) {
		e.Terms = slices.Clone(e.Terms)
		eqs = append(eqs, e)
	})
	var data []byte
	for _, e := range eqs {
		data = AppendEquation(data, e)
	}
	b.SetBytes(int64(len(data) / len(eqs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data = AppendEquation(data[:0], eqs[i%len(eqs)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/eq")
}
