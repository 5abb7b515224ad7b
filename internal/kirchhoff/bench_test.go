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

// BenchmarkChecksum64 digests one pair block's equations, formed up front,
// as a FineGrained sink does after forming each. The pair has 64 terms per
// equation, like every pair of the 64×64 system.
func BenchmarkChecksum64(b *testing.B) {
	eqs := pairBlock(b)
	terms := 0
	for _, e := range eqs {
		terms += len(e.Terms)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range eqs {
			benchSink ^= Checksum(e)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(terms), "ns/term")
}

// pairBlock forms pair (37, 21) of the 64×64 system and keeps its
// equations: a pair with two-digit indices, like most of the system.
func pairBlock(b *testing.B) []Equation {
	p := syntheticProblem(b, benchSize, benchSize)
	var eqs []Equation
	p.FormPair(37, 21, func(e Equation) {
		e.Terms = slices.Clone(e.Terms)
		eqs = append(eqs, e)
	})
	return eqs
}

// BenchmarkAppendEquation64 renders one pair block's equations, formed up
// front, into one reused byte slice, as a WritePipelined former does.
func BenchmarkAppendEquation64(b *testing.B) {
	eqs := pairBlock(b)
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

// BenchmarkText48 renders the whole 48×48 system, form-64's pipelined
// pass, on one goroutine: each iteration builds the Text and appends every
// pair into one reused buffer, as a WritePipelined former does.
func BenchmarkText48(b *testing.B) {
	p := syntheticProblem(b, 48, 48)
	eqs := SystemCensus(p.Array).Equations
	data := make([]byte, 0, NewText(p).MaxPairLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := NewText(p)
		for pair := range p.Array.Pairs() {
			data = text.AppendPair(data[:0], pair)
			benchSink += uint64(len(data))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(eqs), "ns/eq")
}
