package kirchhoff

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Writer serializes equations in the text format Parma writes to disk —
// the I/O workload of the paper's Figure 9. The format is line-oriented,
// deterministic, and parseable:
//
//	eq p=(2,3) ua[1]: + (U - Ua[1])/R[2,0] - (Ua[1] - Ub[0])/R[0,0] = 0
type Writer struct {
	w   *bufio.Writer
	n   int64 // bytes written
	buf []byte
}

// NewWriter wraps an io.Writer with a buffered equation serializer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// WriteEquation serializes one equation.
func (sw *Writer) WriteEquation(e Equation) error {
	sw.buf = AppendEquation(sw.buf[:0], e)
	n, err := sw.w.Write(sw.buf)
	sw.n += int64(n)
	return err
}

// AppendEquation appends the text form of e — one line, newline included —
// to b and returns the extended slice. It is the one serializer: Writer
// calls it, and so does anything that renders equations straight into a
// byte slice of its own.
func AppendEquation(b []byte, e Equation) []byte {
	b = append(b, "eq p=("...)
	b = strconv.AppendInt(b, int64(e.PairI), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.PairJ), 10)
	b = append(b, ") "...)
	b = append(b, e.Cat.String()...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(e.Layer), 10)
	b = append(b, "]:"...)
	for _, t := range e.Terms {
		if t.Sign >= 0 {
			b = append(b, " + "...)
		} else {
			b = append(b, " - "...)
		}
		if t.Minus.Kind == VoltNone {
			b = appendVolt(b, t.Plus)
		} else {
			b = append(b, '(')
			b = appendVolt(b, t.Plus)
			b = append(b, " - "...)
			b = appendVolt(b, t.Minus)
			b = append(b, ')')
		}
		b = append(b, "/R["...)
		b = strconv.AppendInt(b, int64(t.RI), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.RJ), 10)
		b = append(b, ']')
	}
	b = append(b, " = "...)
	b = strconv.AppendFloat(b, e.Flow, 'g', 12, 64)
	return append(b, '\n')
}

func appendVolt(b []byte, v VoltRef) []byte {
	switch v.Kind {
	case VoltU:
		return append(b, 'U')
	case VoltUa:
		b = append(b, "Ua["...)
	case VoltUb:
		b = append(b, "Ub["...)
	default:
		return append(b, '0')
	}
	b = strconv.AppendInt(b, int64(v.Idx), 10)
	return append(b, ']')
}

// Flush drains the buffer to the underlying writer.
func (sw *Writer) Flush() error { return sw.w.Flush() }

// BytesWritten reports the total serialized size so far.
func (sw *Writer) BytesWritten() int64 { return sw.n }

// WriteSystem serializes a slice of equations and flushes.
func WriteSystem(w io.Writer, eqs []Equation) (int64, error) {
	sw := NewWriter(w)
	for _, e := range eqs {
		if err := sw.WriteEquation(e); err != nil {
			return sw.BytesWritten(), fmt.Errorf("kirchhoff: serialize: %w", err)
		}
	}
	if err := sw.Flush(); err != nil {
		return sw.BytesWritten(), fmt.Errorf("kirchhoff: flush: %w", err)
	}
	return sw.BytesWritten(), nil
}

// Checksum folds an equation into a running FNV-style hash. Benchmarks use
// it to keep formation work observable without retaining equations.
func Checksum(h uint64, e Equation) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(e.PairI)) * prime
	h = (h ^ uint64(e.PairJ)) * prime
	h = (h ^ uint64(e.Cat)) * prime
	h = (h ^ uint64(e.Layer)) * prime
	for _, t := range e.Terms {
		h = (h ^ uint64(uint16(t.RI))) * prime
		h = (h ^ uint64(uint16(t.RJ))) * prime
		h = (h ^ uint64(t.Plus.Kind)<<8 ^ uint64(uint32(t.Plus.Idx))) * prime
		h = (h ^ uint64(t.Minus.Kind)<<8 ^ uint64(uint32(t.Minus.Idx))) * prime
	}
	return h
}
