package kirchhoff

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// Writer serializes equations in the text format Parma writes to disk —
// the I/O workload of the paper's Figure 9. The format is line-oriented,
// deterministic, and parseable:
//
//	eq p=(2,3) ua[1]: + (U - Ua[1])/R[2,0] - (Ua[1] - Ub[0])/R[0,0] = 0
//
// WriteEquation renders any Equation through AppendEquation; WriteText
// renders one equation of a formed system through its Text, as
// parallel.WriteSharded's shards do.
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
	return sw.write(AppendEquation(sw.buf[:0], e))
}

// WriteText serializes canonical equation idx of t's system.
func (sw *Writer) WriteText(t *Text, idx int) error {
	return sw.write(t.AppendAt(sw.buf[:0], idx))
}

// write keeps line as the next line's buffer and writes it.
func (sw *Writer) write(line []byte) error {
	sw.buf = line
	n, err := sw.w.Write(line)
	sw.n += int64(n)
	return err
}

// AppendEquation appends the text form of e — one line, newline included —
// to b and returns the extended slice. The line is e.String() plus "\n",
// byte for byte. It renders any Equation: Writer calls it for WriteSystem's
// equations. The formed system's own writers render through Text instead,
// which must match it byte for byte.
//
// The terms are the bulk of every line. b grows once for all of them, by
// termMax per term, and putTerm writes each at a running offset with
// fixed-width stores. A store may write up to three bytes past the text it
// advances over; what is written next overwrites them. Reserving the
// widest table-rendered term, rather than the widest term at all, keeps
// the slack a fraction of the line, so a caller that sizes a buffer from
// one pair's text is not made to regrow it near its end.
func AppendEquation(b []byte, e Equation) []byte {
	b = appendHeader(b, e.PairI, e.PairJ, e.Cat, e.Layer)
	b = slices.Grow(b, len(e.Terms)*termMax)
	w, off := b[:cap(b)], len(b)
	for i := range e.Terms {
		t := &e.Terms[i]
		if t.tabled() {
			off = putTerm(w, off, t)
			continue
		}
		// No formed system has such a term: render it the reference way
		// and regrow for the rest.
		w = slices.Grow(appendTerm(w[:off], t), (len(e.Terms)-1-i)*termMax)
		w, off = w[:cap(w)], len(w)
	}
	return appendFlow(w[:off], e.Flow)
}

// appendHeader appends a line's left end, "eq p=(i,j) cat[layer]:".
func appendHeader(b []byte, i, j int, cat Category, layer int) []byte {
	b = append(b, "eq p=("...)
	b = appendIndex(b, i)
	b = append(b, ',')
	b = appendIndex(b, j)
	b = append(b, ") "...)
	b = append(b, cat.String()...)
	b = append(b, '[')
	b = appendIndex(b, layer)
	return append(b, "]:"...)
}

// appendFlow appends a line's right end, " = flow" and the newline.
func appendFlow(b []byte, flow float64) []byte {
	b = append(b, " = "...)
	if math.Float64bits(flow) == 0 {
		b = append(b, '0') // the intermediate layers' +0: skip the float formatter
	} else {
		b = strconv.AppendFloat(b, flow, 'g', 12, 64)
	}
	return append(b, '\n')
}

// appendTerm appends one term's text to b: through putTerm when the term
// is tabled, and from Term.String when it is not.
func appendTerm(b []byte, t *Term) []byte {
	if !t.tabled() {
		b = append(b, ' ')
		return append(b, t.String()...)
	}
	b = slices.Grow(b, termMax)
	return b[:putTerm(b[:cap(b)], len(b), t)]
}

const (
	// termMax is the widest term putTerm writes:
	// " - (Ua[9999] - Ub[9999])/R[9999,9999]". No store of putTerm's
	// reaches past that width from where the term starts.
	termMax = 37

	// digitLimit bounds the indices digitTable renders: every index of an
	// array up to 10⁴ wires on a side.
	digitLimit = 10000

	// The 4-byte literal words putTerm stores, little-endian.
	wordPlus  = ' ' | '+'<<8 | ' '<<16 | '('<<24 // " + (", or " + " advancing 3
	wordMinus = ' ' | '-'<<8 | ' '<<16 | '('<<24 // " - (", or " - " advancing 3
	wordUa    = 'U' | 'a'<<8 | '['<<16           // "Ua["; +1<<8 makes "Ub["
	wordR     = '/' | 'R'<<8 | '['<<16           // "/R["
)

// digitTable[v] holds the decimal text of v, 0 ≤ v < digitLimit, as a
// little-endian word in its low 32 bits (first digit lowest) and the digit
// count above them. It is built once, at package init.
var digitTable = func() (t [digitLimit]uint64) {
	for v := range t {
		var word [4]byte
		n := len(strconv.AppendInt(word[:0], int64(v), 10))
		t[v] = uint64(binary.LittleEndian.Uint32(word[:])) | uint64(n)<<32
	}
	return t
}()

// putDigits writes the decimal text of v < digitLimit at w[off:] with one
// 4-byte store and returns the offset past it.
func putDigits(w []byte, off int, v uint) int {
	d := digitTable[v]
	binary.LittleEndian.PutUint32(w[off:], uint32(d))
	return off + int(d>>32)
}

// appendIndex appends the decimal text of v to b, through digitTable when
// v is in its range and through strconv otherwise.
func appendIndex(b []byte, v int) []byte {
	if uint(v) >= digitLimit {
		return strconv.AppendInt(b, int64(v), 10)
	}
	b = slices.Grow(b, 4)
	return b[:putDigits(b[:cap(b)], len(b), uint(v))]
}

// tabled reports whether putTerm can render t: every index is in
// digitTable's range and both voltage kinds are known.
func (t *Term) tabled() bool {
	return uint32(t.Plus.Idx) < digitLimit && uint32(t.Minus.Idx) < digitLimit &&
		uint16(t.RI) < digitLimit && uint16(t.RJ) < digitLimit &&
		t.Plus.Kind <= VoltUb && t.Minus.Kind <= VoltUb
}

// putTerm writes a tabled term at w[off:] and returns the offset past it:
// " ± Plus/R[i,j]", or " ± (Plus - Minus)/R[i,j]" when Minus is set.
func putTerm(w []byte, off int, t *Term) int {
	word := uint32(wordPlus)
	if t.Sign < 0 {
		word = wordMinus
	}
	binary.LittleEndian.PutUint32(w[off:], word)
	if t.Minus.Kind == VoltNone {
		off = putVolt(w, off+3, t.Plus)
	} else {
		off = putVolt(w, off+4, t.Plus)
		binary.LittleEndian.PutUint32(w[off:], wordMinus)
		off = putVolt(w, off+3, t.Minus)
		w[off] = ')'
		off++
	}
	binary.LittleEndian.PutUint32(w[off:], wordR)
	off = putDigits(w, off+3, uint(t.RI))
	w[off] = ','
	off = putDigits(w, off+1, uint(t.RJ))
	w[off] = ']'
	return off + 1
}

// putVolt writes a known voltage symbol at w[off:] — U, Ua[k'], Ub[m'], or
// 0 for an absent one — and returns the offset past it.
func putVolt(w []byte, off int, v VoltRef) int {
	switch v.Kind {
	case VoltNone:
		w[off] = '0'
		return off + 1
	case VoltU:
		w[off] = 'U'
		return off + 1
	}
	binary.LittleEndian.PutUint32(w[off:], wordUa+uint32(v.Kind-VoltUa)<<8)
	off = putDigits(w, off+3, uint(v.Idx))
	w[off] = ']'
	return off + 1
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
