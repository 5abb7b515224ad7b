package kirchhoff

import (
	"math"
	"math/bits"
)

// The two lanes' multipliers. Any odd constants would do: an odd
// multiplier is invertible modulo 2⁶⁴, which is what makes every field
// change the digest (see Checksum).
const (
	laneA = 0x9E3779B97F4A7C15
	laneB = 0xC2B2AE3D27D4EB4F
)

// Checksum digests one equation into 64 bits. Callers XOR the digests of
// a system's equations together, so the system digest does not depend on
// which worker, rank or block formed an equation, or in what order.
//
// It covers every field: the pair, the category, the layer, the bits of
// Flow, the number of terms, and each term's position, Sign, RI, RJ and
// Plus/Minus kinds and indices. Each term packs into two words, lo (RI, RJ,
// Plus.Idx) and hi (Minus.Idx, the two kinds, Sign), and is folded into
// one of two lanes, alternating, as h = (h + lo)·k + hi: one multiply per
// term, and the two lanes' chains run side by side. The lanes start from
// the header fields and end in one splitmix64 finalizer.
//
// Every step multiplies by an odd constant, which is invertible modulo
// 2⁶⁴, and the finalizer is a bijection. So changing any one field of the
// header or of one term always changes the digest, not just with high
// probability; TestChecksumSeesEveryField checks that on every equation of
// a formed system. Changes to several fields at once, such as swapped
// terms, could in principle cancel; the test swaps every adjacent pair of
// terms too. The digest is not cryptographic.
//
// Package parallel pins the digest of a 64×64 system; a change to this
// function moves that pin.
func Checksum(e Equation) uint64 {
	a := (uint64(e.PairI)*laneA+uint64(e.PairJ))*laneA + (uint64(e.Cat) | uint64(len(e.Terms))<<8)
	b := math.Float64bits(e.Flow)*laneB + uint64(e.Layer)
	ts := e.Terms
	for ; len(ts) >= 2; ts = ts[2:] {
		a = (a+ts[0].lo())*laneA + ts[0].hi()
		b = (b+ts[1].lo())*laneB + ts[1].hi()
	}
	if len(ts) == 1 {
		a = (a+ts[0].lo())*laneA + ts[0].hi()
	}
	return mix64(a ^ bits.RotateLeft64(b, 32))
}

// lo packs a term's resistor indices and Plus index into one word.
func (t *Term) lo() uint64 {
	return uint64(uint16(t.RI)) | uint64(uint16(t.RJ))<<16 | uint64(uint32(t.Plus.Idx))<<32
}

// hi packs a term's Minus index, both voltage kinds and its Sign into one
// word. With lo it is injective: no two distinct terms share both words.
func (t *Term) hi() uint64 {
	return uint64(uint32(t.Minus.Idx)) | uint64(t.Plus.Kind)<<32 | uint64(t.Minus.Kind)<<40 | uint64(uint8(t.Sign))<<48
}

// mix64 is splitmix64's finalizer, a bijection on 64-bit words that
// spreads every input bit over the whole output.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
