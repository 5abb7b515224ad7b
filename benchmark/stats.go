package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile picks the highest of p99/p95/p90/p75 that still has at
// least ten samples beyond it, so a tail is never read off a handful of
// points. With fewer than 40 samples no tail qualifies and it reports the
// median (p = 50). n is the sample count, printed beside the value.
func tailPercentile(xs []float64) (p int, value float64, n int) {
	n = len(xs)
	for _, p := range []int{99, 95, 90, 75} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p, quantile(xs, float64(p)/100), n
		}
	}
	return 50, median(xs), n
}

// sliceThroughput is completed operations per second, taken as the median
// over up to ten equal slices of the operation list in completion order: a
// burst of steal time on a shared VM ruins one slice, not the number. ends
// holds each operation's completion time since the start of the timed
// region.
func sliceThroughput(ends []time.Duration) float64 {
	n := len(ends)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ends...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	slices := 10
	if n < slices {
		slices = n
	}
	rates := make([]float64, 0, slices)
	prevEnd := time.Duration(0)
	prevIdx := 0
	for k := 1; k <= slices; k++ {
		idx := k * n / slices
		end := s[idx-1]
		if d := (end - prevEnd).Seconds(); d > 0 {
			rates = append(rates, float64(idx-prevIdx)/d)
		}
		prevEnd, prevIdx = end, idx
	}
	return median(rates)
}

// interval is a half-open time range on the recorder's clock.
type interval struct{ lo, hi time.Duration }

// covered returns the total length of the union of ivs clipped to within.
func covered(ivs []interval, within interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < within.lo {
			iv.lo = within.lo
		}
		if iv.hi > within.hi {
			iv.hi = within.hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	cur := interval{}
	for i, iv := range clipped {
		if i == 0 || iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(span interval, children []interval) time.Duration {
	return (span.hi - span.lo) - covered(children, span)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects metric and workload names the benchmark contract would
// refuse: each starts with a letter or digit, uses only [A-Za-z0-9_.-], is
// at most 64 characters long and appears once.
func checkNames(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
