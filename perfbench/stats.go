package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 read off 200 samples rests on two values and says
// nothing, so the tail falls back to the highest percentile the sample
// count supports.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50}

// Summary is a sample reduced to its median and its tail.
type Summary struct {
	N      int
	Median float64
	// TailQ is the percentile (as a fraction) the tail is reported at:
	// the highest rung of tailLadder, no higher than asked for, with at
	// least minBeyond samples above it. Zero when the sample is too
	// small for any.
	TailQ float64
	Tail  float64
}

// rank is the nearest-rank index of quantile q in a sorted sample of n.
func rank(q float64, n int) int {
	// The epsilon keeps q·n from rounding up past a whole rank.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// beyond counts the samples strictly after quantile q's rank.
func beyond(q float64, n int) int { return n - 1 - rank(q, n) }

// Summarize reduces xs to its median and a tail of at most quantile
// want (e.g. 0.99). xs is not modified.
func Summarize(xs []float64, want float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	s.Median = sorted[rank(0.5, len(sorted))]
	for _, q := range tailLadder {
		if q > want+1e-12 {
			continue
		}
		if beyond(q, len(sorted)) >= minBeyond {
			s.TailQ = q
			s.Tail = sorted[rank(q, len(sorted))]
			break
		}
	}
	return s
}

// TailLabel names the reported tail percentile, e.g. "p99" or "p99.9".
func (s Summary) TailLabel() string {
	if s.TailQ == 0 {
		return "no tail"
	}
	return "p" + trimFloat(100*s.TailQ)
}

// Median returns the nearest-rank median of xs (0 for none).
func Median(xs []float64) float64 { return Summarize(xs, 0.5).Median }

// Mean returns the arithmetic mean of xs (0 for none).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Ratio is a share reported together with its base, so a reader can
// tell 1/2 from 500/1000.
type Ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 when the base is empty.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// String prints the ratio with its base: "0.9120 (912/1000)".
func (r Ratio) String() string {
	return fmt.Sprintf("%.4f (%s/%s)", r.Value(), trimFloat(r.Num), trimFloat(r.Den))
}

// trimFloat prints whole numbers without a fraction and others with up
// to four decimals.
func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
