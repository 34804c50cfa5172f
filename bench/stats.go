package main

import (
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (mean of the two middle values for an
// even count) without reordering the caller's slice; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a tail metric may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestSupported returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it — the choosing-metrics rule for
// how far into the tail a sample of n supports a claim. 0 when even the
// median has fewer than ten samples beyond.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1

			best = p
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs by the exclusive
// method, the one Python's statistics.quantiles(xs, n=4) uses; the noise
// protocol must agree with the driver that re-computes it.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// relIQR is the interquartile distance of xs as a share of its median.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// nsToUs converts samples held in nanoseconds to float64 microseconds.
func nsToUs(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
