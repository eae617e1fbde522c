package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankIndex is the 0-based nearest-rank index of the p-th percentile
// among n sorted samples. The tolerance keeps binary rounding of p
// (99.9 is not exact) from moving the rank up by one.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for
// no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankIndex(len(s), p)]
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailLadder lists the percentiles a tail timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that has
// at least ten of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method (the default of Python's
// statistics.quantiles(xs, n=4)), so the benchmark's own spread figures
// match what a reader computes from the printed values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// workerIdleFrac is the share of the pool's capacity over wall that no
// simulated job used: 1 - busy / (workers x wall), clamped to [0, 1].
func workerIdleFrac(busy time.Duration, workers int, wall time.Duration) float64 {
	if workers < 1 || wall <= 0 {
		return 0
	}
	f := 1 - busy.Seconds()/(float64(workers)*wall.Seconds())
	return math.Max(0, math.Min(1, f))
}

// inUnits converts durations to float counts of unit.
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// sumDur adds up durations.
func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
