// Package stats provides the measurement machinery used by the
// evaluation: per-VCPU user-instruction commit accounting (the paper's
// "work" metric), sample statistics with 95% confidence intervals
// across repeated runs, and normalization helpers for reproducing the
// paper's normalized figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations from repeated simulation runs with
// different seeds and reports their mean and 95% confidence interval,
// matching the paper's methodology ("we simulate multiple runs and
// report average results with 95% confidence intervals").
type Sample struct {
	xs []float64
}

// Add records one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation (0 if fewer than two
// observations).
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean using the Student-t distribution.
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the sample median (0 if empty).
func (s *Sample) Median() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), s.xs...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// String formats the sample as "mean ±ci".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4f ±%.4f", s.Mean(), s.CI95())
}

// tCritical95 returns the two-tailed 95% Student-t critical value for
// the given degrees of freedom. Values beyond the table converge to the
// normal quantile 1.96.
func tCritical95(df int) float64 {
	table := []float64{
		0:  0, // unused
		1:  12.706,
		2:  4.303,
		3:  3.182,
		4:  2.776,
		5:  2.571,
		6:  2.447,
		7:  2.365,
		8:  2.306,
		9:  2.262,
		10: 2.228,
		11: 2.201,
		12: 2.179,
		13: 2.160,
		14: 2.145,
		15: 2.131,
		16: 2.120,
		17: 2.110,
		18: 2.101,
		19: 2.093,
		20: 2.086,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df < 30:
		return 2.06
	case df < 60:
		return 2.00
	default:
		return 1.96
	}
}

// Ratio returns a/b, or 0 when b is 0; used when normalizing results
// against a baseline configuration.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Wilson returns the 95% Wilson score interval for k successes out of
// n Bernoulli trials. Unlike the normal approximation, the interval
// stays inside [0, 1] and remains meaningful at the proportions
// reliability campaigns care about most — coverage near 100% and SDC
// rates near 0% — where the Wald interval collapses to a point.
func Wilson(k, n uint64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = z95
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - half) / denom
	hi = (center + half) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// z95 is the two-tailed 95% normal quantile shared by the Wilson
// interval and the sequential-stopping budget arithmetic.
const z95 = 1.959963984540054

// WilsonHalfWidth returns half the width of the 95% Wilson interval
// for num successes out of den trials — the precision figure the
// adaptive stopping rule compares against its target. It is the one
// definition of "half-width" in the tree: report columns and the
// sequential-stopping rule must agree on it, so neither recomputes
// (hi-lo)/2 by hand.
func WilsonHalfWidth(num, den uint64) float64 {
	lo, hi := Wilson(num, den)
	return (hi - lo) / 2
}

// WorstCaseTrials returns the smallest trial count n at which the
// 95% Wilson half-width is guaranteed to be at most half regardless
// of the observed proportion. The interval is widest at p=0.5, where
// the half-width is approximately z/(2*sqrt(n+z^2)); solving gives
// n = z^2/(4*half^2) - z^2. This is the sample size a fixed-batch
// design must provision to promise the same precision, and therefore
// the baseline adaptive campaigns report their trial savings against.
func WorstCaseTrials(half float64) uint64 {
	if half <= 0 {
		return 0
	}
	n := z95*z95/(4*half*half) - z95*z95
	if n < 1 {
		return 1
	}
	return uint64(math.Ceil(n))
}

// MannWhitneyLess runs a one-sided Mann-Whitney U test of whether x
// tends to be smaller than y. It returns x's U statistic — the number
// of (x, y) pairs with x above y, ties counting one half — and the
// p-value of a U that small when both samples come from one
// distribution. The p-value uses the normal approximation with tie and
// continuity corrections; it is 1 when either sample is empty or every
// value is tied, since such samples carry no evidence either way.
func MannWhitneyLess(x, y []float64) (u, p float64) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0, 1
	}
	type obs struct {
		v   float64
		inX bool
	}
	all := make([]obs, 0, n+m)
	for _, v := range x {
		all = append(all, obs{v, true})
	}
	for _, v := range y {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks: a run of tied values shares the mean of the ranks it
	// spans; each run of t ties shrinks the variance by t^3-t.
	var rankX, ties float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2
		for _, o := range all[i:j] {
			if o.inX {
				rankX += mid
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	nf, mf, total := float64(n), float64(m), float64(n+m)
	u = rankX - nf*(nf+1)/2
	variance := nf * mf / 12 * (total + 1 - ties/(total*(total-1)))
	if variance <= 0 {
		return u, 1
	}
	z := (u + 0.5 - nf*mf/2) / math.Sqrt(variance)
	return u, math.Erfc(-z/math.Sqrt2) / 2
}

// PercentileSorted returns the p-th percentile (0 < p <= 100) of an
// ascending-sorted sample using the nearest-rank definition, which is
// exact, deterministic and free of interpolation-order ambiguity.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
