package main

import "slices"

// quantile returns the q-quantile of ascending values, interpolating
// linearly between the two nearest order statistics. Empty input gives 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// ratio is a / b, or 0 when b is 0 (a layer absent from a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// accum sums a count of events and their nanoseconds.
type accum struct{ n, ns int64 }

func (a *accum) add(ns int64)       { a.n++; a.ns += ns }
func (a *accum) merge(b accum)      { a.n += b.n; a.ns += b.ns }
func (a accum) minus(b accum) accum { return accum{a.n - b.n, a.ns - b.ns} }
func (a accum) mean() float64       { return ratio(float64(a.ns), float64(a.n)) }
