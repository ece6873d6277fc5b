package main

import "sort"

// quartiles returns the first quartile, median and third quartile of vs
// with the "exclusive" method (the one Python's statistics.quantiles(n=4)
// uses, and so the one the benchmark driver applies to our medians): the
// quartile of rank p sits at position p*(n+1) in the sorted sample, linearly
// interpolated and clamped to the sample's range. One value is its own
// quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1 // 0-based
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// median returns the middle of vs (the mean of the middle two for an even
// count).
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// mean returns the arithmetic mean of vs, or 0 for none.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// selfTime is the layer-peel subtraction: the time a rung adds over the
// rung below it. Rungs are medians of separate runs, so noise can push a
// thin layer's difference below zero; it is reported as measured, not
// clamped, so that a negative self time reads as "below the noise floor".
func selfTime(rung, below float64) float64 { return rung - below }

// ratio returns num/den, or 0 when den is 0 (a probe that measured
// nothing).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
