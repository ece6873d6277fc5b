// Fixtures for the detmap analyzer: map-order-dependent iteration inside
// the determinism-checked import path.
package detmapfix

import (
	"maps"
	"slices"
	"sort"
)

// BadPick returns whichever key the runtime happens to visit first.
func BadPick(m map[string]int) string {
	for k := range m { // want `range over a map: iteration order leaks`
		return k
	}
	return ""
}

// fracSum is the Fig. 15 bug: a float total folded in map order.
func fracSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `accumulates float sum in iteration order`
		sum += v
	}
	return sum
}

// fracSumAnnotated: //lint:deterministic claims the loop commutes, and
// float addition does not, so the annotation is refused.
func fracSumAnnotated(m map[string]float64) float64 {
	var sum float64
	//lint:deterministic all values positive, total is what matters
	for _, v := range m { // want `//lint:deterministic cannot waive this loop`
		sum += v
	}
	return sum
}

type acc struct{ total, spread float64 }

// spelledOut covers the other accumulation spellings and a field target.
func (a *acc) spelledOut(m map[string]float64) {
	//lint:deterministic refused: x = x + e is still a float sum
	for _, v := range m { // want `accumulates float a\.total in iteration order`
		a.total = a.total + v
	}
	//lint:deterministic refused: so is x -= e
	for _, v := range m { // want `accumulates float a\.spread in iteration order`
		if v > 0 {
			a.spread -= v
		}
	}
}

// GoodIntSum: integer addition does commute, so the annotation stands.
func GoodIntSum(m map[string]int) int {
	n := 0
	//lint:deterministic integer sum commutes
	for _, v := range m {
		n += v
	}
	return n
}

// GoodLocalAcc: each iteration sums into its own variable, which no other
// iteration sees; building another map commutes.
func GoodLocalAcc(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	//lint:deterministic builds another map, one independent entry per key
	for k, vs := range m {
		var t float64
		for _, v := range vs {
			t += v
		}
		out[k] = t
	}
	return out
}

// WaivedSum: the explicit waiver is the one annotation the float rule
// honours.
func WaivedSum(m map[string]float64) float64 {
	var sum float64
	//lint:allow detmap fixture exercises the explicit waiver
	for _, v := range m {
		sum += v
	}
	return sum
}

// BadKeys walks maps.Keys without sorting.
func BadKeys(m map[string]int) []string {
	var out []string
	for k := range maps.Keys(m) { // want `maps\.Keys without an immediate sort`
		out = append(out, k)
	}
	return out
}

// GoodSorted sorts the keys in the same expression.
func GoodSorted(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

// GoodAnnotated waives a collect-then-sort loop.
func GoodAnnotated(m map[string]int) []string {
	out := make([]string, 0, len(m))
	//lint:deterministic keys are sorted before use
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MissingReason carries a bare annotation: the annotation itself is
// reported and it suppresses nothing.
func MissingReason(m map[string]int) int {
	n := 0
	// want+1 "lint annotation without a reason"
	//lint:deterministic
	for range m { // want `range over a map`
		n++
	}
	return n
}
