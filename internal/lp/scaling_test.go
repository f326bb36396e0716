package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestPow2RoundMatchesLog2 holds the exponent arithmetic of pow2Round to
// the expression it replaces, bit for bit: on random magnitudes over the
// whole exponent range, subnormals included; on exact powers of two; in
// the neighbourhood of the 1/√2 rounding boundary at every exponent, inside
// and just outside the guard; and around the ±scalingMaxExp clamps.
func TestPow2RoundMatchesLog2(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if x == 0 {
			return // underflowed: not a positive input
		}
		if got, want := pow2Round(x), log2Round(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow2Round(%v = %b) = %v, log2 rounding gives %v", x, x, got, want)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200000; i++ {
		// Every positive finite float is 1 ≤ bits ≤ bits(MaxFloat64).
		check(math.Float64frombits(1 + rng.Uint64()%math.Float64bits(math.MaxFloat64)))
		check(math.Ldexp(0.5+rng.Float64()/2, rng.Intn(1024+1074+1)-1074))
	}
	check(math.SmallestNonzeroFloat64)
	check(math.MaxFloat64)
	for e := -1074; e <= 1023; e++ {
		check(math.Ldexp(1, e))
		// The boundary mantissa 1/√2 at this exponent and the floats
		// around it: a few ulps, then steps out past the guard.
		b := math.Ldexp(math.Sqrt2/2, e)
		lo, hi := b, b
		for k := 0; k < 8; k++ {
			check(lo)
			check(hi)
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		}
		for _, d := range []float64{0x1p-40, 0x1p-37, 0x1p-36, 0x1p-35, 0x1p-30, 0x1p-20} {
			check(math.Ldexp(math.Sqrt2/2+d, e))
			check(math.Ldexp(math.Sqrt2/2-d, e))
		}
	}
	// The clamps: log2 x just below, at and above ±(scalingMaxExp ± 1/2).
	for _, s := range []float64{-1, 1} {
		for _, d := range []float64{-1, -0.5001, -0.5, -0.4999, 0, 0.4999, 0.5, 0.5001, 1, 10} {
			x := math.Exp2(s * (scalingMaxExp + d))
			for k := 0; k < 4; k++ {
				check(x)
				x = math.Nextafter(x, math.Inf(1))
			}
		}
	}
}
