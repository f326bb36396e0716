package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestApplyBoundFlips checks the long-step ratio test's combined FTRAN:
// after boxed nonbasic columns flip to their opposite bounds, the basic
// values applyBoundFlips updates must match a from-scratch computeXB. Two
// rounds per basis also check that the second round clears the bound-flip
// vector over the pattern the first round's FTRAN returned. Both updates
// must leave the pricing candidate sets equal to their definitions.
func TestApplyBoundFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rounds := 0
	for trial := 0; trial < 40; trial++ {
		p, _ := buildRandomLP(rng, 4+rng.Intn(20), 2+rng.Intn(20))
		inst := NewInstance(p)
		if res := inst.Solve(nil); res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		s := inst.sv // left at the optimal basis, factorized
		for round := 0; round < 2; round++ {
			s.flips = s.flips[:0]
			for j := 0; j < inst.n+s.m; j++ {
				boxed := !math.IsInf(s.lb[j], 0) && !math.IsInf(s.ub[j], 0) && s.lb[j] < s.ub[j]
				if s.vstat[j] != vsBasic && boxed && rng.Intn(2) == 0 {
					s.flips = append(s.flips, int32(j))
				}
			}
			if len(s.flips) == 0 {
				continue
			}
			s.rebuildInfeas() // the primal ran last and left it stale
			flipped := append([]int32(nil), s.flips...)
			s.applyBoundFlips()
			if err := s.staleCandidates(); err != nil {
				t.Fatalf("trial %d round %d: after the flips: %v", trial, round, err)
			}
			got := append([]float64(nil), s.xB...)
			s.computeXB()
			for i, want := range s.xB {
				if math.Abs(got[i]-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("trial %d round %d: xB[%d] = %v after flips, computeXB gives %v", trial, round, i, got[i], want)
				}
			}
			// Undo the flips by hand from an exact infeas: computeXB must
			// leave it exact or marked stale.
			s.rebuildInfeas()
			for _, j := range flipped {
				s.vstat[j] = vsLower + vsUpper - s.vstat[j]
				s.markCand(int(j))
			}
			s.computeXB()
			if err := s.staleCandidates(); err != nil {
				t.Fatalf("trial %d round %d: after computeXB: %v", trial, round, err)
			}
			rounds++
		}
	}
	if rounds < 20 {
		t.Fatalf("only %d flip rounds ran", rounds)
	}
}
