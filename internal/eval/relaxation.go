package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"tvnep/internal/core"
)

// RelaxationRecord captures the LP-relaxation objective of one formulation
// on one scenario (maximization: smaller bound = stronger relaxation).
type RelaxationRecord struct {
	FlexMin float64
	Seed    int64
	Form    core.Formulation
	Bound   float64 // LP relaxation objective (upper bound on the optimum)
	Exact   float64 // integer optimum (NaN if not computed)
	// Ref is the exact cΣ solve behind Exact, on the cΣ row only (nil on
	// the Δ and Σ rows), so each reference solve is counted once.
	Ref *Record
}

// RelaxationSweep reproduces the Section III strength argument numerically:
// it solves the LP relaxation of the Δ-, Σ- and cΣ-Model on every scenario
// (plus the cΣ integer optimum as the reference) and reports the bounds.
// The expected ordering is bound(Δ) ≥ bound(Σ) ≥ bound(cΣ) ≥ optimum.
//
//det:entry
func (c Config) RelaxationSweep(ctx context.Context, progress io.Writer) []RelaxationRecord {
	return slices.Concat(sweep(ctx, c, progress, func(ctx context.Context, key scenKey, log *strings.Builder) []RelaxationRecord {
		inst, mapping := c.scenario(key.flex, key.seed)
		ref, _ := c.solve(ctx, inst, mapping, key.record(core.CSigma, core.AccessControl, "mip"))
		exact := math.NaN()
		if ref.Optimal {
			exact = ref.Value
		}
		var recs []RelaxationRecord
		for _, f := range []core.Formulation{core.Delta, core.Sigma, core.CSigma} {
			// The facade has no relaxation entry, so the bounds come from
			// the built models directly.
			b := core.Build(f, inst, core.BuildOptions{
				Objective: core.AccessControl, FixedMapping: mapping,
			})
			rel := b.Model.Relax(ctx)
			rec := RelaxationRecord{FlexMin: key.flex, Seed: key.seed, Form: f, Exact: exact, Bound: math.NaN()}
			if rel.HasSolution {
				rec.Bound = rel.Obj
			}
			if f == core.CSigma {
				rec.Ref = &ref
			}
			recs = append(recs, rec)
			fmt.Fprintf(log, "flex=%3.0f seed=%2d %-2v relaxation=%8.3f exact=%8.3f\n",
				key.flex, key.seed, f, rec.Bound, exact)
		}
		return recs
	})...)
}

// WriteRelaxation renders per-formulation mean relaxation bounds and the
// integrality gap they leave.
func WriteRelaxation(w io.Writer, recs []RelaxationRecord, cfg Config) {
	fmt.Fprintln(w, "# Relaxation strength — LP bound of Δ/Σ/cΣ vs the integer optimum (Section III)")
	fmt.Fprintf(w, "%10s %14s %14s %14s %14s\n", "flex_min", "Δ bound", "Σ bound", "cΣ bound", "exact")
	for _, flex := range cfg.FlexMinutes {
		var sums [3]float64
		var counts [3]int
		exSum, exCount := 0.0, 0
		for _, r := range recs {
			//lint:allow floateq -- FlexMin is copied verbatim from the config grid; bit-exact group key
			if r.FlexMin != flex || math.IsNaN(r.Bound) {
				continue
			}
			sums[int(r.Form)] += r.Bound
			counts[int(r.Form)]++
			if r.Form == core.CSigma && !math.IsNaN(r.Exact) {
				exSum += r.Exact
				exCount++
			}
		}
		mean := func(i int) float64 {
			if counts[i] == 0 {
				return math.NaN()
			}
			return sums[i] / float64(counts[i])
		}
		exact := math.NaN()
		if exCount > 0 {
			exact = exSum / float64(exCount)
		}
		fmt.Fprintf(w, "%10.0f %14.4f %14.4f %14.4f %14.4f\n",
			flex, mean(int(core.Delta)), mean(int(core.Sigma)), mean(int(core.CSigma)), exact)
	}
	fmt.Fprintln(w)
}
