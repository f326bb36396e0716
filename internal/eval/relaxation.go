package eval

import (
	"context"
	"fmt"
	"io"
	"math"
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
}

// RelaxationSweep reproduces the Section III strength argument numerically:
// it solves the LP relaxation of the Δ-, Σ- and cΣ-Model on every scenario
// (plus the cΣ integer optimum as the reference) and reports the bounds.
// The expected ordering is bound(Δ) ≥ bound(Σ) ≥ bound(cΣ) ≥ optimum.
//
//det:entry
func (c Config) RelaxationSweep(ctx context.Context, progress io.Writer) []RelaxationRecord {
	type relResult struct {
		recs []RelaxationRecord
		log  string
	}
	keys := c.pairs()
	var out []RelaxationRecord
	runOrdered(ctx, c.Workers, len(keys),
		func(ctx context.Context, i int) relResult {
			flex, seed := keys[i].flex, keys[i].seed
			inst, mapping := c.scenario(flex, seed)
			var log strings.Builder
			var res relResult
			exact := math.NaN()
			if rec := c.solveOne(ctx, core.CSigma, core.AccessControl, inst, mapping, flex, seed); rec.Optimal {
				exact = rec.Value
			}
			for _, f := range []core.Formulation{core.Delta, core.Sigma, core.CSigma} {
				b := core.Build(f, inst, core.BuildOptions{
					Objective: core.AccessControl, FixedMapping: mapping,
				})
				rel := b.Model.Relax()
				rec := RelaxationRecord{FlexMin: flex, Seed: seed, Form: f, Exact: exact}
				if rel.HasSolution {
					rec.Bound = rel.Obj
				} else {
					rec.Bound = math.NaN()
				}
				res.recs = append(res.recs, rec)
				fmt.Fprintf(&log, "flex=%3.0f seed=%2d %-2v relaxation=%8.3f exact=%8.3f\n",
					flex, seed, f, rec.Bound, exact)
			}
			res.log = log.String()
			return res
		},
		func(_ int, r relResult) {
			out = append(out, r.recs...)
			if progress != nil && r.log != "" {
				io.WriteString(progress, r.log)
			}
		})
	return out
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
