package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"tvnep/internal/core"
	"tvnep/internal/round"
	"tvnep/internal/stats"
	"tvnep/pkg/tvnep"
)

// RoundingSweep runs the randomized-rounding tier and the optimal cΣ-Model
// side by side on every scenario under the access-control objective: the
// exact-vs-approx comparison behind the EXPERIMENTS table (objective gap,
// fallback rate, wall-clock). Scenario-local seeds derive from Config.Seed
// via round.MixSeed, so the sweep is bit-identical for equal seeds and
// every worker count. Under CutLazy the rounding tier relaxes the
// static-cut model (round.Solve), since nothing separates cuts in a bare
// relaxation.
//
//det:entry
func (c Config) RoundingSweep(ctx context.Context, progress io.Writer) []Record {
	return slices.Concat(sweep(ctx, c, progress, func(ctx context.Context, key scenKey, log *strings.Builder) []Record {
		inst, mapping := c.scenario(key.flex, key.seed)
		opt, _ := c.solve(ctx, inst, mapping, key.record(core.CSigma, core.AccessControl, "mip"))
		rec, _ := c.solve(ctx, inst, mapping, key.record(core.CSigma, core.AccessControl, "rounding"),
			tvnep.WithAlgorithm(tvnep.Rounding),
			tvnep.WithSeed(round.MixSeed(c.Seed, key.seed, int64(math.Float64bits(key.flex)))))
		fb := " "
		if rec.FellBack {
			fb = "F"
		}
		fmt.Fprintf(log, "flex=%3.0f seed=%2d rounding obj=%7.2f (opt %7.2f) lp-gap=%6.3g %s time=%8.4fs\n",
			key.flex, key.seed, rec.Value, opt.Value, rec.Gap, fb, rec.Runtime.Seconds())
		return []Record{opt, rec}
	})...)
}

// WriteRoundingTable renders the exact-vs-approx comparison: per
// flexibility step, the rounded objective's fraction of the exact optimum,
// the LP-bound gap, the fallback rate and both median wall-clocks.
func WriteRoundingTable(w io.Writer, records []Record) {
	type bucket struct {
		ratios, gaps, exactSec, roundSec []float64
		fellBack, roundRuns              int
	}
	var xs []float64
	buckets := map[float64]*bucket{}
	for _, r := range records {
		b, seen := buckets[r.FlexMin]
		if !seen {
			b = &bucket{}
			buckets[r.FlexMin] = b
			xs = append(xs, r.FlexMin)
		}
		if r.Algo != "rounding" {
			b.exactSec = append(b.exactSec, r.Runtime.Seconds())
			continue
		}
		b.roundRuns++
		b.roundSec = append(b.roundSec, r.Runtime.Seconds())
		if r.FellBack {
			b.fellBack++
		}
		if !math.IsInf(r.Gap, 1) {
			b.gaps = append(b.gaps, r.Gap)
		}
		// Pair with the exact record of the same (flex, seed) scenario.
		for _, o := range records {
			//lint:allow floateq -- FlexMin is copied verbatim from the config grid; bit-exact group key
			if o.Algo != "rounding" && o.FlexMin == r.FlexMin && o.Seed == r.Seed && o.Value > 0 {
				b.ratios = append(b.ratios, r.Value/o.Value)
				break
			}
		}
	}
	fmt.Fprintln(w, "# Exact vs randomized rounding (access control)")
	fmt.Fprintf(w, "%10s %12s %12s %12s %14s %14s %10s\n",
		"flex_min", "obj_ratio", "lp_gap_med", "fallback", "exact_med_s", "round_med_s", "n")
	for _, x := range xs {
		b := buckets[x]
		fbRate := 0.0
		if b.roundRuns > 0 {
			fbRate = float64(b.fellBack) / float64(b.roundRuns)
		}
		fmt.Fprintf(w, "%10.0f %12.4f %12.4g %12.3f %14.4f %14.4f %10d\n",
			x, stats.Summarize(b.ratios).Median, stats.Summarize(b.gaps).Median, fbRate,
			stats.Summarize(b.exactSec).Median, stats.Summarize(b.roundSec).Median, b.roundRuns)
	}
	fmt.Fprintln(w)
}
