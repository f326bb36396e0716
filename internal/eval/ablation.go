package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"tvnep/internal/core"
	"tvnep/internal/numtol"
	"tvnep/pkg/tvnep"
)

// AblationVariant names one cΣ configuration in the cuts/presolve ablation.
type AblationVariant struct {
	Name            string
	CutMode         core.CutMode
	DisablePresolve bool
}

// AblationVariants enumerates the cΣ configurations of DESIGN.md §6 plus the
// lazy-separation variant: identical cut family to "cΣ full" but the
// Constraint-(20) rows enter the LP through the separation pipeline instead
// of static emission.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "cΣ full", CutMode: core.CutStatic, DisablePresolve: false},
		{Name: "cΣ lazy-cuts", CutMode: core.CutLazy, DisablePresolve: false},
		{Name: "cΣ no-cuts", CutMode: core.CutOff, DisablePresolve: false},
		{Name: "cΣ no-presolve", CutMode: core.CutStatic, DisablePresolve: true},
		{Name: "cΣ bare", CutMode: core.CutOff, DisablePresolve: true},
	}
}

// AblationRecord extends Record with model-size statistics.
type AblationRecord struct {
	Record
	Variant    string
	NumVars    int
	NumConstrs int
	NumInts    int
	// SeparatedRows counts cut rows appended during the solve (lazy variant
	// only; static rows are included in NumConstrs instead).
	SeparatedRows int
}

// AblationSweep quantifies the contribution of the temporal dependency
// graph cuts, of the lazy separation pipeline and of the activity-interval
// presolve (Section IV-C): it solves every scenario with the five cΣ
// variants and records runtimes, node counts and model sizes. Variants must
// (and are verified to) agree on the optimum whenever both solve to proven
// optimality.
//
//det:entry
func (c Config) AblationSweep(ctx context.Context, progress io.Writer) ([]AblationRecord, error) {
	return flatten(sweep(ctx, c, progress, func(ctx context.Context, key scenKey, log *strings.Builder) outcome[AblationRecord] {
		inst, mapping := c.scenario(key.flex, key.seed)
		var out outcome[AblationRecord]
		for _, v := range AblationVariants() {
			opts := []tvnep.Option{tvnep.WithCutMode(v.CutMode), tvnep.WithFlowMode(tvnep.FlowArc)}
			if v.DisablePresolve {
				opts = append(opts, tvnep.WithoutPresolve())
			}
			r, res := c.solve(ctx, inst, mapping, key.record(core.CSigma, core.AccessControl, "mip"), opts...)
			rec := AblationRecord{Record: r, Variant: v.Name, SeparatedRows: r.Cuts.SeparatedRows}
			if res != nil {
				rec.NumVars, rec.NumConstrs, rec.NumInts = res.ModelStats.Vars, res.ModelStats.Constrs, res.ModelStats.IntVars
			}
			out.recs = append(out.recs, rec)
			fmt.Fprintf(log, "flex=%3.0f seed=%2d %-14s obj=%7.2f time=%7.2fs nodes=%5d vars=%d rows=%d\n",
				key.flex, key.seed, v.Name, rec.Value, rec.Runtime.Seconds(), rec.Nodes, rec.NumVars, rec.NumConstrs)
		}
		// Cross-variant sanity: proven optima must agree.
		var ref *AblationRecord
		for i := range out.recs {
			rec := &out.recs[i]
			switch {
			case !rec.Optimal:
			case ref == nil:
				ref = rec
			case math.Abs(rec.Value-ref.Value) > numtol.ObjTol:
				out.err = fmt.Errorf("ablation mismatch at flex=%v seed=%d: %s=%v vs %s=%v",
					key.flex, key.seed, rec.Variant, rec.Value, ref.Variant, ref.Value)
				return out
			}
		}
		return out
	}))
}

// WriteAblation renders the ablation results grouped by variant.
func WriteAblation(w io.Writer, recs []AblationRecord, cfg Config) {
	fmt.Fprintln(w, "# Ablation — cΣ with/without dependency-graph cuts and presolve")
	for _, v := range AblationVariants() {
		fmt.Fprintf(w, "## %s\n", v.Name)
		fmt.Fprintf(w, "%10s %12s %12s %10s %10s %10s %10s\n", "flex_min", "med_time_s", "med_nodes", "med_vars", "med_rows", "med_sep", "solved")
		for _, flex := range cfg.FlexMinutes {
			var times, nodes, vars, rows, sep []float64
			solved, total := 0, 0
			for _, r := range recs {
				//lint:allow floateq -- FlexMin is copied verbatim from the config grid; bit-exact group key
				if r.Variant != v.Name || r.FlexMin != flex {
					continue
				}
				total++
				if r.Optimal {
					solved++
					times = append(times, r.Runtime.Seconds())
				} else {
					times = append(times, cfg.TimeLimit.Seconds())
				}
				nodes = append(nodes, float64(r.Nodes))
				vars = append(vars, float64(r.NumVars))
				rows = append(rows, float64(r.NumConstrs))
				sep = append(sep, float64(r.SeparatedRows))
			}
			fmt.Fprintf(w, "%10.0f %12.4g %12.4g %10.4g %10.4g %10.4g %7d/%d\n",
				flex, median(times), median(nodes), median(vars), median(rows), median(sep), solved, total)
		}
	}
	fmt.Fprintln(w)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if n := len(cp); n%2 == 1 {
		return cp[n/2]
	} else {
		return (cp[n/2-1] + cp[n/2]) / 2
	}
}
