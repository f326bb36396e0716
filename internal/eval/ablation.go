package eval

import (
	"context"
	"fmt"
	"io"
	"strings"

	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
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
	type ablResult struct {
		recs []AblationRecord
		log  string
		err  error
	}
	keys := c.pairs()
	var out []AblationRecord
	var firstErr error
	runOrdered(ctx, c.Workers, len(keys),
		func(ctx context.Context, i int) ablResult {
			flex, seed := keys[i].flex, keys[i].seed
			inst, mapping := c.scenario(flex, seed)
			var log strings.Builder
			var res ablResult
			best := map[string]float64{}
			for _, v := range AblationVariants() {
				b := core.BuildCSigma(inst, core.BuildOptions{
					Objective:       core.AccessControl,
					FixedMapping:    mapping,
					CutMode:         v.CutMode,
					DisablePresolve: v.DisablePresolve,
				})
				inner := c.Solve
				sol, ms := b.Solve(ctx, &inner)
				c.count(ms)
				rec := AblationRecord{
					Record: Record{
						FlexMin: flex, Seed: seed, Form: core.CSigma,
						Obj: core.AccessControl, Algo: "mip",
						Runtime: ms.Runtime, Gap: ms.Gap,
						Nodes: ms.Nodes, LPIters: ms.LPIterations,
						Optimal: ms.Status == model.StatusOptimal,
					},
					Variant:       v.Name,
					NumVars:       b.Model.NumVars(),
					NumConstrs:    b.Model.NumConstrs(),
					NumInts:       b.Model.NumIntVars(),
					SeparatedRows: ms.Cuts.SeparatedRows,
				}
				if sol != nil {
					rec.Value = sol.Objective
					rec.Accepted = sol.NumAccepted()
					rec.Feasible = solution.Check(inst.Sub, inst.Reqs, sol) == nil
				}
				if rec.Optimal {
					best[v.Name] = rec.Value
				}
				res.recs = append(res.recs, rec)
				fmt.Fprintf(&log, "flex=%3.0f seed=%2d %-14s obj=%7.2f time=%7.2fs nodes=%5d vars=%d rows=%d\n",
					flex, seed, v.Name, rec.Value, rec.Runtime.Seconds(), rec.Nodes, rec.NumVars, rec.NumConstrs)
			}
			// Cross-variant sanity: proven optima must agree.
			var ref float64
			first := true
			for name, v := range best {
				if first {
					ref, first = v, false
					continue
				}
				if diff := v - ref; diff > numtol.ObjTol || diff < -numtol.ObjTol {
					res.err = fmt.Errorf("ablation mismatch at flex=%v seed=%d: %s=%v vs ref=%v",
						flex, seed, name, v, ref)
					break
				}
			}
			res.log = log.String()
			return res
		},
		func(_ int, r ablResult) {
			out = append(out, r.recs...)
			if progress != nil && r.log != "" {
				io.WriteString(progress, r.log)
			}
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
		})
	return out, firstErr
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
					times = append(times, cfg.Solve.TimeLimit.Seconds())
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
