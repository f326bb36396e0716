package eval

import (
	"fmt"
	"math"
	"sort"

	"tvnep/internal/core"
)

// Figure3 — runtime of the Δ-, Σ- and cΣ-Model as a function of temporal
// flexibility under the access-control objective. Solves cut off at the
// time limit report the limit itself, as in the paper ("a runtime of 3600
// implies that no optimal solution has been found").
func Figure3(records []Record, cfg Config) []Series {
	var out []Series
	for _, f := range []core.Formulation{core.Delta, core.Sigma, core.CSigma} {
		form := f
		x, sums := collect(records, cfg.FlexMinutes,
			func(r Record) bool { return r.Algo == "mip" && r.Form == form && r.Obj == core.AccessControl },
			func(r Record) float64 {
				if !r.Optimal {
					return cfg.TimeLimit.Seconds()
				}
				return r.Runtime.Seconds()
			})
		out = append(out, Series{Label: fmt.Sprintf("runtime[s] %v-Model", form), X: x, Summaries: sums})
	}
	return out
}

// Figure4 — objective gap after the time limit, per formulation. Scenarios
// solved to optimality contribute gap 0; scenarios without any feasible
// solution contribute +Inf (rendered as the paper's ∞ marker; summarized
// here by capping at a large sentinel so quartiles stay printable).
func Figure4(records []Record, cfg Config) []Series {
	const infSentinel = 1e6
	var out []Series
	for _, f := range []core.Formulation{core.Delta, core.Sigma, core.CSigma} {
		form := f
		x, sums := collect(records, cfg.FlexMinutes,
			func(r Record) bool { return r.Algo == "mip" && r.Form == form && r.Obj == core.AccessControl },
			func(r Record) float64 {
				if math.IsInf(r.Gap, 1) {
					return infSentinel
				}
				return r.Gap * 100 // percent
			})
		out = append(out, Series{Label: fmt.Sprintf("gap[%%] %v-Model (1e6 ≙ ∞)", form), X: x, Summaries: sums})
	}
	return out
}

// Figure5 — runtime of the cΣ-Model under the three fixed-set objectives.
func Figure5(records []Record, cfg Config) []Series {
	var out []Series
	for _, o := range []core.Objective{core.MaxEarliness, core.BalanceNodeLoad, core.DisableLinks} {
		obj := o
		x, sums := collect(records, cfg.FlexMinutes,
			func(r Record) bool { return r.Algo == "mip" && r.Obj == obj },
			func(r Record) float64 {
				if !r.Optimal {
					return cfg.TimeLimit.Seconds()
				}
				return r.Runtime.Seconds()
			})
		out = append(out, Series{Label: fmt.Sprintf("runtime[s] cΣ %v", obj), X: x, Summaries: sums})
	}
	return out
}

// Figure6 — gap of the cΣ-Model under the three fixed-set objectives.
func Figure6(records []Record, cfg Config) []Series {
	const infSentinel = 1e6
	var out []Series
	for _, o := range []core.Objective{core.MaxEarliness, core.BalanceNodeLoad, core.DisableLinks} {
		obj := o
		x, sums := collect(records, cfg.FlexMinutes,
			func(r Record) bool { return r.Algo == "mip" && r.Obj == obj },
			func(r Record) float64 {
				if math.IsInf(r.Gap, 1) {
					return infSentinel
				}
				return r.Gap * 100
			})
		out = append(out, Series{Label: fmt.Sprintf("gap[%%] cΣ %v (1e6 ≙ ∞)", obj), X: x, Summaries: sums})
	}
	return out
}

// Figure7 — relative performance of Algorithm cΣ_A^G with respect to the
// solutions found by the cΣ-Model: (opt − greedy)/opt in percent, paired by
// (flexibility, seed).
func Figure7(records []Record, cfg Config) []Series {
	type key struct {
		flex float64
		seed int64
	}
	opt := map[key]float64{}
	grd := map[key]float64{}
	for _, r := range records {
		if r.Obj != core.AccessControl {
			continue
		}
		k := key{r.FlexMin, r.Seed}
		switch r.Algo {
		case "mip":
			if r.Form == core.CSigma {
				opt[k] = r.Value
			}
		case "greedy":
			grd[k] = r.Value
		}
	}
	gapRecords := make([]Record, 0, len(grd))
	for k, g := range grd {
		o, ok := opt[k]
		if !ok || o <= 0 {
			continue
		}
		gapRecords = append(gapRecords, Record{
			FlexMin: k.flex, Seed: k.seed, Algo: "pair",
			Value: 100 * (o - g) / o,
		})
	}
	// grd is a map, so the records arrive in randomized iteration order; fix
	// the order before any consumer can accumulate floats across it.
	sort.Slice(gapRecords, func(i, j int) bool {
		a, b := gapRecords[i], gapRecords[j]
		if a.FlexMin < b.FlexMin {
			return true
		}
		if b.FlexMin < a.FlexMin {
			return false
		}
		return a.Seed < b.Seed
	})
	x, sums := collect(gapRecords, cfg.FlexMinutes,
		func(r Record) bool { return true },
		func(r Record) float64 { return r.Value })
	return []Series{{Label: "greedy optimality gap [%] vs cΣ", X: x, Summaries: sums}}
}

// Figure8 — number of requests embedded by the cΣ-Model per flexibility.
func Figure8(records []Record, cfg Config) []Series {
	x, sums := collect(records, cfg.FlexMinutes,
		func(r Record) bool {
			return r.Algo == "mip" && r.Form == core.CSigma && r.Obj == core.AccessControl
		},
		func(r Record) float64 { return float64(r.Accepted) })
	return []Series{{Label: "requests embedded (cΣ)", X: x, Summaries: sums}}
}

// Figure9 — relative improvement of the access-control objective compared
// with the objective at flexibility 0, paired by seed, in percent.
func Figure9(records []Record, cfg Config) []Series {
	base := map[int64]float64{}
	for _, r := range records {
		if r.Algo == "mip" && r.Form == core.CSigma && r.Obj == core.AccessControl && r.FlexMin == 0 {
			base[r.Seed] = r.Value
		}
	}
	var rel []Record
	for _, r := range records {
		if r.Algo != "mip" || r.Form != core.CSigma || r.Obj != core.AccessControl {
			continue
		}
		b, ok := base[r.Seed]
		if !ok || b <= 0 {
			continue
		}
		rel = append(rel, Record{FlexMin: r.FlexMin, Seed: r.Seed, Value: 100 * (r.Value - b) / b})
	}
	x, sums := collect(rel, cfg.FlexMinutes,
		func(r Record) bool { return true },
		func(r Record) float64 { return r.Value })
	return []Series{{Label: "objective improvement over flex=0 [%] (cΣ)", X: x, Summaries: sums}}
}
