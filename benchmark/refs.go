package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"tvnep/pkg/tvnep"
)

// wanReferences holds the optimal access-control objective of every exact
// op of the offline batch, keyed by op name. They were computed with
// --print-refs, which solves each scenario with arc flows and static cuts
// (a formulation independent of the path/lazy one the workload runs) and
// checks that path flows reach the same optimum.
var wanReferences = map[string]float64{
	"wan-s1-f0":  47.931876838115215,
	"wan-s1-f1":  47.931876838115215,
	"wan-s1-f2":  47.931876838115215,
	"wan-s1-f3":  47.931876838115215,
	"wan-s2-f0":  82.096554003465315,
	"wan-s2-f1":  82.096554003465315,
	"wan-s2-f2":  82.096554003465315,
	"wan-s2-f3":  84.990057471434199,
	"wan-s3-f0":  60.219485170412725,
	"wan-s3-f1":  60.219485170412725,
	"wan-s3-f2":  60.219485170412725,
	"wan-s3-f3":  60.219485170412725,
	"wan-s4-f0":  42.081071597302724,
	"wan-s4-f1":  42.081071597302724,
	"wan-s4-f2":  42.081071597302724,
	"wan-s4-f3":  42.081071597302724,
	"wan-s5-f0":  28.548686823152298,
	"wan-s5-f1":  28.548686823152298,
	"wan-s5-f2":  31.016329969689064,
	"wan-s5-f3":  31.016329969689064,
	"wan-s6-f0":  42.193071900577465,
	"wan-s6-f1":  42.193071900577465,
	"wan-s6-f2":  42.193071900577465,
	"wan-s6-f3":  42.193071900577465,
	"wan-s7-f0":  40.588679846194694,
	"wan-s7-f1":  40.588679846194694,
	"wan-s7-f2":  40.588679846194694,
	"wan-s7-f3":  40.588679846194694,
	"wan-s8-f0":  40.425917300648003,
	"wan-s8-f1":  40.425917300648003,
	"wan-s8-f2":  40.425917300648003,
	"wan-s8-f3":  40.425917300648003,
	"wan-s9-f0":  54.155434611510579,
	"wan-s9-f1":  54.155434611510579,
	"wan-s9-f2":  54.155434611510579,
	"wan-s9-f3":  54.155434611510579,
	"wan-s10-f0": 68.632227322522652,
	"wan-s10-f1": 68.632227322522652,
	"wan-s10-f2": 68.632227322522652,
	"wan-s10-f3": 68.632227322522652,
	"wan-s11-f0": 52.353259597049153,
	"wan-s11-f1": 52.353259597049153,
	"wan-s11-f2": 52.353259597049153,
	"wan-s11-f3": 52.353259597049153,
	"wan-s12-f0": 66.063712262353704,
	"wan-s12-f1": 66.063712262353704,
	"wan-s12-f2": 66.063712262353704,
	"wan-s12-f3": 66.063712262353704,
}

// wanReference returns the stored optimum of an exact op (NaN if missing,
// which checkSolve reports as a failure).
func wanReference(name string) float64 {
	if v, ok := wanReferences[name]; ok {
		return v
	}
	return math.NaN()
}

// solveWAN solves one exact-part scenario to optimality in the given flow
// mode and returns its objective.
func solveWAN(ctx context.Context, sc *tvnep.Scenario, fm tvnep.FlowMode) (float64, error) {
	opts := []tvnep.Option{tvnep.WithFlowMode(fm), tvnep.WithNodeLimit(offlineNodeLim), tvnep.WithWorkers(1)}
	if fm == tvnep.FlowArc {
		opts = append(opts, tvnep.WithCutMode(tvnep.CutStatic))
	}
	s, err := tvnep.New(sc.Substrate, opts...)
	if err != nil {
		return 0, err
	}
	res, err := s.Solve(ctx, sc.Requests, sc.Mapping)
	if err != nil {
		return 0, err
	}
	if res.Status != tvnep.StatusOptimal {
		return 0, fmt.Errorf("status %v, want optimal", res.Status)
	}
	return res.Solution.Objective, nil
}

// printReferences recomputes the reference table and prints it as Go
// source for wanReferences.
func printReferences(w io.Writer) error {
	ctx := context.Background()
	fmt.Fprintln(w, "var wanReferences = map[string]float64{")
	for s := int64(1); s <= wanSeeds; s++ {
		for _, f := range offlineFlex {
			sc := wanScenario(s, f)
			arc, err := solveWAN(ctx, sc, tvnep.FlowArc)
			if err != nil {
				return fmt.Errorf("%s arc: %w", wanName(s, f), err)
			}
			path, err := solveWAN(ctx, sc, tvnep.FlowPath)
			if err != nil {
				return fmt.Errorf("%s path: %w", wanName(s, f), err)
			}
			if !objEqual(path, arc) {
				return fmt.Errorf("%s: path objective %v, arc objective %v", wanName(s, f), path, arc)
			}
			fmt.Fprintf(w, "\t%q: %s,\n", wanName(s, f), formatFloat(arc))
		}
	}
	fmt.Fprintln(w, "}")
	return nil
}

func formatFloat(v float64) string { return fmt.Sprintf("%.17g", v) }
