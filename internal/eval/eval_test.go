package eval

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/workload"
)

// micro returns a configuration small enough for unit tests.
func micro() Config {
	wl := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 3, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1.5,
		MeanInterArr: 1, WeibullShape: 2, WeibullScale: 2,
	}
	return Config{
		Workload:    wl,
		FlexMinutes: []float64{0, 120},
		Seeds:       []int64{1, 2},
		TimeLimit:   15 * time.Second,
	}
}

func TestAccessControlSweepCSigma(t *testing.T) {
	cfg := micro()
	recs := cfg.AccessControlSweep(context.Background(), []core.Formulation{core.CSigma}, nil)
	if len(recs) != 4 {
		t.Fatalf("%d records, want 4", len(recs))
	}
	for _, r := range recs {
		if !r.Optimal {
			t.Fatalf("flex=%v seed=%d not optimal (gap %v)", r.FlexMin, r.Seed, r.Gap)
		}
		if !r.Feasible {
			t.Fatalf("flex=%v seed=%d solution failed the independent checker", r.FlexMin, r.Seed)
		}
	}
	// Flexibility can only help: for each seed, value at 120 ≥ value at 0.
	byKey := map[[2]int64]float64{}
	for _, r := range recs {
		byKey[[2]int64{int64(r.FlexMin), r.Seed}] = r.Value
	}
	for _, seed := range cfg.Seeds {
		if byKey[[2]int64{120, seed}] < byKey[[2]int64{0, seed}]-1e-6 {
			t.Fatalf("seed %d: objective decreased with flexibility", seed)
		}
	}
}

func TestGreedySweepAndFigure7(t *testing.T) {
	cfg := micro()
	recs := cfg.GreedySweep(context.Background(), nil)
	if len(recs) != 8 { // 2 flex × 2 seeds × {opt, greedy}
		t.Fatalf("%d records, want 8", len(recs))
	}
	series := Figure7(recs, cfg)
	if len(series) != 1 {
		t.Fatalf("%d series", len(series))
	}
	for i := range series[0].X {
		sm := series[0].Summaries[i]
		if sm.N == 0 {
			t.Fatalf("flex %v: no paired samples", series[0].X[i])
		}
		if sm.Min < -1e-6 {
			t.Fatalf("greedy beat the optimum: min gap %v%%", sm.Min)
		}
	}
}

func TestObjectivesSweepAndFigures56(t *testing.T) {
	cfg := micro()
	recs := cfg.ObjectivesSweep(context.Background(), nil)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for _, r := range recs {
		if r.Obj == core.AccessControl {
			t.Fatal("access-control record in objectives sweep")
		}
	}
	f5 := Figure5(recs, cfg)
	f6 := Figure6(recs, cfg)
	if len(f5) != 3 || len(f6) != 3 {
		t.Fatalf("figure 5/6 series counts %d/%d, want 3/3", len(f5), len(f6))
	}
}

func TestFigures348FromSyntheticRecords(t *testing.T) {
	cfg := micro()
	mk := func(flex float64, seed int64, f core.Formulation, val float64, acc int, optimal bool, gap float64, rt time.Duration) Record {
		return Record{FlexMin: flex, Seed: seed, Form: f, Obj: core.AccessControl,
			Algo: "mip", Value: val, Accepted: acc, Optimal: optimal, Gap: gap, Runtime: rt}
	}
	recs := []Record{
		mk(0, 1, core.CSigma, 10, 2, true, 0, time.Second),
		mk(0, 2, core.CSigma, 20, 3, true, 0, 2*time.Second),
		mk(120, 1, core.CSigma, 15, 3, true, 0, 3*time.Second),
		mk(120, 2, core.CSigma, 30, 4, false, 0.25, cfg.TimeLimit),
		mk(0, 1, core.Delta, 10, 2, false, math.Inf(1), cfg.TimeLimit),
	}
	f3 := Figure3(recs, cfg)
	if len(f3) != 3 {
		t.Fatalf("figure 3: %d series", len(f3))
	}
	// cΣ series is the third; at flex 120 one solve hit the limit → max
	// equals the limit.
	cs := f3[2]
	if cs.Summaries[1].Max != cfg.TimeLimit.Seconds() {
		t.Fatalf("figure 3 cΣ max = %v, want %v", cs.Summaries[1].Max, cfg.TimeLimit.Seconds())
	}
	f4 := Figure4(recs, cfg)
	// Δ at flex 0 has no solution → sentinel 1e6.
	if f4[0].Summaries[0].Max != 1e6 {
		t.Fatalf("figure 4 Δ sentinel missing: %v", f4[0].Summaries[0].Max)
	}
	f8 := Figure8(recs, cfg)
	if f8[0].Summaries[0].Mean != 2.5 {
		t.Fatalf("figure 8 mean accepted = %v, want 2.5", f8[0].Summaries[0].Mean)
	}
	f9 := Figure9(recs, cfg)
	// Seed 1: (15−10)/10 = 50%; seed 2: (30−20)/20 = 50%.
	if math.Abs(f9[0].Summaries[1].Median-50) > 1e-9 {
		t.Fatalf("figure 9 median = %v, want 50", f9[0].Summaries[1].Median)
	}
	// At flex 0 the improvement is 0 by definition.
	if f9[0].Summaries[0].Max != 0 {
		t.Fatalf("figure 9 at flex 0 = %v, want 0", f9[0].Summaries[0].Max)
	}
}

func TestWriteSeries(t *testing.T) {
	var buf bytes.Buffer
	cfg := micro()
	recs := []Record{{FlexMin: 0, Seed: 1, Form: core.CSigma, Obj: core.AccessControl, Algo: "mip", Accepted: 2}}
	WriteSeries(&buf, "figure 8", Figure8(recs, cfg))
	out := buf.String()
	if !strings.Contains(out, "# figure 8") || !strings.Contains(out, "flex_min") {
		t.Fatalf("output missing headers:\n%s", out)
	}
}

func TestDefaultAndPaperConfigs(t *testing.T) {
	d := Default()
	if len(d.FlexMinutes) == 0 || len(d.Seeds) == 0 || d.TimeLimit <= 0 {
		t.Fatal("default config incomplete")
	}
	p := Paper()
	if p.Workload.NumRequests != 20 || len(p.FlexMinutes) != 11 || len(p.Seeds) != 24 {
		t.Fatalf("paper config wrong: %+v", p)
	}
	if p.FlexMinutes[10] != 300 {
		t.Fatalf("paper flex max = %v, want 300", p.FlexMinutes[10])
	}
}
