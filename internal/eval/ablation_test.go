package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"tvnep/internal/workload"
)

func TestAblationSweep(t *testing.T) {
	wl := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 3, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1.5,
		MeanInterArr: 1, WeibullShape: 2, WeibullScale: 2,
	}
	cfg := Config{
		Workload:    wl,
		FlexMinutes: []float64{0, 120},
		Seeds:       []int64{1, 2},
		TimeLimit:   20 * time.Second,
	}
	recs, err := cfg.AblationSweep(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 flex × 2 seeds × 5 variants.
	if len(recs) != 20 {
		t.Fatalf("%d records, want 20", len(recs))
	}
	// The full model must never be larger than the bare model.
	byKey := map[string]AblationRecord{}
	for _, r := range recs {
		byKey[r.Variant+string(rune(int(r.FlexMin)))+string(rune(r.Seed))] = r
	}
	for _, flex := range cfg.FlexMinutes {
		for _, seed := range cfg.Seeds {
			var full, bare, lazy *AblationRecord
			for i := range recs {
				r := &recs[i]
				if r.FlexMin != flex || r.Seed != seed {
					continue
				}
				switch r.Variant {
				case "cΣ full":
					full = r
				case "cΣ bare":
					bare = r
				case "cΣ lazy-cuts":
					lazy = r
				}
			}
			if full == nil || bare == nil || lazy == nil {
				t.Fatal("missing variants")
			}
			if full.NumVars > bare.NumVars {
				t.Fatalf("flex=%v seed=%d: full model has more variables (%d) than bare (%d)",
					flex, seed, full.NumVars, bare.NumVars)
			}
			if !full.Optimal || !bare.Optimal || !lazy.Optimal {
				t.Fatalf("flex=%v seed=%d: tiny ablation instance not solved to optimality", flex, seed)
			}
			if !full.Feasible || !bare.Feasible || !lazy.Feasible {
				t.Fatalf("flex=%v seed=%d: ablation solution failed the checker", flex, seed)
			}
			// Lazy defers the Constraint-(20) family, so its root model is
			// never larger than the fully emitted one; everything it adds
			// back during the solve is counted in SeparatedRows.
			if lazy.NumConstrs > full.NumConstrs {
				t.Fatalf("flex=%v seed=%d: lazy root has more rows (%d) than static (%d)",
					flex, seed, lazy.NumConstrs, full.NumConstrs)
			}
			if lazy.SeparatedRows > full.NumConstrs-lazy.NumConstrs {
				t.Fatalf("flex=%v seed=%d: lazy separated %d rows but only %d were deferred",
					flex, seed, lazy.SeparatedRows, full.NumConstrs-lazy.NumConstrs)
			}
			if full.SeparatedRows != 0 || bare.SeparatedRows != 0 {
				t.Fatalf("flex=%v seed=%d: non-lazy variants report separated rows", flex, seed)
			}
		}
	}

	var buf bytes.Buffer
	WriteAblation(&buf, recs, cfg)
	out := buf.String()
	if !strings.Contains(out, "cΣ full") || !strings.Contains(out, "cΣ bare") {
		t.Fatalf("ablation report incomplete:\n%s", out)
	}
}

func TestMedianHelper(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("median(nil) != 0")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median wrong")
	}
}
