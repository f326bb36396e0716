package core

import (
	"fmt"
	"testing"

	"tvnep/internal/model"
	"tvnep/internal/workload"
)

// keyInstance is a small generated instance with virtual links and enough
// flexibility that the dependency graph carries precedences.
func keyInstance() (*Instance, BuildOptions) {
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 5
	wl.FlexibilityHr = 1
	sc := workload.Generate(wl, 2)
	inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	return inst, BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping}
}

// keyBuilds compiles every formulation, objective, mapping and flow mode
// the package offers over the key instances, plus the precedence-rich
// precInstance and the discrete baseline.
func keyBuilds() map[string]*Built {
	out := map[string]*Built{}
	inst, base := keyInstance()
	objs := []Objective{AccessControl, MaxEarliness, BalanceNodeLoad, DisableLinks, MinMakespan}
	for _, f := range []Formulation{Delta, Sigma, CSigma} {
		for _, obj := range objs {
			opts := base
			opts.Objective = obj
			out[fmt.Sprintf("%v/%v/fixed", f, obj)] = Build(f, inst, opts)
			opts.FixedMapping = nil
			out[fmt.Sprintf("%v/%v/free", f, obj)] = Build(f, inst, opts)
		}
	}
	for _, obj := range objs {
		opts := base
		opts.Objective = obj
		opts.FlowMode = FlowPath
		out[fmt.Sprintf("cΣ/%v/path", obj)] = BuildCSigma(inst, opts)
	}
	prec, popts := precInstance()
	out["cΣ/prec"] = BuildCSigma(prec, popts)
	out["discrete"] = BuildDiscrete(inst, base, 1).Built
	return out
}

// TestRowKeysRender pins one key of every row family internal/core emits
// to the text its old format string produced, and checks that the table
// covers every family a build actually emits.
func TestRowKeysRender(t *testing.T) {
	testdata := []struct {
		key  model.Key
		want string
	}{
		{model.Key1("start1", 3), fmt.Sprintf("start1[%d]", 3)},
		{model.Key1("end1", 3), fmt.Sprintf("end1[%d]", 3)},
		{model.Key2("order", 1, 4), fmt.Sprintf("order[%d][%d]", 1, 4)},
		{model.Key1("event1", 5), fmt.Sprintf("event1[%d]", 5)},
		{model.Key3("prec", 3, 7, 2), fmt.Sprintf("prec[%d][%d][%d]", 3, 7, 2)},
		{model.Key3(FamState, 0, 1, 12), fmt.Sprintf("state[%d][%d][%d]", 0, 1, 12)},
		{model.Key2(FamCap, 2, 12), fmt.Sprintf("cap[%d][%d]", 2, 12)},
		{model.Key2("t14", 4, 1), fmt.Sprintf("t14[%d][%d]", 4, 1)},
		{model.Key2("t15", 4, 1), fmt.Sprintf("t15[%d][%d]", 4, 1)},
		{model.Key2("t16", 4, 2), fmt.Sprintf("t16[%d][%d]", 4, 2)},
		{model.Key2("t17", 4, 2), fmt.Sprintf("t17[%d][%d]", 4, 2)},
		{model.Key2("map", 1, 0), fmt.Sprintf("map[%d][%d]", 1, 0)},
		{model.Key3("flow", 1, 0, 3), fmt.Sprintf("flow[%d][%d][%d]", 1, 0, 3)},
		{model.Key1("mono", 9), fmt.Sprintf("mono[%d]", 9)},
		{model.Key1("dur", 0), fmt.Sprintf("dur[%d]", 0)},
		{model.Key2("accum", 3, 10), fmt.Sprintf("accum[%d][%d]", 3, 10)},
		{model.Key3("d3", 1, 2, 3), fmt.Sprintf("d3[%d][%d][%d]", 1, 2, 3)},
		{model.Key3("d4", 1, 2, 3), fmt.Sprintf("d4[%d][%d][%d]", 1, 2, 3)},
		{model.Key3("d5", 1, 2, 3), fmt.Sprintf("d5[%d][%d][%d]", 1, 2, 3)},
		{model.Key3("d6", 1, 2, 3), fmt.Sprintf("d6[%d][%d][%d]", 1, 2, 3)},
		{model.Key1("choose", 2), fmt.Sprintf("choose[%d]", 2)},
		{model.Key1("tplus", 2), fmt.Sprintf("tplus[%d]", 2)},
		{model.Key1("tminus", 2), fmt.Sprintf("tminus[%d]", 2)},
		{model.Key3("slot", 2, 14, 0), fmt.Sprintf("slot[%d][%d][%d]", 2, 14, 0)},
		{model.Key2("scap", 14, 0), fmt.Sprintf("scap[%d][%d]", 14, 0)},
		{model.Key2("bal", 3, 6), fmt.Sprintf("bal[%d][%d]", 3, 6)},
		{model.Key1("mk", 4), fmt.Sprintf("mk[%d]", 4)},
		{model.Key1(FamDis, 7), fmt.Sprintf("dis[%d]", 7)},
		{model.Key2(FamConv, 0, 1), fmt.Sprintf("conv[%d][%d]", 0, 1)},
	}
	covered := map[string]bool{}
	for _, tc := range testdata {
		if got := tc.key.String(); got != tc.want {
			t.Errorf("%#v renders %q, want %q", tc.key, got, tc.want)
		}
		covered[tc.key.Fam] = true
	}
	for name, b := range keyBuilds() {
		for i := 0; i < b.Model.NumConstrs(); i++ {
			if fam := b.Model.RowKey(i).Fam; !covered[fam] {
				t.Errorf("%s: row family %q has no rendering case", name, fam)
				covered[fam] = true
			}
		}
	}
}

// TestRowKeysUnique: no two rows of one compiled model share a key, in every
// build, so a lookup by key (internal/certify's) always names one row.
func TestRowKeysUnique(t *testing.T) {
	for name, b := range keyBuilds() {
		seen := make(map[model.Key]int, b.Model.NumConstrs())
		for i := 0; i < b.Model.NumConstrs(); i++ {
			k := b.Model.RowKey(i)
			if j, dup := seen[k]; dup {
				t.Errorf("%s: rows %d and %d share key %v", name, j, i, k)
			}
			seen[k] = i
		}
	}
}
