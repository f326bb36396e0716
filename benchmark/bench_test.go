package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"tvnep/pkg/tvnep"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, got  float64
		wantBeyond int
	}{
		{4000, 0.99, 0.99, 40},
		{1000, 0.99, 0.99, 10},
		{999, 0.99, 0.95, 49}, // p99 would rest on 9 samples
		{100, 0.9, 0.9, 10},
		{99, 0.9, 0.75, 24},
		{15, 0.99, 0.5, 7}, // nothing qualifies: median-only tail
	} {
		if q := tailQuantile(tc.n, tc.want); q != tc.got {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", tc.n, tc.want, q, tc.got)
		}
		if b := beyond(tc.n, tc.got); b != tc.wantBeyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.got, b, tc.wantBeyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "child", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "child", Start: 20, End: 50},   // overlaps child 1
		{ID: 3, Parent: 0, Name: "late", Start: 90, End: 120},   // runs past its parent
		{ID: 4, Parent: 1, Name: "grand", Start: 12, End: 14},   // covers only its own parent
		{ID: 5, Parent: -1, Name: "root", Start: 200, End: 210}, // a second op, no children
	}
	want := []time.Duration{100 - 40 - 10, 20 - 2, 30, 30, 2, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	total, count := selfByName(spans)
	if total["root"] != 60 || count["root"] != 2 || total["child"] != 48 {
		t.Errorf("selfByName: root %d over %d, child %d", total["root"], count["root"], total["child"])
	}
	if m := meanSelfMS(total, count, "root"); m != 30e-6 {
		t.Errorf("mean root self time %v ms, want 3e-5", m)
	}
}

// TestAuditFlagsKnownOverload replays the default-preset trace of seed 3
// through the engine, certification off, and checks that the out-of-band
// audit charges the known overload (substrate node 7 at t≈230.35 h) to the
// decision that introduced it, and flags nothing before it.
func TestAuditFlagsKnownOverload(t *testing.T) {
	sc := genTrace(3)
	s, err := tvnep.New(sc.Substrate, serveOptions(sc.Horizon, false)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 240; i++ {
		if _, err := s.Admit(context.Background(), sc.Requests[i], sc.Mapping[i]); err != nil {
			t.Fatal(err)
		}
	}
	fails := auditSolver(s)
	if len(fails) == 0 {
		t.Fatal("audit found no overload on the seed-3 trace")
	}
	f := fails[0]
	if f.Kind != failOverload || f.Op != 236 || !strings.Contains(f.Detail, "substrate node 7") || !strings.Contains(f.Detail, "t=230.34") {
		t.Fatalf("first failure %+v, want the node-7 overload at t≈230.35 charged to decision 236", f)
	}
	rep := &report{attempted: 240, failures: fails}
	if !rep.correct() || rep.failedOps() != len(fails) {
		t.Errorf("known overloads must count as failed ops (%d) without clearing correct", rep.failedOps())
	}
	rep.failures = append(rep.failures, failure{failTransport, 3, "reply lost"})
	if rep.correct() {
		t.Error("a transport failure must clear correct")
	}
}

// TestReplayCheckNamesCounter checks the determinism cross-check: an
// in-process replay agrees with itself, and a changed counter is reported
// as a failure that names it.
func TestReplayCheckNamesCounter(t *testing.T) {
	sc := genTrace(5)
	spec := admissionSpec{name: "test", detPrefix: 30}
	s, err := tvnep.New(sc.Substrate, serveOptions(sc.Horizon, false)...)
	if err != nil {
		t.Fatal(err)
	}
	var replies []tvnep.AdmitResponse
	for i := 0; i < spec.detPrefix; i++ {
		d, err := s.Admit(context.Background(), sc.Requests[i], sc.Mapping[i])
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, tvnep.AdmitResponse{
			Index: d.Index, Name: d.Name, Accepted: d.Accepted, Start: d.Start, End: d.End,
			Tier: d.Stats.Tier, LPIterations: d.Stats.LPIterations, Nodes: d.Stats.Nodes,
			WarmUsed: d.Stats.WarmUsed, BasisExtended: d.Stats.BasisExtended,
		})
	}
	if fails := replayCheck(context.Background(), sc, spec, replies); len(fails) != 0 {
		t.Fatalf("replay disagrees with itself: %+v", fails)
	}
	replies[5].LPIterations++
	fails := replayCheck(context.Background(), sc, spec, replies)
	if len(fails) != 1 || fails[0].Op != 5 || fails[0].Kind != failDeterminism || !strings.HasPrefix(fails[0].Detail, "lp_iterations:") {
		t.Fatalf("changed counter reported as %+v, want one lp_iterations failure on decision 5", fails)
	}
}

// TestTracedSolveMatchesSolve checks the faithfulness of the traced
// pipeline on one exact and one rounding op, and that a mismatch names the
// counter.
func TestTracedSolveMatchesSolve(t *testing.T) {
	ctx := context.Background()
	byName := map[string]*offlineOp{}
	for _, op := range offlineBatch(7) {
		byName[op.name] = op
	}
	ops := []*offlineOp{byName["wan-s2-f2"], byName["round-f0"]}
	if err := attachSolvers(ops); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	for i, op := range ops {
		res, err := op.solver.Solve(ctx, op.sc.Requests, op.sc.Mapping)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		plain := recordOfResult(res)
		traced, _, err := tracedSolve(ctx, op, i, rec)
		if fails := checkSolve(op, i, traced, err); len(fails) != 0 {
			t.Fatalf("%s: %+v", op.name, fails)
		}
		if fails := compareFields(failFaithfulness, i, plain.fields(), traced.fields()); len(fails) != 0 {
			t.Fatalf("%s: traced pipeline differs from Solver.Solve: %+v", op.name, fails)
		}
		traced.nodes++
		fails := compareFields(failFaithfulness, i, plain.fields(), traced.fields())
		if len(fails) != 1 || !strings.HasPrefix(fails[0].Detail, "nodes:") {
			t.Fatalf("%s: changed node count reported as %+v", op.name, fails)
		}
	}
	names := map[string]bool{}
	for _, s := range rec.snapshot() {
		names[s.Name] = true
		if s.Name != "solve" && s.Parent < 0 {
			t.Errorf("layer span %s has no parent", s.Name)
		}
	}
	for _, n := range []string{"solve", "core.build", "mip.search", "solution.check", "certify.solution", "certify.cuts", "certify.columns", "lp.root", "certify.lp", "round.solve"} {
		if !names[n] {
			t.Errorf("no %s span recorded", n)
		}
	}
}

// TestReferencesArcAndPath re-solves every stored WAN reference in both
// link-flow formulations.
func TestReferencesArcAndPath(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 96 MIPs")
	}
	if len(wanReferences) != wanSeeds*len(offlineFlex) {
		t.Fatalf("%d stored references, want %d", len(wanReferences), wanSeeds*len(offlineFlex))
	}
	ctx := context.Background()
	for s := int64(1); s <= wanSeeds; s++ {
		for _, f := range offlineFlex {
			name := wanName(s, f)
			sc := wanScenario(s, f)
			for _, fm := range []tvnep.FlowMode{tvnep.FlowArc, tvnep.FlowPath} {
				obj, err := solveWAN(ctx, sc, fm)
				if err != nil {
					t.Fatalf("%s %v: %v", name, fm, err)
				}
				if !objEqual(obj, wanReference(name)) {
					t.Errorf("%s %v: objective %v, stored reference %v", name, fm, obj, wanReference(name))
				}
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalogue and the
// repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, catalogue %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for i, w := range b.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames)
		}
	}
}

// TestRunResultLine runs the shortest admission run in both modes and
// checks the result line: exactly the four keys, and every catalogue metric.
func TestRunResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("decides about 1200 admissions")
	}
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "admit-stream", "--seed", "2", "--seconds", "0.01", "--trace", tc.trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", tc.trace, err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("trace %s: result keys %v", tc.trace, res)
		}
		var metrics map[string]metric
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			m, ok := metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", tc.trace, d.name, m, d.unit)
			}
			if tc.trace == "0" && m.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", d.name)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, new(bytes.Buffer), new(bytes.Buffer)); code == 0 {
		t.Error("an unknown workload must fail")
	}
}
