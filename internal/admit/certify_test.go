package admit

import (
	"context"
	"reflect"
	"testing"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

// refCertifyDecision is the whole-system certificate of an acceptance: the
// arriving embedding laid over every committed request and certified with
// certify.Solution. Kept as the reference the extension certificate
// certifyDecision is held to.
func refCertifyDecision(e *Engine, rec *record, acc *acceptance) *certify.Report {
	reqs := []*vnet.Request{}
	mapping := vnet.NodeMapping{}
	sol := &solution.Solution{}
	add := func(r *vnet.Request, m []int, start, end float64, hosts []int, flows [][]float64) {
		reqs = append(reqs, r)
		mapping = append(mapping, m)
		sol.Accepted = append(sol.Accepted, true)
		sol.Start = append(sol.Start, start)
		sol.End = append(sol.End, end)
		sol.Hosts = append(sol.Hosts, hosts)
		sol.Flows = append(sol.Flows, flows)
	}
	for _, a := range e.active {
		add(a.req, a.mapping, a.decided.Start, a.decided.End, a.decided.Hosts, a.decided.Flows)
	}
	add(rec.req, rec.mapping, acc.start, acc.end, acc.hosts, acc.flows)
	inst := &core.Instance{Sub: e.cfg.Sub, Reqs: reqs, Horizon: e.cfg.Horizon}
	return certify.Solution(inst, sol, certify.Options{SkipObjective: true, Mapping: mapping})
}

// violationText renders a report's violations without their request
// indices, which number the certified instance: the whole-system
// certificate numbers every committed request, the extension certificate
// only the overlapping ones.
func violationText(rep *certify.Report) []string {
	var out []string
	for _, v := range rep.Violations {
		out = append(out, string(v.Kind)+": "+v.Detail)
	}
	return out
}

// TestExtensionCertificateMatchesWhole replays seeded 2000-request traces
// with per-decision certification and certifies every candidate acceptance
// both ways: the extension certificate over the overlapping committed
// requests and the whole-system reference over all of them. Verdicts and
// violation text must agree, and each trace must downgrade at least once
// so the comparison covers failing certificates, not only clean ones.
func TestExtensionCertificateMatchesWhole(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		sc := trace(t, 2000, seed)
		if testing.Short() {
			// The prefix keeps the first downgrade of each seed
			// (decisions 243 and 361); the horizon stays the full trace's.
			sc.Requests, sc.Mapping = sc.Requests[:400], sc.Mapping[:400]
		}
		eng, err := New(Config{Sub: sc.Substrate, Horizon: sc.Horizon, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		var checked, downgrades int
		eng.certified = func(rec *record, acc *acceptance, got *certify.Report) {
			checked++
			want := refCertifyDecision(eng, rec, acc)
			if got.OK() != want.OK() {
				t.Errorf("seed %d decision %d: extension verdict ok=%v, whole-system ok=%v:\n%v\n%v",
					seed, len(eng.log), got.OK(), want.OK(), got.Err(), want.Err())
				return
			}
			if g, w := violationText(got), violationText(want); !reflect.DeepEqual(g, w) {
				t.Errorf("seed %d decision %d: extension violations\n  %q\nwhole-system violations\n  %q",
					seed, len(eng.log), g, w)
			}
			if !got.OK() {
				downgrades++
				t.Logf("seed %d decision %d downgraded: %v", seed, len(eng.log), got.Err())
			}
		}
		for i, req := range sc.Requests {
			if _, err := eng.Admit(context.Background(), req, sc.Mapping[i]); err != nil {
				t.Fatalf("seed %d: Admit(%d): %v", seed, i, err)
			}
		}
		if downgrades == 0 {
			t.Errorf("seed %d: no candidate acceptance failed certification; the trace no longer covers a downgrade", seed)
		}
		if got := eng.Stats().CertFailures; got != downgrades {
			t.Errorf("seed %d: engine counted %d certification failures, the comparison saw %d", seed, got, downgrades)
		}
		t.Logf("seed %d: %d acceptances certified both ways, %d downgraded", seed, checked, downgrades)
	}
}
