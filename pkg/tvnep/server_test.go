package tvnep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tvnep/internal/workload"
	"tvnep/pkg/tvnep"
)

// TestServerRoundTrip drives the full HTTP surface: health probe, streamed
// admissions, per-decision responses, aggregate stats and the certified
// solution fetch, on a default server and on one that admits with the
// rounding tier. The stats' tier counts must equal the streamed tiers and
// add up to the decisions.
func TestServerRoundTrip(t *testing.T) {
	t.Run("default", func(t *testing.T) { serverRoundTrip(t) })
	t.Run("rounding", func(t *testing.T) { serverRoundTrip(t, tvnep.WithAlgorithm(tvnep.Rounding)) })
}

func serverRoundTrip(t *testing.T, opts ...tvnep.Option) {
	sc := scenario(t, 12, 6)
	solver, err := tvnep.New(sc.Substrate,
		append([]tvnep.Option{tvnep.WithHorizon(sc.Horizon), tvnep.WithCertify()}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(tvnep.NewServer(solver))
	defer ts.Close()

	// Liveness.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (status %v)", err, resp.Status)
	}
	resp.Body.Close()

	// Stream every request; collect decisions.
	accepted := 0
	tiers := map[tvnep.Tier]int{}
	for i, req := range sc.Requests {
		body, err := json.Marshal(tvnep.AdmitRequest{
			Request: workload.EncodeRequest(req),
			Mapping: sc.Mapping[i],
		})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		resp, err := http.Post(ts.URL+"/v1/admit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		var d tvnep.AdmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatalf("admit %d: decode: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d: status %v", i, resp.Status)
		}
		if d.Index != i || d.Name != req.Name {
			t.Fatalf("admit %d: echoed (%d, %q), want (%d, %q)", i, d.Index, d.Name, i, req.Name)
		}
		if d.CertError != "" {
			t.Fatalf("admit %d: certificate failure: %s", i, d.CertError)
		}
		tiers[d.Tier]++
		if d.Accepted {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("server accepted nothing; scenario too tight to be meaningful")
	}

	// Aggregate stats must agree with the streamed decisions.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var stats tvnep.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats: decode: %v", err)
	}
	resp.Body.Close()
	if stats.Decisions != len(sc.Requests) || stats.Accepted != accepted {
		t.Fatalf("stats (%d decisions, %d accepted) disagree with stream (%d, %d)",
			stats.Decisions, stats.Accepted, len(sc.Requests), accepted)
	}
	got := map[tvnep.Tier]int{tvnep.TierPrecheck: stats.PrecheckTier,
		tvnep.TierRounding: stats.RoundingTier, tvnep.TierMIP: stats.MIPTier}
	for tier, n := range tiers {
		if got[tier] != n {
			t.Errorf("stats report %d %s-tier decisions, the stream %d", got[tier], tier, n)
		}
	}
	t.Logf("streamed tiers %v", tiers)
	if sum := stats.PrecheckTier + stats.RoundingTier + stats.MIPTier; sum != stats.Decisions {
		t.Errorf("tier counts add up to %d, want %d decisions", sum, stats.Decisions)
	}
	if stats.LatencyP99NS <= 0 {
		t.Errorf("latency p99 not reported: %d", stats.LatencyP99NS)
	}

	// Certified solution fetch.
	resp, err = http.Get(ts.URL + "/v1/solution")
	if err != nil {
		t.Fatalf("solution: %v", err)
	}
	var sol tvnep.SolutionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
		t.Fatalf("solution: decode: %v", err)
	}
	resp.Body.Close()
	if !sol.Certified {
		t.Fatalf("solution snapshot not certified: %v", sol.Violations)
	}
	if len(sol.Requests) != len(sc.Requests) || len(sol.Accepted) != len(sc.Requests) {
		t.Fatalf("solution covers %d/%d requests", len(sol.Requests), len(sc.Requests))
	}
	gotAccepted := 0
	for _, a := range sol.Accepted {
		if a {
			gotAccepted++
		}
	}
	if gotAccepted != accepted {
		t.Fatalf("solution accepted %d != streamed %d", gotAccepted, accepted)
	}
}

// TestServerRejectsMalformed pins the error paths of the admit endpoint.
func TestServerRejectsMalformed(t *testing.T) {
	sub := tvnep.Grid(2, 2, 1, 1)
	solver, err := tvnep.New(sub, tvnep.WithHorizon(10))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(tvnep.NewServer(solver))
	defer ts.Close()

	for name, body := range map[string]string{
		"not-json":      "{",
		"unknown-field": `{"bogus": 1}`,
		"bad-request":   `{"request": {"name": "x", "nodes": -3}, "mapping": []}`,
		"negative-demand": `{"request": {"name": "neg", "nodes": 2, "edges": [[0, 1]], "node_demands": [-1, -1],
			"link_demands": [0.5], "duration": 1, "earliest": 0, "latest": 2}, "mapping": [0, 1]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/admit", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %v, want 400", name, resp.Status)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/admit")
	if err != nil {
		t.Fatalf("GET admit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET admit: status %v, want 405", resp.Status)
	}

	// A structurally valid request whose mapping is out of range is a
	// semantic rejection (422), not a decision.
	req := tvnep.Star("r", 1, false, 0.5, 0.25)
	req.Duration, req.Earliest, req.Latest = 1, 0, 2
	body, err := json.Marshal(tvnep.AdmitRequest{Request: workload.EncodeRequest(req), Mapping: []int{0, 99}})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err = http.Post(ts.URL+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("out-of-range mapping: status %v, want 422", resp.Status)
	}
}

// TestEngineReadsDuringFirstAdmit runs the first admissions concurrently
// with the reads the /v1/stats and /v1/solution handlers make. The engine is
// created lazily by the first Admit, so under -race every read must be
// ordered after that creation or see none.
func TestEngineReadsDuringFirstAdmit(t *testing.T) {
	sc := scenario(t, 3, 1)
	solver, err := tvnep.New(sc.Substrate, tvnep.WithHorizon(sc.Horizon))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, req := range sc.Requests {
			if _, err := solver.Admit(context.Background(), req, sc.Mapping[i]); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			solver.EngineStats()
			solver.Decisions()
			solver.Snapshot()
		}
	}()
	wg.Wait()
	if s := solver.EngineStats(); s.Decisions != len(sc.Requests) {
		t.Fatalf("%d decisions, want %d", s.Decisions, len(sc.Requests))
	}
}
