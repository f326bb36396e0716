package tvnep_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tvnep/pkg/tvnep"
)

// FuzzAdmitBody posts arbitrary bytes, twice, to /v1/admit of a fresh
// certifying server over a 2×2 grid. Every answer must be typed — 200, 400
// or 422 — and never a panic, and once a decision is accepted /v1/solution
// must report the committed snapshot as certified.
func FuzzAdmitBody(f *testing.F) {
	for _, body := range []string{
		// The live HTTP round trip of the CI serve smoke test.
		`{"request":{"name":"r0","nodes":2,"edges":[[0,1]],"node_demands":[1,1],"link_demands":[0.5],"duration":2,"earliest":0,"latest":6},"mapping":[0,1]}`,
		// Negative demands, which request validation rejects.
		`{"request":{"name":"neg","nodes":2,"edges":[[0,1]],"node_demands":[-1,-1],"link_demands":[0.5],"duration":1,"earliest":0,"latest":2},"mapping":[0,1]}`,
		`{"request":{"name":"empty","nodes":0,"edges":[],"node_demands":[],"link_demands":[],"duration":1,"earliest":0,"latest":2},"mapping":[]}`,
		`{"request":{"name":"tiny","nodes":2,"edges":[[0,1]],"node_demands":[1,1],"link_demands":[0.5],"duration":1e-300,"earliest":0,"latest":2},"mapping":[0,1]}`,
		`{"request":{"name":"huge","nodes":2,"edges":[[0,1]],"node_demands":[1e308,1],"link_demands":[0.5],"duration":1,"earliest":0,"latest":2},"mapping":[0,1]}`,
		`{"request":{"name":"shared","nodes":2,"edges":[[0,1]],"node_demands":[0.5,0.5],"link_demands":[0.5],"duration":1,"earliest":0,"latest":2},"mapping":[3,3]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		solver, err := tvnep.New(tvnep.Grid(2, 2, 1, 1), tvnep.WithHorizon(10), tvnep.WithCertify())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sv := tvnep.NewServer(solver)
		accepted := false
		for k := 0; k < 2; k++ {
			rec := httptest.NewRecorder()
			sv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
				accepted = true
			case http.StatusBadRequest, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("post %d: status %d: %s", k, rec.Code, rec.Body)
			}
		}
		if !accepted {
			return
		}
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/solution", nil))
		var snap tvnep.SolutionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("solution: status %d, undecodable body: %v", rec.Code, err)
		}
		if !snap.Certified {
			t.Fatalf("accepted %q but the snapshot is not certified: %v", body, snap.Violations)
		}
	})
}
