package vnet

import (
	"math"
	"testing"
)

func TestStarRequest(t *testing.T) {
	r := Star("r", 4, true, 1.5, 2.5)
	if r.G.N != 5 || r.G.NumEdges() != 4 {
		t.Fatalf("star shape %d/%d", r.G.N, r.G.NumEdges())
	}
	if r.TotalNodeDemand() != 7.5 {
		t.Fatalf("total node demand %v, want 7.5", r.TotalNodeDemand())
	}
	for _, d := range r.LinkDemand {
		if d != 2.5 {
			t.Fatalf("link demand %v", d)
		}
	}
}

func TestTemporalHelpers(t *testing.T) {
	r := Star("r", 1, false, 1, 1)
	r.Earliest = 2
	r.Duration = 3
	r.Latest = 9
	if r.Flexibility() != 4 {
		t.Fatalf("flexibility %v, want 4", r.Flexibility())
	}
	if r.LatestStart() != 6 || r.EarliestEnd() != 5 {
		t.Fatalf("latest start %v earliest end %v", r.LatestStart(), r.EarliestEnd())
	}
}

func TestValidate(t *testing.T) {
	mk := func() *Request {
		r := Star("r", 2, true, 1, 1)
		r.Earliest = 0
		r.Duration = 2
		r.Latest = 3
		return r
	}
	if err := mk().Validate(); err != nil {
		t.Fatal(err)
	}
	r := mk()
	r.Duration = 0
	if r.Validate() == nil {
		t.Fatal("zero duration accepted")
	}
	r = mk()
	r.Earliest = -1
	if r.Validate() == nil {
		t.Fatal("negative earliest accepted")
	}
	r = mk()
	r.Latest = 1 // window shorter than duration
	if r.Validate() == nil {
		t.Fatal("short window accepted")
	}
	r = mk()
	r.NodeDemand = r.NodeDemand[:1]
	if r.Validate() == nil {
		t.Fatal("node demand mismatch accepted")
	}
	r = mk()
	r.LinkDemand = nil
	if r.Validate() == nil {
		t.Fatal("link demand mismatch accepted")
	}
}

// TestValidateNumbers: negative or non-finite demands and non-finite
// temporal parameters are rejected; zero demands stay valid.
func TestValidateNumbers(t *testing.T) {
	testdata := []struct {
		name  string
		edit  func(r *Request)
		valid bool
	}{
		{"zero demands", func(r *Request) { r.NodeDemand[0], r.LinkDemand[0] = 0, 0 }, true},
		{"negative node demand", func(r *Request) { r.NodeDemand[1] = -1 }, false},
		{"negative link demand", func(r *Request) { r.LinkDemand[0] = -0.5 }, false},
		{"infinite node demand", func(r *Request) { r.NodeDemand[0] = math.Inf(1) }, false},
		{"NaN link demand", func(r *Request) { r.LinkDemand[1] = math.NaN() }, false},
		{"NaN duration", func(r *Request) { r.Duration = math.NaN() }, false},
		{"NaN earliest", func(r *Request) { r.Earliest = math.NaN() }, false},
		{"+Inf latest", func(r *Request) { r.Latest = math.Inf(1) }, false},
	}
	for _, tc := range testdata {
		r := Star("r", 2, true, 1, 1)
		r.Earliest, r.Duration, r.Latest = 0, 2, 3
		tc.edit(r)
		if err := r.Validate(); (err == nil) != tc.valid {
			t.Errorf("%s: Validate() = %v, want valid=%v", tc.name, err, tc.valid)
		}
	}
}

func TestFlexibilityTolerance(t *testing.T) {
	r := Star("r", 1, true, 1, 1)
	r.Earliest = 1.6324041020646987
	r.Duration = 4.9647509087019825
	r.Latest = r.Earliest + r.Duration // bit-rounded sum
	if math.Abs(r.Flexibility()) > 1e-9 {
		t.Skip("platform rounds differently")
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("rounding rejected: %v", err)
	}
}

func TestChainRequest(t *testing.T) {
	r := Chain("pipe", 4, 1, 2)
	if r.G.N != 4 || r.G.NumEdges() != 3 {
		t.Fatalf("chain shape %d/%d", r.G.N, r.G.NumEdges())
	}
	if r.TotalNodeDemand() != 4 {
		t.Fatalf("demand %v", r.TotalNodeDemand())
	}
}

func TestCliqueRequest(t *testing.T) {
	r := Clique("mesh", 3, 1, 1)
	if r.G.N != 3 || r.G.NumEdges() != 6 {
		t.Fatalf("clique shape %d/%d", r.G.N, r.G.NumEdges())
	}
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if u != v && !r.G.HasEdge(u, v) {
				t.Fatalf("missing edge %d→%d", u, v)
			}
		}
	}
}
