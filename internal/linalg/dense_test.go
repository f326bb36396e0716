package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := make([]float64, 2)
	m.MulVec([]float64{1, 1, 1}, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v, want [6 15]", y)
	}
	yt := make([]float64, 3)
	m.MulVecTrans([]float64{1, 1}, yt)
	if yt[0] != 5 || yt[1] != 7 || yt[2] != 9 {
		t.Fatalf("MulVecTrans = %v, want [5 7 9]", yt)
	}
}

func TestLUSolveKnown(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10 → x = 1, y = 3
	a := NewDense(2, 2)
	copy(a.Data, []float64{2, 1, 1, 3})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.Solve([]float64{5, 10}, x)
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
	if !almostEqual(f.Det(), 5, 1e-12) {
		t.Fatalf("Det = %v, want 5", f.Det())
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := Factorize(a); err != ErrSingular {
		t.Fatalf("Factorize singular = %v, want ErrSingular", err)
	}
}

func TestFactorizeNonSquare(t *testing.T) {
	if _, err := Factorize(NewDense(2, 3)); err == nil {
		t.Fatal("Factorize(2x3) succeeded, want error")
	}
}

func randomMatrix(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// Diagonal dominance guarantees non-singularity.
	for i := 0; i < n; i++ {
		m.Data[i*n+i] += float64(n) * 2
	}
	return m
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		a := randomMatrix(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(want, b)
		f, err := Factorize(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := make([]float64, n)
		f.Solve(b, got)
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Identity(3)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

// Property: for random diagonally dominant systems, Solve(A, A·x) == x.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomMatrix(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*10 - 5
		}
		b := make([]float64, n)
		a.MulVec(x, b)
		lu, err := Factorize(a)
		if err != nil {
			return false
		}
		got := make([]float64, n)
		lu.Solve(b, got)
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinant of permuted identity is ±1.
func TestQuickDetIdentity(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n%8) + 1
		lu, err := Factorize(Identity(size))
		if err != nil {
			return false
		}
		return almostEqual(lu.Det(), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
