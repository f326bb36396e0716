package model

import (
	"context"
	"math"
	"testing"
)

func TestBasicMaximize(t *testing.T) {
	m := New(Maximize)
	a := m.Binary()
	b := m.Binary()
	c := m.Binary()
	m.SetObjective(Expr().Add(10, a).Add(13, b).Add(7, c))
	m.AddLE(Expr().Add(3, a).Add(4, b).Add(2, c), 6, Key1("cap", 0))
	sol := m.Optimize(context.Background(), nil)
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-20) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 20", sol.Status, sol.Obj)
	}
	if sol.Value(b) != 1 || sol.Value(c) != 1 || sol.Value(a) != 0 {
		t.Fatalf("values a=%v b=%v c=%v", sol.Value(a), sol.Value(b), sol.Value(c))
	}
}

func TestExprConstantsShiftRHS(t *testing.T) {
	// x + 5 ≤ 7 → x ≤ 2; min −x → x = 2.
	m := New(Minimize)
	x := m.Continuous(0, 10)
	m.SetObjective(Term(-1, x))
	m.AddLE(Expr().Add(1, x).AddConst(5), 7, Key1("r", 0))
	sol := m.Optimize(context.Background(), nil)
	if math.Abs(sol.Value(x)-2) > 1e-7 {
		t.Fatalf("x = %v, want 2", sol.Value(x))
	}
}

func TestObjectiveConstant(t *testing.T) {
	m := New(Minimize)
	x := m.Continuous(1, 5)
	m.SetObjective(Expr().Add(2, x).AddConst(100))
	sol := m.Optimize(context.Background(), nil)
	if math.Abs(sol.Obj-102) > 1e-7 {
		t.Fatalf("obj = %v, want 102", sol.Obj)
	}
}

func TestAddExprAndValueOf(t *testing.T) {
	m := New(Maximize)
	x := m.Continuous(0, 3)
	y := m.Continuous(0, 3)
	e1 := Expr().Add(1, x).Add(1, y)
	e2 := Expr().AddExpr(2, e1).AddConst(1) // 2x + 2y + 1
	m.SetObjective(e2)
	sol := m.Optimize(context.Background(), nil)
	if math.Abs(sol.Obj-13) > 1e-7 {
		t.Fatalf("obj = %v, want 13", sol.Obj)
	}
	if math.Abs(sol.ValueOf(e1)-6) > 1e-7 {
		t.Fatalf("ValueOf(e1) = %v, want 6", sol.ValueOf(e1))
	}
}

func TestFixAndBounds(t *testing.T) {
	m := New(Maximize)
	x := m.Binary()
	y := m.Binary()
	m.SetObjective(Expr().Add(1, x).Add(1, y))
	m.Fix(x, 0)
	sol := m.Optimize(context.Background(), nil)
	if sol.Value(x) != 0 || sol.Value(y) != 1 {
		t.Fatalf("x=%v y=%v, want 0, 1", sol.Value(x), sol.Value(y))
	}
	lb, ub := m.Bounds(x)
	if lb != 0 || ub != 0 {
		t.Fatalf("Bounds(x) = %v, %v", lb, ub)
	}
}

func TestIntegerVar(t *testing.T) {
	m := New(Maximize)
	x := m.IntegerVar(0, 9)
	m.SetObjective(Term(1, x))
	m.AddLE(Term(2, x), 7, Key1("r", 0)) // x ≤ 3.5 → 3
	sol := m.Optimize(context.Background(), nil)
	if math.Abs(sol.Value(x)-3) > 1e-7 {
		t.Fatalf("x = %v, want 3", sol.Value(x))
	}
}

func TestRelaxDropsIntegrality(t *testing.T) {
	m := New(Maximize)
	x := m.IntegerVar(0, 9)
	m.SetObjective(Term(1, x))
	m.AddLE(Term(2, x), 7, Key1("r", 0))
	sol := m.Relax(context.Background())
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-3.5) > 1e-7 {
		t.Fatalf("relax obj = %v (status %v), want 3.5", sol.Obj, sol.Status)
	}
}

func TestRelaxInfeasible(t *testing.T) {
	m := New(Minimize)
	x := m.Continuous(0, 1)
	m.AddGE(Term(1, x), 5, Key1("r", 0))
	sol := m.Relax(context.Background())
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
	if !math.IsNaN(sol.Value(x)) {
		t.Fatalf("Value on infeasible = %v, want NaN", sol.Value(x))
	}
}

func TestAddRange(t *testing.T) {
	m := New(Maximize)
	x := m.Continuous(0, 10)
	m.SetObjective(Term(1, x))
	m.AddRange(Expr().Add(1, x).AddConst(1), 2, 6, Key1("rng", 0)) // 1 ≤ x ≤ 5
	sol := m.Optimize(context.Background(), nil)
	if math.Abs(sol.Value(x)-5) > 1e-7 {
		t.Fatalf("x = %v, want 5", sol.Value(x))
	}
}

func TestCounts(t *testing.T) {
	m := New(Minimize)
	m.Binary()
	m.Continuous(0, 1)
	m.IntegerVar(0, 5)
	m.AddLE(Expr(), 1, Key2("empty", 4, 2))
	if m.NumVars() != 3 || m.NumIntVars() != 2 || m.NumConstrs() != 1 {
		t.Fatalf("counts: vars %d ints %d constrs %d", m.NumVars(), m.NumIntVars(), m.NumConstrs())
	}
	if k := m.RowKey(0); k != Key2("empty", 4, 2) {
		t.Fatalf("row key %v, want empty[4][2]", k)
	}
}

func TestVarIdentity(t *testing.T) {
	m := New(Minimize)
	v := m.Continuous(0, 1)
	if v.Index() != 0 || !v.Valid() {
		t.Fatalf("Var identity broken: %d %v", v.Index(), v.Valid())
	}
	var zero Var
	if zero.Valid() {
		t.Fatal("zero Var should be invalid")
	}
}

// TestKeyString pins the rendering of keys with one, two and three indices
// and checks that building and comparing keys allocates nothing.
func TestKeyString(t *testing.T) {
	for _, tc := range []struct {
		key  Key
		want string
	}{
		{Key1("t+", 4), "t+[4]"},
		{Key2("cap", 3, 12), "cap[3][12]"},
		{Key3("prec", 3, 7, 2), "prec[3][7][2]"},
		{Key3("lambda", 0, 1, 0), "lambda[0][1][0]"},
		{Key3("state", 0, 0, 0), "state[0][0][0]"},
	} {
		if got := tc.key.String(); got != tc.want {
			t.Errorf("%#v renders %q, want %q", tc.key, got, tc.want)
		}
	}
	fam := "prec"
	sink := map[Key]int{}
	if n := testing.AllocsPerRun(100, func() {
		k := Key3(fam, 3, 7, 2)
		if k != Key3(fam, 3, 7, 2) {
			t.Fatal("equal keys compare unequal")
		}
		sink[k]++
	}); n != 0 {
		t.Errorf("building a key allocates %v objects", n)
	}
}
