package loopmodel

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func TestAddFoldsConstantsAndFlattens(t *testing.T) {
	e := Add(Const{1}, Add(Const{2}, Unknown{Params: []string{"p"}}), Const{3})
	s, ok := e.(Sum)
	if !ok {
		t.Fatalf("Add = %T, want Sum", e)
	}
	foundConst := false
	for _, term := range s.Terms {
		if c, ok := term.(Const); ok {
			foundConst = true
			if c.Value != 6 {
				t.Fatalf("const fold = %v, want 6", c.Value)
			}
		}
		if _, ok := term.(Sum); ok {
			t.Fatal("nested Sum not flattened")
		}
	}
	if !foundConst {
		t.Fatal("constants lost")
	}
}

func TestMulZeroCollapses(t *testing.T) {
	e := Mul(Const{0}, Unknown{Params: []string{"p"}})
	c, ok := e.(Const)
	if !ok || c.Value != 0 {
		t.Fatalf("Mul(0, x) = %v, want 0", e)
	}
}

func TestMulIdentityDrops(t *testing.T) {
	u := Unknown{Params: []string{"p"}}
	e := Mul(Const{1}, u)
	if !reflect.DeepEqual(e, Expr(u)) {
		t.Fatalf("Mul(1, u) = %v, want u", e)
	}
}

func TestParamsSorted(t *testing.T) {
	e := Mul(Unknown{Params: []string{"size"}}, Add(Unknown{Params: []string{"p"}}, Const{1}))
	got := Params(e)
	want := []string{"p", "size"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Params = %v, want %v", got, want)
	}
}

func TestStructureAdditive(t *testing.T) {
	// g(p) + g(s): additive-only.
	e := Add(Unknown{Params: []string{"p"}}, Unknown{Params: []string{"s"}})
	st := StructureOf(e)
	if !st.AdditiveOnly() {
		t.Fatalf("structure %v should be additive-only", st)
	}
	if st.Multiplicative("p", "s") {
		t.Fatal("p,s wrongly multiplicative")
	}
	if len(st.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(st.Groups))
	}
}

func TestStructureMultiplicative(t *testing.T) {
	// g(p) * g(s): nesting couples the parameters.
	e := Mul(Unknown{Params: []string{"p"}}, Unknown{Params: []string{"s"}})
	st := StructureOf(e)
	if st.AdditiveOnly() {
		t.Fatal("nested structure must not be additive-only")
	}
	if !st.Multiplicative("p", "s") {
		t.Fatal("p,s must be multiplicative")
	}
}

func TestStructureDistributesProductOverSum(t *testing.T) {
	// iters * (g(p) + g(s)) -> {iters,p} + {iters,s}: the LULESH main-loop
	// case of Section A2.
	e := Mul(Unknown{Params: []string{"iters"}}, Add(Unknown{Params: []string{"p"}}, Unknown{Params: []string{"s"}}))
	st := StructureOf(e)
	if len(st.Groups) != 2 {
		t.Fatalf("groups = %v, want 2", st.Groups)
	}
	if !st.Multiplicative("iters", "p") || !st.Multiplicative("iters", "s") {
		t.Fatal("iters must couple with both p and s")
	}
	if st.Multiplicative("p", "s") {
		t.Fatal("p and s are in different additive branches")
	}
}

func TestStructureString(t *testing.T) {
	st := StructureOf(Add(Unknown{Params: []string{"p"}}, Mul(Unknown{Params: []string{"p"}}, Unknown{Params: []string{"s"}})))
	if st.String() == "" || st.String() == "{}" {
		t.Fatalf("String = %q", st.String())
	}
	empty := Structure{}
	if empty.String() != "{}" {
		t.Fatalf("empty = %q", empty.String())
	}
}

// Property: structure extraction is stable under Add commutation and
// duplicates are removed.
func TestStructureOfAddCommutative(t *testing.T) {
	prop := func(a, b uint8) bool {
		names := []string{"p", "s", "n", "m"}
		ua := Unknown{Params: []string{names[int(a)%4]}}
		ub := Unknown{Params: []string{names[int(b)%4]}}
		s1 := StructureOf(Add(ua, ub))
		s2 := StructureOf(Add(ub, ua))
		return s1.String() == s2.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: vol(seq(L1,L2)) params = union, additive; vol(nest(L1,L2))
// multiplicative — the composition rules of Section 4.2.
func TestCompositionRules(t *testing.T) {
	l1 := Unknown{Params: []string{"p"}}
	l2 := Unknown{Params: []string{"s"}}
	seq := Add(l1, l2)
	nest := Mul(l1, l2)
	if got := Params(seq); !reflect.DeepEqual(got, []string{"p", "s"}) {
		t.Fatalf("seq params = %v", got)
	}
	if got := Params(nest); !reflect.DeepEqual(got, []string{"p", "s"}) {
		t.Fatalf("nest params = %v", got)
	}
	if !StructureOf(seq).AdditiveOnly() {
		t.Fatal("sequencing must stay additive")
	}
	if StructureOf(nest).AdditiveOnly() {
		t.Fatal("nesting must be multiplicative")
	}
}

// --- module-level volume computation ---

func buildModule(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("t")

	// kernel(n): single loop over n.
	k := ir.NewFunc(m, "kernel", 1)
	k.For(k.Const(0), k.Param(0), k.Const(1), func(i ir.Reg) { k.Work(k.Const(1)) })
	k.RetVoid()
	k.Finish()

	// helper(): constant 4-iteration loop.
	h := ir.NewFunc(m, "helper", 0)
	h.ForConst(0, 4, func(i ir.Reg) { h.Work(h.Const(1)) })
	h.RetVoid()
	h.Finish()

	// main(p, s): for(i<p) kernel(s); helper()
	b := ir.NewFunc(m, "main", 2)
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		b.Call("kernel", b.Param(1))
	})
	b.Call("helper")
	b.RetVoid()
	b.Finish()
	return m
}

func testDeps(fn string, loopID int) []string {
	switch fn {
	case "kernel":
		return []string{"s"}
	case "main":
		return []string{"p"}
	}
	return nil
}

func testTrips(fn string, loopID int) (int64, bool) {
	if fn == "helper" {
		return 4, true
	}
	return 0, false
}

func TestComputeVolumesInterprocedural(t *testing.T) {
	m := buildModule(t)
	v := Compute(NewPlan(m), testDeps, testTrips, nil)

	mainStruct := v.StructByFunc["main"]
	if !mainStruct.Multiplicative("p", "s") {
		t.Fatalf("main structure %v must couple p and s (call inside loop)", mainStruct)
	}
	kernelStruct := v.StructByFunc["kernel"]
	if got := kernelStruct.Params(); !reflect.DeepEqual(got, []string{"s"}) {
		t.Fatalf("kernel params = %v, want [s]", got)
	}
	helperStruct := v.StructByFunc["helper"]
	if len(helperStruct.Groups) != 0 {
		t.Fatalf("helper must be constant, got %v", helperStruct)
	}
	if len(v.RecursionWarnings) != 0 {
		t.Fatalf("unexpected recursion warnings: %v", v.RecursionWarnings)
	}
}

func TestComputeVolumesLocalExcludesCallees(t *testing.T) {
	m := buildModule(t)
	v := Compute(NewPlan(m), testDeps, testTrips, nil)
	local := StructureOf(v.LocalByFunc["main"])
	if got := local.Params(); !reflect.DeepEqual(got, []string{"p"}) {
		t.Fatalf("main local params = %v, want [p]", got)
	}
}

func TestComputeVolumesExtern(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "comm", 0)
	b.Call("MPI_Allreduce")
	b.RetVoid()
	b.Finish()

	ext := func(name string) Expr {
		if name == "MPI_Allreduce" {
			return Unknown{Params: []string{"p"}}
		}
		return nil
	}
	v := Compute(NewPlan(m), nil, nil, ext)
	st := v.StructByFunc["comm"]
	if got := st.Params(); !reflect.DeepEqual(got, []string{"p"}) {
		t.Fatalf("comm params = %v, want [p]", got)
	}
}

func TestComputeVolumesRecursionWarning(t *testing.T) {
	m := ir.NewModule("t")
	a := ir.NewFunc(m, "a", 1)
	a.Call("b", a.Param(0))
	a.RetVoid()
	a.Finish()
	bb := ir.NewFunc(m, "b", 1)
	bb.Call("a", bb.Param(0))
	bb.RetVoid()
	bb.Finish()

	v := Compute(NewPlan(m), nil, nil, nil)
	if len(v.RecursionWarnings) != 2 {
		t.Fatalf("recursion warnings = %v, want a and b", v.RecursionWarnings)
	}
}

func TestRequiredExperimentsAdditiveVsMultiplicative(t *testing.T) {
	points := map[string]int{"p": 5, "s": 5}
	add := Structure{Groups: []DepGroup{{"p"}, {"s"}}}
	mul := Structure{Groups: []DepGroup{{"p", "s"}}}

	// Additive: 1 base + 4 extra per parameter = 9 (the paper's example:
	// p+s needs 9 experiments, p×s needs 25).
	if got := RequiredExperiments(add, points); got != 9 {
		t.Fatalf("additive design = %d, want 9", got)
	}
	if got := RequiredExperiments(mul, points); got != 25 {
		t.Fatalf("multiplicative design = %d, want 25", got)
	}
	if got := FullFactorialExperiments(add, points); got != 25 {
		t.Fatalf("full factorial = %d, want 25", got)
	}
}

func TestRequiredExperimentsEmpty(t *testing.T) {
	if got := RequiredExperiments(Structure{}, nil); got != 1 {
		t.Fatalf("empty design = %d, want 1", got)
	}
}

func TestRequiredExperimentsThreeParamsMixed(t *testing.T) {
	// {a,b} coupled, {c} separate with 5 points each:
	// 1 + (25-1) + (5-1) = 29.
	st := Structure{Groups: []DepGroup{{"a", "b"}, {"c"}}}
	points := map[string]int{"a": 5, "b": 5, "c": 5}
	if got := RequiredExperiments(st, points); got != 29 {
		t.Fatalf("mixed design = %d, want 29", got)
	}
}

// Property: RequiredExperiments never exceeds the full factorial design.
func TestRequiredNeverExceedsFactorial(t *testing.T) {
	prop := func(coupled bool, n1, n2 uint8) bool {
		p1 := int(n1%6) + 1
		p2 := int(n2%6) + 1
		points := map[string]int{"a": p1, "b": p2}
		var st Structure
		if coupled {
			st = Structure{Groups: []DepGroup{{"a", "b"}}}
		} else {
			st = Structure{Groups: []DepGroup{{"a"}, {"b"}}}
		}
		return RequiredExperiments(st, points) <= FullFactorialExperiments(st, points)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
