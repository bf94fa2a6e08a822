package apps

import (
	"math"
	"testing"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/libdb"
	"repro/internal/mpisim"
	"repro/internal/taint"
)

func TestQuantityEval(t *testing.T) {
	q := QP(2, "size", 3).Times("p", -1)
	got := q.Eval(map[string]float64{"size": 10, "p": 4})
	if got != 500 {
		t.Fatalf("2*size^3/p = %g, want 500", got)
	}
	// Missing params default to 1.
	if v := QP(3, "x", 2).Eval(nil); v != 3 {
		t.Fatalf("missing param eval = %g, want 3", v)
	}
	ps := q.Params()
	if len(ps) != 2 || ps[0] != "p" || ps[1] != "size" {
		t.Fatalf("Params = %v", ps)
	}
}

// TestQuantityEvalBitStable pins the product order of Eval: the factors
// multiply in sorted parameter order, so every call returns one bit
// pattern. In map-iteration order this quantity rounds two ways.
func TestQuantityEvalBitStable(t *testing.T) {
	q := Quantity{Coeff: 3, Pow: map[string]int{"a": 1, "b": -1, "c": -1, "d": 2}}
	cfg := map[string]float64{"a": 7, "b": 3, "c": 11, "d": 0.1}
	want := 3 * math.Pow(7, 1) * math.Pow(3, -1) * math.Pow(11, -1) * math.Pow(0.1, 2)
	for i := 0; i < 2000; i++ {
		if got := q.Eval(cfg); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Eval = %v (bits %x), want %v (bits %x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestSpecValidateCatchesUnknownCallee(t *testing.T) {
	s := &Spec{
		Name:   "bad",
		Params: []string{"n"},
		Funcs: []*FuncSpec{{
			Name: "main", Kind: KindMain,
			Body: []Stmt{Call{Callee: "ghost"}},
		}},
	}
	if err := s.Validate(); err == nil {
		t.Fatal("expected unknown-callee error")
	}
}

func TestSpecValidateRequiresMainFirst(t *testing.T) {
	s := &Spec{Name: "bad", Funcs: []*FuncSpec{{Name: "f", Kind: KindKernel}}}
	if err := s.Validate(); err == nil {
		t.Fatal("expected main-first error")
	}
}

func TestLULESHCensus(t *testing.T) {
	s := LULESH()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := s.CountFuncs()
	// Table 2: 40 kernels (incl. main per our accounting: main + 40 named
	// would exceed; we count main separately), 2 comm routines, 7 MPI.
	if got := counts[KindKernel]; got != 40 {
		t.Fatalf("kernels = %d, want 40", got)
	}
	if got := counts[KindComm]; got != 2 {
		t.Fatalf("comm routines = %d, want 2", got)
	}
	if got := len(s.MPIUsed); got != 7 {
		t.Fatalf("MPI functions = %d, want 7", got)
	}
	total := len(s.Funcs) + len(s.MPIUsed)
	if total != 356 {
		t.Fatalf("total functions = %d, want 356 (Table 2)", total)
	}
}

func TestMILCCensus(t *testing.T) {
	s := MILC()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := s.CountFuncs()
	if got := counts[KindKernel] + counts[KindMain]; got != 56 {
		t.Fatalf("kernels = %d, want 56", got)
	}
	if got := counts[KindComm]; got != 13 {
		t.Fatalf("comm routines = %d, want 13", got)
	}
	if got := len(s.MPIUsed); got != 8 {
		t.Fatalf("MPI functions = %d, want 8", got)
	}
	total := len(s.Funcs) + len(s.MPIUsed)
	if total != 629 {
		t.Fatalf("total functions = %d, want 629 (Table 2)", total)
	}
}

func buildAndVerify(t *testing.T, s *Spec) *ir.Module {
	t.Helper()
	m, err := BuildModule(s)
	if err != nil {
		t.Fatal(err)
	}
	db := libdb.DefaultMPI()
	if err := ir.VerifyModule(m, func(name string) bool {
		_, ok := db.Lookup(name)
		return ok
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLULESHModuleBuildsAndVerifies(t *testing.T) {
	buildAndVerify(t, LULESH())
}

func TestMILCModuleBuildsAndVerifies(t *testing.T) {
	buildAndVerify(t, MILC())
}

func TestLULESHLoopCensus(t *testing.T) {
	m := buildAndVerify(t, LULESH())
	total := cfg.CountLoops(m)
	// Table 2 reports 275 natural loops; the generated structure must land
	// in that regime (builder blocks add no spurious loops).
	if total < 250 || total > 300 {
		t.Fatalf("LULESH loops = %d, want ~275", total)
	}
}

func TestMILCLoopCensus(t *testing.T) {
	m := buildAndVerify(t, MILC())
	total := cfg.CountLoops(m)
	if total < 820 || total > 930 {
		t.Fatalf("MILC loops = %d, want ~874", total)
	}
}

func taintRun(t *testing.T, s *Spec, cfgv Config) *taint.Engine {
	t.Helper()
	m := buildAndVerify(t, s)
	e := taint.NewEngine()
	mach := interp.NewMachine(m)
	mach.Taint = e
	mach.Fuel = 2_000_000_000
	libdb.DefaultMPI().Bind(mach, e, libdb.RunConfig{CommSize: int64(cfgv["p"]), Rank: 0})

	labels := make([]taint.Label, len(s.Params))
	for i, p := range s.Params {
		labels[i] = e.Table.Base(p)
	}
	if _, err := mach.Run("main", TaintArgs(s, cfgv), labels); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDividedLoopBoundIterations pins the emitQuantity lowering order for
// divided bounds: size^3/balance must multiply the numerator out before
// dividing. The seed version divided first, flooring 1/balance to 0, so
// every region/balance-partitioned loop dynamically executed 0 iterations.
func TestDividedLoopBoundIterations(t *testing.T) {
	bound := QP(1, "size", 3).Times("balance", -1)
	s := &Spec{
		Name:   "divbound",
		Params: []string{"size", "balance"},
		Funcs: []*FuncSpec{{
			Name: "main",
			Kind: KindMain,
			Body: []Stmt{
				Loop{Kind: ParamBound, Bound: bound, Body: []Stmt{Work{Units: 1}}},
			},
		}},
	}
	cfgv := Config{"size": 4, "balance": 3, "p": 2}
	want := bound.EvalInt(map[string]float64(cfgv))
	if want != 21 { // floor(4^3 / 3), not floor(1/3)*4^3 == 0
		t.Fatalf("EvalInt = %d, want 21", want)
	}
	e := taintRun(t, s, cfgv)
	var got int64
	for k, rec := range e.Loops {
		if k.Func == "main" {
			got += rec.Iterations
		}
	}
	if got != want {
		t.Fatalf("divided-bound loop executed %d iterations, want %d", got, want)
	}
	deps := e.FuncLoopDeps()["main"]
	if len(deps) != 2 || deps[0] != "balance" || deps[1] != "size" {
		t.Fatalf("divided-bound loop deps = %v, want [balance size]", deps)
	}
}

func TestLULESHTaintFindsParameterWiring(t *testing.T) {
	s := LULESH()
	e := taintRun(t, s, LULESHTaintConfig())
	deps := e.FuncLoopDeps()

	has := func(fn, param string) bool {
		for _, d := range deps[fn] {
			if d == param {
				return true
			}
		}
		return false
	}
	if !has("CalcForceForNodes", "size") {
		t.Errorf("CalcForceForNodes deps = %v, want size", deps["CalcForceForNodes"])
	}
	if !has("CalcForceForNodes", "regions") {
		t.Errorf("region kernel missing regions dep: %v", deps["CalcForceForNodes"])
	}
	if !has("main", "iters") || !has("main", "size") {
		t.Errorf("main deps = %v, want iters+size", deps["main"])
	}
	if !has("CommSBN", "p") {
		t.Errorf("CommSBN deps = %v, want p", deps["CommSBN"])
	}
	// Getters and helpers must have no tainted loops.
	if len(deps["Domain_get000"]) != 0 {
		t.Errorf("getter tainted: %v", deps["Domain_get000"])
	}
	if len(deps["TableSetup00"]) != 0 {
		t.Errorf("runtime-constant helper tainted: %v", deps["TableSetup00"])
	}
	// cost touches exactly the two designated kernels (idx 22 and 27).
	costFns := map[string]bool{}
	for fn, ps := range deps {
		for _, p := range ps {
			if p == "cost" {
				costFns[fn] = true
			}
		}
	}
	if len(costFns) != 2 || !costFns["LagrangeElements"] || !costFns["CalcElemShapeFunctionDerivatives"] {
		t.Errorf("cost-dependent functions = %v, want exactly the two designated kernels", costFns)
	}
}

func TestMILCTaintFindsSiteLoopCoupling(t *testing.T) {
	s := MILC()
	e := taintRun(t, s, MILCTaintConfig())
	deps := e.FuncLoopDeps()

	has := func(fn, param string) bool {
		for _, d := range deps[fn] {
			if d == param {
				return true
			}
		}
		return false
	}
	// Site loops are size^2/p: both parameters must appear.
	if !has("load_fatlinks", "size") || !has("load_fatlinks", "p") {
		t.Errorf("load_fatlinks deps = %v, want size+p", deps["load_fatlinks"])
	}
	if !has("ks_congrad", "niter") {
		t.Errorf("ks_congrad deps = %v, want niter", deps["ks_congrad"])
	}
	if !has("main", "trajecs") || !has("main", "steps") || !has("main", "warms") {
		t.Errorf("main deps = %v", deps["main"])
	}
	if len(deps["su3_get000"]) != 0 {
		t.Errorf("getter tainted: %v", deps["su3_get000"])
	}
}

func TestMILCGatherBranchIsTaintedSelection(t *testing.T) {
	s := MILC()
	e := taintRun(t, s, MILCTaintConfig())
	found := false
	for _, sel := range e.TaintedSelections() {
		if sel.Key.Func == "g_gather_field" {
			found = true
			if !e.Table.Has(sel.Labels, e.Table.LabelOf("p")) {
				t.Error("gather selection not tainted by p")
			}
		}
	}
	if !found {
		t.Fatal("g_gather_field branch not reported as tainted selection (C2)")
	}
}

func TestGroundTruthEvaluation(t *testing.T) {
	s := LULESH()
	cfgv := Config{"size": 30, "p": 64, "regions": 11, "balance": 1, "cost": 1, "iters": 500}
	g, err := Evaluate(s, cfgv, mpisim.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	if g.Calls["main"] != 1 {
		t.Fatalf("main calls = %g", g.Calls["main"])
	}
	// Every kernel runs once per timestep.
	if got := g.Calls["CalcForceForNodes"]; got != 500 {
		t.Fatalf("kernel calls = %g, want 500", got)
	}
	// Getter call volume must dwarf kernel calls (the C++ accessor storm
	// behind Figure 3).
	getters := 0.0
	for i := 0; i < 249; i++ {
		getters += g.Calls[getter249(i)]
	}
	if getters < 1e8 {
		t.Fatalf("getter calls = %g, want > 1e8", getters)
	}
	// Total runtime lands in the paper's regime (~130 s at this config).
	total := g.TotalSeconds()
	if total < 30 || total > 500 {
		t.Fatalf("total runtime = %gs, want order 1e2", total)
	}
	// Inclusive main covers everything.
	if g.InclSeconds["main"] < g.ExclSeconds["CalcQForElems"] {
		t.Fatal("main inclusive < kernel exclusive")
	}
}

func getter249(i int) string { return "Domain_get" + pad3(i) }

func pad3(i int) string {
	s := ""
	if i < 100 {
		s += "0"
	}
	if i < 10 {
		s += "0"
	}
	return s + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestGroundTruthScalesWithSize(t *testing.T) {
	s := LULESH()
	base := Config{"size": 20, "p": 27, "regions": 11, "balance": 1, "cost": 1, "iters": 100}
	big := base.Clone()
	big["size"] = 40
	g1, err := Evaluate(s, base, mpisim.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Evaluate(s, big, mpisim.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	ratio := g2.ExclSeconds["CalcForceForNodes"] / g1.ExclSeconds["CalcForceForNodes"]
	if math.Abs(ratio-8) > 0.5 {
		t.Fatalf("size^3 scaling: 2x size gave %gx time, want ~8x", ratio)
	}
}

func TestGroundTruthQForElemsHWFactor(t *testing.T) {
	s := LULESH()
	base := Config{"size": 30, "p": 27, "regions": 11, "balance": 1, "cost": 1, "iters": 100}
	big := base.Clone()
	big["p"] = 432 // 16x ranks
	g1, err := Evaluate(s, base, mpisim.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Evaluate(s, big, mpisim.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	ratio := g2.ExclSeconds["CalcQForElems"] / g1.ExclSeconds["CalcQForElems"]
	// p^0.25: 16^0.25 = 2.
	if math.Abs(ratio-2) > 0.2 {
		t.Fatalf("QForElems p^0.25 factor: got %gx, want ~2x", ratio)
	}
}

func TestMILCGatherPiecewiseGroundTruth(t *testing.T) {
	s := MILC()
	small := MILCDefaults()
	small["size"] = 64
	small["p"] = 4
	large := small.Clone()
	large["p"] = 32
	g1, err := Evaluate(s, small, mpisim.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Evaluate(s, large, mpisim.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	// Both sides execute the gather; the work shape differs across the
	// threshold (linear vs constant-depth tree).
	if g1.Calls["g_gather_field"] == 0 || g2.Calls["g_gather_field"] == 0 {
		t.Fatal("gather not called")
	}
	perCall1 := g1.ExclSeconds["g_gather_field"] / g1.Calls["g_gather_field"]
	perCall2 := g2.ExclSeconds["g_gather_field"] / g2.Calls["g_gather_field"]
	if perCall1 == perCall2 {
		t.Fatal("piecewise gather has identical per-call cost on both sides")
	}
}

func TestEvaluateRejectsMissingParams(t *testing.T) {
	s := LULESH()
	if _, err := Evaluate(s, Config{"size": 10}, mpisim.DefaultCost()); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestTaintArgsOrder(t *testing.T) {
	s := LULESH()
	cfgv := LULESHTaintConfig()
	args := TaintArgs(s, cfgv)
	if len(args) != len(s.Params) {
		t.Fatalf("args = %d, want %d", len(args), len(s.Params))
	}
	if args[0] != 5 { // size first
		t.Fatalf("args[0] = %d, want size=5", args[0])
	}
}
