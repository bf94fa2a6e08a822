package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/noise"
)

func TestContentionFactorShape(t *testing.T) {
	m := Skylake()
	if got := m.ContentionFactor(0.8, 1); got != 1 {
		t.Fatalf("single rank contention = %g, want 1", got)
	}
	if got := m.ContentionFactor(0, 36); got != 1 {
		t.Fatalf("zero intensity contention = %g, want 1", got)
	}
	// Monotone in r and in memory intensity.
	if !(m.ContentionFactor(0.8, 18) > m.ContentionFactor(0.8, 4)) {
		t.Fatal("contention must grow with co-location")
	}
	if !(m.ContentionFactor(0.9, 18) > m.ContentionFactor(0.2, 18)) {
		t.Fatal("contention must grow with memory intensity")
	}
	// C1 regime: around +50% for a memory-bound function at full socket.
	f := m.ContentionFactor(0.85, 18)
	if f < 1.2 || f > 2.2 {
		t.Fatalf("contention at r=18 = %g, want ~1.5", f)
	}
}

func TestRanksPerNodePacking(t *testing.T) {
	m := Skylake()
	if got := m.RanksPerNode(8); got != 8 {
		t.Fatalf("RanksPerNode(8) = %d", got)
	}
	if got := m.RanksPerNode(729); got != 36 {
		t.Fatalf("RanksPerNode(729) = %d, want 36", got)
	}
}

func TestMeasureProducesProfiles(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 27
	cfg["size"] = 25
	cfg["iters"] = 50

	prof, err := r.Measure(cfg, nil, 3, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	if prof.OverheadSeconds != 0 {
		t.Fatalf("uninstrumented overhead = %g, want 0", prof.OverheadSeconds)
	}
	if len(prof.FuncSeconds["CalcForceForNodes"]) != 3 {
		t.Fatal("wrong repeat count")
	}
	if prof.BaseSeconds <= 0 {
		t.Fatal("no base time")
	}
	// MPI functions with calls must be measured too.
	if _, ok := prof.FuncSeconds["MPI_Allreduce"]; !ok {
		t.Fatal("MPI function missing from profile")
	}
}

func TestFullInstrumentationDwarfsTaintSet(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 64
	cfg["size"] = 30
	cfg["iters"] = 100

	full := make(map[string]bool)
	for _, f := range spec.Funcs {
		full[f.Name] = true
	}
	small := map[string]bool{"main": true, "CalcQForElems": true}

	pf, err := r.Measure(cfg, full, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := r.Measure(cfg, small, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	if pf.OverheadSeconds < 50*ps.OverheadSeconds {
		t.Fatalf("full overhead %gs vs selective %gs: getter storm missing",
			pf.OverheadSeconds, ps.OverheadSeconds)
	}
}

func TestSkewAppliesOnlyUnderHeavyInstrumentation(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 729
	cfg["size"] = 30
	cfg["iters"] = 500

	full := make(map[string]bool)
	for _, f := range spec.Funcs {
		full[f.Name] = true
	}
	taint := map[string]bool{"CalcQForElems": true}

	pf, err := r.Measure(cfg, full, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := r.Measure(cfg, taint, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	tf := pf.FuncSeconds["CalcQForElems"][0]
	tt := pt.FuncSeconds["CalcQForElems"][0]
	if tf < 2*tt {
		t.Fatalf("full-instr time %gs vs filtered %gs: intrusion invisible", tf, tt)
	}
}

func TestContentionAffectsMeasurements(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 64
	cfg["size"] = 30
	cfg["iters"] = 100

	r.RanksPerNodeOverride = 2
	lo, err := r.Measure(cfg, nil, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	r.RanksPerNodeOverride = 18
	hi, err := r.Measure(cfg, nil, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	r.RanksPerNodeOverride = 0

	a := lo.FuncSeconds["CalcQForElems"][0]
	b := hi.FuncSeconds["CalcQForElems"][0]
	if b <= a*1.1 {
		t.Fatalf("no contention slowdown: %g -> %g", a, b)
	}
	// Ratio should be in the C1 regime (~1.5x for memory-bound kernels).
	if b/a > 3 {
		t.Fatalf("contention too strong: %gx", b/a)
	}
}

func TestCoreHours(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 27
	cfg["size"] = 25
	cfg["iters"] = 100

	ch, err := r.CoreHours(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch <= 0 {
		t.Fatal("core-hours must be positive")
	}
	full := make(map[string]bool)
	for _, f := range spec.Funcs {
		full[f.Name] = true
	}
	chFull, err := r.CoreHours(cfg, full)
	if err != nil {
		t.Fatal(err)
	}
	if chFull <= ch {
		t.Fatal("instrumented run must cost more")
	}
}

func TestReachesMPI(t *testing.T) {
	spec := apps.LULESH()
	m := reachesMPI(spec)
	if !m["CalcQForElems"] {
		t.Error("CalcQForElems reaches MPI via CommSBN")
	}
	if !m["main"] {
		t.Error("main reaches MPI")
	}
	if m["Domain_get000"] {
		t.Error("getter does not reach MPI")
	}
	if math.MaxInt32 < len(m) {
		t.Fatal("unreachable")
	}
}

func TestImbalanceFactorShape(t *testing.T) {
	m := Skylake()
	if m.ImbalanceFactor(0.3, 1) != 1 {
		t.Error("single rank cannot straggle")
	}
	if m.ImbalanceFactor(0, 64) != 1 {
		t.Error("zero skew must not stretch")
	}
	f16, f64 := m.ImbalanceFactor(0.3, 16), m.ImbalanceFactor(0.3, 64)
	if !(f64 > f16 && f16 > 1) {
		t.Errorf("imbalance must grow with p: f(16)=%g f(64)=%g", f16, f64)
	}
	// log2 shape: 1 + skew*log2(p).
	if got, want := m.ImbalanceFactor(0.5, 16), 1+0.5*4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("ImbalanceFactor(0.5,16) = %g, want %g", got, want)
	}
}

// TestImbalanceStretchesMeasurement pins the Measure-side application: a
// skewed function's measured time is its analytic ground truth times the
// imbalance factor, while an unskewed sibling stays at ground truth. The
// ground truth itself must remain rank-symmetric (no skew term).
func TestImbalanceStretchesMeasurement(t *testing.T) {
	s := &apps.Spec{
		Name:   "imb",
		Params: []string{"n"},
		Funcs: []*apps.FuncSpec{
			{Name: "main", Kind: apps.KindMain, Body: []apps.Stmt{
				apps.Call{Callee: "worker"}, apps.Call{Callee: "steady"},
			}},
			{Name: "worker", Kind: apps.KindKernel, WorkNanos: 10, ImbalanceSkew: 0.4,
				Body: []apps.Stmt{apps.Loop{Kind: apps.ParamBound, Bound: apps.QP(1, "n", 1),
					Body: []apps.Stmt{apps.Work{Units: 100}}}}},
			{Name: "steady", Kind: apps.KindKernel, WorkNanos: 10,
				Body: []apps.Stmt{apps.Loop{Kind: apps.ParamBound, Bound: apps.QP(1, "n", 1),
					Body: []apps.Stmt{apps.Work{Units: 100}}}}},
		},
	}
	r := NewRunner(s)
	r.RanksPerNodeOverride = 1 // no contention, isolate the imbalance term
	cfg := apps.Config{"n": 50, "p": 16}
	g, err := apps.Evaluate(s, cfg, r.Cost)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := r.Measure(cfg, nil, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	wantWorker := g.ExclSeconds["worker"] * r.Machine.ImbalanceFactor(0.4, 16)
	if got := prof.FuncSeconds["worker"][0]; math.Abs(got-wantWorker) > 1e-12*wantWorker {
		t.Errorf("worker measured %g, want %g (ground %g stretched)", got, wantWorker, g.ExclSeconds["worker"])
	}
	if got, want := prof.FuncSeconds["steady"][0], g.ExclSeconds["steady"]; math.Abs(got-want) > 1e-12*want {
		t.Errorf("steady measured %g, want ground truth %g", got, want)
	}
	if g.ExclSeconds["worker"] != g.ExclSeconds["steady"] {
		t.Error("ground truth must stay rank-symmetric: skew is a measurement effect")
	}
}

// fractionalSpec is a small app whose float sums depend on their order:
// main calls three getters and a communication wrapper at fractional
// rates, and the wrapper issues four MPI routines at fractional rates
// with fractional message counts.
func fractionalSpec() *apps.Spec {
	n := func(c float64) apps.Quantity { return apps.QP(c, "n", 1) }
	perM := func(c float64) *apps.Quantity { q := n(c).Times("m", -1); return &q }
	loop := func(rate float64, body ...apps.Stmt) apps.Loop {
		return apps.Loop{Kind: apps.ParamBound, Bound: n(rate), Body: body}
	}
	getter := func(name string) *apps.FuncSpec {
		return &apps.FuncSpec{Name: name, Kind: apps.KindGetter, WorkNanos: 0.7,
			Body: []apps.Stmt{apps.Work{Units: 1.3}}}
	}
	return &apps.Spec{
		Name:   "fractional",
		Params: []string{"n", "m"},
		Funcs: []*apps.FuncSpec{
			{Name: "main", Kind: apps.KindMain, WorkNanos: 1.1, Body: []apps.Stmt{
				loop(0.1, apps.Call{Callee: "get_a"}),
				loop(0.2, apps.Call{Callee: "get_b"}),
				loop(0.3, apps.Call{Callee: "get_c"}, apps.Work{Units: 0.3}),
				loop(0.7, apps.Call{Callee: "exchange"}),
			}},
			{Name: "exchange", Kind: apps.KindComm, WorkNanos: 0.9, MemIntensity: 0.4, Body: []apps.Stmt{
				apps.Work{Units: 2.1},
				loop(0.1, apps.Call{Callee: "MPI_Send", CountArg: perM(0.3)}),
				loop(0.2, apps.Call{Callee: "MPI_Allreduce", CountArg: perM(1.7)}),
				loop(0.3, apps.Call{Callee: "MPI_Bcast", CountArg: perM(2.9)}),
				loop(0.6, apps.Call{Callee: "MPI_Gather", CountArg: perM(0.61)}),
				apps.Call{Callee: "get_a"},
			}},
			getter("get_a"), getter("get_b"), getter("get_c"),
		},
		MPIUsed: []string{"MPI_Send", "MPI_Allreduce", "MPI_Bcast", "MPI_Gather"},
	}
}

// TestMeasureBitIdenticalAcrossCalls requires repeated measurements of
// one configuration to agree in every bit: the ground truth and the
// instrumentation events are float sums over maps, and they must run in
// a fixed order.
func TestMeasureBitIdenticalAcrossCalls(t *testing.T) {
	spec := fractionalSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(spec)
	cfg := apps.Config{"n": 1, "m": 3.1, "p": 12}
	all := map[string]bool{"main": true, "exchange": true, "get_a": true, "get_b": true,
		"get_c": true, "MPI_Send": true, "MPI_Allreduce": true, "MPI_Bcast": true, "MPI_Gather": true}
	measure := func() string {
		prof, err := r.Measure(cfg, all, 3, noise.New(42, 0.02, 0))
		if err != nil {
			t.Fatal(err)
		}
		// %v prints maps in key order and floats in their shortest
		// round-tripping form, so equal strings mean equal bits.
		return fmt.Sprintf("%v", *prof)
	}
	want := measure()
	for i := 0; i < 300; i++ {
		if got := measure(); got != want {
			t.Fatalf("call %d: profile differs\n got %s\nwant %s", i, got, want)
		}
	}
}
