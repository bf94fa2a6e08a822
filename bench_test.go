package perftaint

import (
	"context"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/extrap"
	"repro/internal/interp"
	"repro/internal/libdb"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/taint"
)

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable2          — pruning census (Table 2)
//	BenchmarkTable3          — parameter coverage (Table 3)
//	BenchmarkFigure3         — LULESH instrumentation overhead (Figure 3)
//	BenchmarkFigure4         — MILC instrumentation overhead (Figure 4)
//	BenchmarkDesignReduction — experiment-design reduction (A2)
//	BenchmarkCoreHours       — campaign core-hour costs (A3)
//	BenchmarkNoiseResilience — false-dependency pruning (B1)
//	BenchmarkIntrusion       — CalcQForElems model distortion (B2)
//	BenchmarkContention      — ranks-per-node contention (Figure 5 / C1)
//	BenchmarkValidation      — segmented-behaviour detection (C2)
//
// plus micro-benchmarks of the substrates (tainted interpretation, label
// union, PMNF fitting).

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() { benchCtx, benchErr = experiments.NewContext() })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

func BenchmarkTable2(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(ctx)
		if res.LULESH.FunctionsTotal != 356 {
			b.Fatal("census broken")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := experiments.Table3(ctx); len(rs) != 2 {
			b.Fatal("coverage broken")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignReduction(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := experiments.DesignReduction(ctx); len(rs) != 2 {
			b.Fatal("design reduction broken")
		}
	}
}

func BenchmarkCoreHours(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CoreHourCosts(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoiseResilience(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NoiseResilienceAll(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntrusion(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Intrusion(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContention(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Contention(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidation(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Validation(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- batch runner benchmarks ---

// batchSweep is the 8-config LULESH grid the batch benchmarks share.
func batchSweep() (*apps.Spec, []apps.Config) {
	d := runner.Design{
		Spec:     apps.LULESH(),
		Defaults: apps.LULESHTaintConfig(),
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4, 8, 16}},
			{Param: "size", Values: []float64{5, 6}},
		},
	}
	return d.Spec, d.Configs()
}

// BenchmarkBatchAnalyze measures the worker-pool batch: one shared
// preparation (module build, verification, static pass), dynamic runs
// fanned across GOMAXPROCS. Compare against BenchmarkSequentialAnalyze —
// the acceptance target is >1.5x at 4+ cores.
func BenchmarkBatchAnalyze(b *testing.B) {
	spec, cfgs := batchSweep()
	r := runner.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.AnalyzeBatch(spec, cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if err := runner.FirstErr(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialAnalyze is the pre-runner flow: each configuration
// rebuilds the module and re-runs the static pass.
func BenchmarkSequentialAnalyze(b *testing.B) {
	spec, cfgs := batchSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := core.Analyze(spec, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepParallel runs the paper's 25-point LULESH modeling design
// (Table 2 grid at the cheap taint-run size) through Runner.Sweep.
func BenchmarkSweepParallel(b *testing.B) {
	ps, _ := apps.LULESHModelValues()
	d := runner.Design{
		Spec:     apps.LULESH(),
		Defaults: apps.LULESHTaintConfig(),
		Axes: []runner.Axis{
			{Param: "p", Values: ps},
			{Param: "size", Values: []float64{4, 5, 6, 7, 8}},
		},
	}
	r := runner.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Sweep(d)
		if err != nil {
			b.Fatal(err)
		}
		if err := runner.FirstErr(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtract measures one in-process model extraction
// (modelreg.Extract: taint run, sweep, per-point aggregation, fitting) of
// the end-to-end benchmark's designs, one sub-benchmark per app: LULESH's
// 16 small points, where aggregation and fitting dominate, and MILC's 12
// points of up to 67M tainted instructions, where the interpreter does.
// Profile it with `go test -run '^$' -bench Extract -cpuprofile cpu.out`.
func BenchmarkExtract(b *testing.B) {
	for _, c := range []struct {
		app      string
		defaults apps.Config
		axes     []modelreg.Axis
	}{
		{"lulesh", apps.Config{"regions": 4, "balance": 2, "cost": 1, "iters": 2}, []modelreg.Axis{
			{Param: "p", Values: []float64{2, 4, 8, 16}},
			{Param: "size", Values: []float64{4, 5, 6, 7}},
		}},
		{"milc", nil, []modelreg.Axis{
			{Param: "p", Values: []float64{4, 8, 16, 32}},
			{Param: "size", Values: []float64{32, 64, 128}},
		}},
	} {
		b.Run(c.app, func(b *testing.B) {
			app := service.BundledApps()[c.app]
			prep, err := core.Prepare(app.New())
			if err != nil {
				b.Fatal(err)
			}
			cfg := service.ResolveModelDefaults(app, modelreg.Config{
				App: c.app, Params: []string{"p", "size"}, Defaults: c.defaults, Axes: c.axes,
				Reps: 3, Seed: 1, RelNoise: 0.02, Batch: 5,
			})
			r := runner.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := modelreg.Extract(context.Background(), r, prep, cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				if ms.Points != cfg.Size() {
					b.Fatalf("extracted %d points, want %d", ms.Points, cfg.Size())
				}
			}
			b.ReportMetric(float64(b.N*cfg.Size())/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// --- interpreter engine benchmarks ---

// interpBench runs one spec configuration through the interpreter in the
// given mode and reports ns per interpreted instruction, the fast engine's
// acceptance metric (>=2x improvement over the reference engine).
func interpBench(b *testing.B, spec *apps.Spec, cfg apps.Config, mode interp.Mode, tainted bool) {
	b.Helper()
	mod, err := apps.BuildModule(spec)
	if err != nil {
		b.Fatal(err)
	}
	// Predecoding happens once per spec (it is cached on core.Prepared in
	// the pipeline), so it sits outside the measured loop; likewise the
	// compiled-closure artifact, which the pipeline shares per spec digest.
	prog := interp.Predecode(mod)
	var cp *interp.Compiled
	if mode == interp.ModeCompiled {
		cp = interp.Compile(prog)
	}
	db := libdb.DefaultMPI()
	args := apps.TaintArgs(spec, cfg)
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng *taint.Engine
		var labels []taint.Label
		mach := interp.NewMachine(mod)
		mach.Mode = mode
		mach.Prog = prog
		mach.Compiled = cp
		mach.Fuel = 4_000_000_000
		if tainted {
			eng = taint.NewEngine()
			mach.Taint = eng
			labels = make([]taint.Label, len(spec.Params))
			for j, prm := range spec.Params {
				labels[j] = eng.Table.Base(prm)
			}
		}
		db.Bind(mach, eng, libdb.RunConfig{CommSize: int64(cfg["p"]), Rank: 0})
		res, err := mach.Run("main", args, labels)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Instructions
	}
	if total > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/instr")
	}
}

// interpBenchApps enumerates the benchmarked workloads: the quickstart
// analysis configuration (LULESH at the paper's taint run) and the MILC
// taint run.
func interpBenchApps(b *testing.B, tainted bool) {
	for _, app := range []struct {
		name string
		spec *apps.Spec
		cfg  apps.Config
	}{
		{"quickstart", apps.LULESH(), apps.LULESHTaintConfig()},
		{"milc", apps.MILC(), apps.MILCTaintConfig()},
	} {
		for _, m := range []struct {
			name string
			mode interp.Mode
		}{
			{"compiled", interp.ModeCompiled},
			{"fast", interp.ModeFast},
			{"reference", interp.ModeReference},
		} {
			b.Run(app.name+"/"+m.name, func(b *testing.B) {
				interpBench(b, app.spec, app.cfg, m.mode, tainted)
			})
		}
	}
}

// BenchmarkTaintedRun measures the dominant pipeline cost: the dynamic
// tainted execution, under both engines.
func BenchmarkTaintedRun(b *testing.B) { interpBenchApps(b, true) }

// BenchmarkUntaintedRun measures plain interpretation without a taint
// engine (the native-run analog of the overhead experiments).
func BenchmarkUntaintedRun(b *testing.B) { interpBenchApps(b, false) }

// BenchmarkCompiledRun isolates the compiled-closure engine on the same
// workloads (tainted and untainted), including the one-time Compile cost
// amortized outside the loop the way the prepared-spec cache amortizes it
// in the pipeline.
func BenchmarkCompiledRun(b *testing.B) {
	for _, app := range []struct {
		name string
		spec *apps.Spec
		cfg  apps.Config
	}{
		{"quickstart", apps.LULESH(), apps.LULESHTaintConfig()},
		{"milc", apps.MILC(), apps.MILCTaintConfig()},
	} {
		for _, tv := range []struct {
			name    string
			tainted bool
		}{{"tainted", true}, {"untainted", false}} {
			b.Run(app.name+"/"+tv.name, func(b *testing.B) {
				interpBench(b, app.spec, app.cfg, interp.ModeCompiled, tv.tainted)
			})
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkTaintedRunLULESH(b *testing.B) {
	spec := apps.LULESH()
	cfg := apps.LULESHTaintConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterPlainRun(b *testing.B) {
	spec := apps.LULESH()
	mod, err := apps.BuildModule(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := apps.LULESHTaintConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach := interp.NewMachine(mod)
		libdb.DefaultMPI().Bind(mach, nil, libdb.RunConfig{CommSize: 8})
		if _, err := mach.Run("main", apps.TaintArgs(spec, cfg), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLabelUnion(b *testing.B) {
	tbl := taint.NewTable()
	labels := make([]taint.Label, 16)
	for i := range labels {
		labels[i] = tbl.Base(string(rune('a' + i)))
	}
	b.ResetTimer()
	var sink taint.Label
	for i := 0; i < b.N; i++ {
		// The hot-path union is the bare OR the interpreters inline; fold a
		// 16-label chain the way a tainted basic block would.
		l := taint.None
		for _, x := range labels {
			l = taint.Union(l, x)
		}
		sink |= l
	}
	if sink == taint.None {
		b.Fatal("union chain lost its labels")
	}
}

func BenchmarkPMNFSingleFit(b *testing.B) {
	d := extrap.NewDataset("x")
	for _, x := range []float64{4, 8, 16, 32, 64, 128} {
		d.Add(map[string]float64{"x": x}, 3*x+100, 3*x+101, 3*x+99)
	}
	opt := extrap.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extrap.ModelSingle(d, "x", opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPMNFMultiFit(b *testing.B) {
	d := extrap.NewDataset("p", "s")
	for _, p := range []float64{4, 8, 16, 32, 64} {
		for _, s := range []float64{32, 64, 128, 256, 512} {
			v := 1e-4 * p * s
			d.Add(map[string]float64{"p": p, "s": s}, v, v*1.01, v*0.99)
		}
	}
	opt := extrap.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extrap.ModelMulti(d, opt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
