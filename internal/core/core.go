package core

import (
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/libdb"
	"repro/internal/loopmodel"
	"repro/internal/scev"
	"repro/internal/taint"
)

// Prepared caches the per-spec artifacts that every configuration of a
// batch shares: the built and verified IR module, the library database,
// the static classification of Section 5.1, the predecoded program, and
// the module's loop plan. Building the module and
// running the static pass dominate single-run latency, so preparing once
// and fanning the dynamic tainted runs out over configurations is what
// makes batch analysis scale (see internal/runner).
//
// A Prepared value is immutable after construction and safe for concurrent
// use: every Analyze call creates its own interpreter machine and taint
// engine, and only reads the shared module, database, static maps, and
// plan.
type Prepared struct {
	Spec   *apps.Spec
	Module *ir.Module
	DB     *libdb.DB

	// Digest is the content address of Spec (see SpecDigest): equal
	// digests mean interchangeable Prepared values, which is what lets
	// the service layer share one Prepared across tenants.
	Digest string

	// Static is the compile-time classification (Section 5.1), computed
	// exactly once per spec and shared read-only by every dynamic run.
	Static map[string]*scev.FuncClass

	// Program is the predecoded module for the fast interpreter, built once
	// per spec and shared read-only by every dynamic run of a batch.
	Program *interp.Program

	// Plan holds the configuration-independent structure of the module:
	// the call graph, recursion set, bottom-up function order, and every
	// function's CFG loop forest. Dependency propagation and the volume
	// composition of every run read it instead of rebuilding it per
	// design point.
	Plan *loopmodel.Plan

	// Mode selects the interpreter engine for Analyze runs; the zero value
	// is the fast engine. The reference mode exists for differential and
	// oracle runs; the compiled mode lowers Program into closure chains
	// once per Prepared (see CompiledProgram).
	Mode interp.Mode

	// compiled is the closure-chain artifact of the compiled engine tier,
	// built at most once per Prepared value. Because the service layer
	// interns Prepared by SpecDigest (PreparedCache: singleflight + LRU),
	// hanging the artifact here gives digest-keyed compiled-artifact
	// caching for free. Go closures cannot be serialized, so unlike the
	// canonical spec bytes the artifact never reaches the disk tier: a
	// restarted daemon re-lowers on first compiled-mode use of a digest.
	compiledOnce sync.Once
	compiled     *interp.Compiled

	// fuel overrides the instruction budget of one tainted run when > 0
	// (runFuel otherwise); it exists so that fuel exhaustion can be
	// exercised without running billions of instructions.
	fuel int64
}

// runFuel bounds the instructions of one tainted run.
const runFuel = 4_000_000_000

// CompiledProgram returns the compiled-closure artifact for Program,
// lowering it on first use. Safe for concurrent use; every Analyze run
// of a ModeCompiled Prepared shares the one artifact read-only.
func (p *Prepared) CompiledProgram() *interp.Compiled {
	p.compiledOnce.Do(func() { p.compiled = interp.Compile(p.Program) })
	return p.compiled
}

// Prepare builds the module from spec, verifies it against the default MPI
// library database, and runs the static pass — the spec-level half of the
// pipeline, independent of any configuration.
func Prepare(spec *apps.Spec) (*Prepared, error) {
	db := libdb.DefaultMPI()
	if err := validateTaintParams(spec); err != nil {
		return nil, err
	}
	mod, err := apps.BuildModule(spec)
	if err != nil {
		return nil, fmt.Errorf("core: build module: %w", err)
	}
	if err := ir.VerifyModule(mod, func(name string) bool {
		_, ok := db.Lookup(name)
		return ok
	}); err != nil {
		return nil, fmt.Errorf("core: verify module: %w", err)
	}
	return PrepareModule(spec, mod, db), nil
}

// validateTaintParams rejects specs whose distinct taint parameters — the
// declared spec parameters plus the implicit library parameter p — exceed
// the 64-bit mask budget of the taint engine. Catching this at Prepare time
// turns a would-be hot-loop panic into a typed, actionable error
// (taint.TooManyLabelsError) before any expensive work runs.
func validateTaintParams(spec *apps.Spec) error {
	distinct := make(map[string]bool, len(spec.Params)+1)
	for _, p := range spec.Params {
		distinct[p] = true
	}
	distinct[libdb.MPIParam] = true
	if n := len(distinct); n > taint.MaxBaseLabels {
		return fmt.Errorf("core: spec %q declares %d distinct taint parameters (including implicit %q): %w",
			spec.Name, n, libdb.MPIParam, &taint.TooManyLabelsError{Declared: n})
	}
	return nil
}

// PrepareModule runs the static pass over an already built and verified
// module, caching the artifacts for repeated dynamic runs.
func PrepareModule(spec *apps.Spec, mod *ir.Module, db *libdb.DB) *Prepared {
	return &Prepared{
		Spec:    spec,
		Module:  mod,
		DB:      db,
		Digest:  SpecDigest(spec),
		Static:  scev.AnalyzeModule(mod, db.Relevant),
		Program: interp.Predecode(mod),
		Plan:    loopmodel.NewPlan(mod),
	}
}

// Observation is what one design point of a model extraction reads from
// its tainted run: the dynamic instruction count and the per-function
// loop-iteration sums. It is the lean counterpart of Report — the same
// run, without dependency aggregation, volumes or relevance.
type Observation struct {
	// Instructions is the dynamic cost of the tainted run.
	Instructions int64
	// Iterations sums the run's loop iterations per function
	// (taint.Engine.FuncLoopIterations).
	Iterations map[string]int64
}

// Observe runs the tainted execution at cfg and folds its loop records
// into per-function iteration sums, skipping the aggregation stages of
// Analyze. It runs exactly the machine Analyze runs, so Instructions and
// Iterations equal those of the full report at the same cfg. Observe is
// safe to call from multiple goroutines on the same Prepared value.
func (p *Prepared) Observe(cfg apps.Config) (*Observation, error) {
	engine, instructions, err := p.run(cfg)
	if err != nil {
		return nil, err
	}
	return &Observation{Instructions: instructions, Iterations: engine.FuncLoopIterations()}, nil
}

// run is the dynamic taint analysis (stage 2) shared by Analyze and
// Observe: one fresh machine and taint engine over the predecoded
// program, which every concurrent run of this Prepared shares read-only,
// bound to cfg's rank count. It returns the engine holding the
// run's records and the executed instruction count.
func (p *Prepared) run(cfg apps.Config) (*taint.Engine, int64, error) {
	engine := taint.NewEngine()
	mach := interp.NewMachine(p.Module)
	mach.Taint = engine
	mach.Fuel = runFuel
	if p.fuel > 0 {
		mach.Fuel = p.fuel
	}
	mach.Mode = p.Mode
	mach.Prog = p.Program
	if p.Mode == interp.ModeCompiled {
		mach.Compiled = p.CompiledProgram()
	}
	pVal := int64(cfg["p"])
	if pVal <= 0 {
		return nil, 0, fmt.Errorf("core: config missing implicit parameter p")
	}
	p.DB.Bind(mach, engine, libdb.RunConfig{CommSize: pVal, Rank: 0})

	labels := make([]taint.Label, len(p.Spec.Params))
	for i, prm := range p.Spec.Params {
		labels[i] = engine.Table.Base(prm)
	}
	res, err := mach.Run("main", apps.TaintArgs(p.Spec, cfg), labels)
	if err != nil {
		return nil, 0, fmt.Errorf("core: tainted run: %w", err)
	}
	return engine, res.Instructions, nil
}

// Analyze runs the per-configuration dynamic stage on the cached
// artifacts: the tainted execution, dependency aggregation, symbolic
// volumes, and the relevance filter. cfg must contain every spec parameter
// plus the implicit MPI parameter p. Analyze is safe to call from multiple
// goroutines on the same Prepared value.
func (p *Prepared) Analyze(cfg apps.Config) (*Report, error) {
	// Stage 2: dynamic taint analysis.
	engine, instructions, err := p.run(cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{Spec: p.Spec, Module: p.Module, DB: p.DB, Static: p.Static, Plan: p.Plan,
		Engine: engine, Instructions: instructions}

	// Stage 3: aggregation. FuncDeps is transitive over the call graph:
	// the paper's models are calling-context profiles, so a function whose
	// callee communicates inherits the callee's parametric dependencies
	// (CalcQForElems inherits p from the boundary exchange it triggers).
	r.LoopDeps = engine.FuncLoopDeps()
	r.LibDeps = engine.FuncLibDeps()
	r.FuncDeps = propagateDeps(p.Plan, unionDeps(r.LoopDeps, r.LibDeps))

	// Stage 4: symbolic volumes with static trip counts and library shapes.
	// A loop's dependencies are the union of its labels over all calling
	// contexts, folded once here rather than per query.
	type loopID struct {
		fn string
		id int
	}
	loopLabels := make(map[loopID]taint.Label, len(engine.Loops))
	for k, rec := range engine.Loops {
		loopLabels[loopID{k.Func, k.LoopID}] |= rec.Labels
	}
	loopDepFn := func(fn string, id int) []string {
		return engine.Table.Expand(loopLabels[loopID{fn, id}])
	}
	tripFn := func(fn string, loopID int) (int64, bool) {
		fc := r.Static[fn]
		if fc == nil {
			return 0, false
		}
		tc, ok := fc.Loops[loopID]
		if !ok || !tc.Constant {
			return 0, false
		}
		return tc.Count, true
	}
	r.Volumes = loopmodel.Compute(p.Plan, loopDepFn, tripFn, p.DB.ExternVolume())

	// Stage 5: relevance (the taint-based instrumentation filter).
	r.Relevant = make(map[string]bool)
	for fn, deps := range r.FuncDeps {
		if len(deps) > 0 {
			r.Relevant[fn] = true
		}
	}
	r.Relevant[p.Spec.Main().Name] = true
	return r, nil
}
