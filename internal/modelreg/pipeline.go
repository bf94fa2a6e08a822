package modelreg

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extrap"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/runner"
)

// Event is one progress record of a running pipeline. Events stream to
// the observer in design order (the pipeline consumes results serially)
// and carry only JSON-stable fields, so the service can forward them to
// clients as NDJSON lines verbatim.
type Event struct {
	// Type is "taint" (white-box run finished), "point" (one design
	// point consumed), or "refit" (an incremental batch refit ran).
	Type string `json:"type"`
	// Relevant and Functions report the taint event: instrumented
	// function count and total spec functions.
	Relevant  int `json:"relevant,omitempty"`
	Functions int `json:"functions,omitempty"`
	// Index and Config identify a consumed design point; Instructions is
	// the dynamic cost of its tainted run. Index has no omitempty:
	// design point 0 is a legitimate value and wire consumers correlate
	// by it.
	Index        int         `json:"index"`
	Config       apps.Config `json:"config,omitempty"`
	Instructions int64       `json:"instructions,omitempty"`
	// Points of Total design points have been consumed so far.
	Points int `json:"points,omitempty"`
	Total  int `json:"total,omitempty"`
	// Fitted and Failed count the interim refit outcomes.
	Fitted int `json:"fitted,omitempty"`
	Failed int `json:"failed,omitempty"`
}

// fnMetric keys one dataset of the accumulating pipeline.
type fnMetric struct {
	fn     string
	metric string
}

// Pipeline incrementally turns streamed sweep results into a ModelSet.
// Construction runs the white-box taint analysis once (at the smallest
// design point); every ConsumeSample call folds one design point's
// measurements into the per-function datasets and refits when the
// configured batch fills; Finish runs the final fits and assembles the
// artifact.
//
// A Pipeline is single-consumer: ConsumeSample and Finish must be called
// from one goroutine (runner.Stream's emit contract guarantees this for
// LocalSweep).
type Pipeline struct {
	cfg     Config
	prep    *core.Prepared
	workers int
	onEvent func(Event)

	taint        *core.Report
	funcs        map[string]bool // modeled functions (taint-relevant spec functions)
	instrumented map[string]bool
	clus         *cluster.Runner

	cfgs   []apps.Config
	data   map[fnMetric]*extrap.Dataset
	points int
}

// NewPipeline validates cfg against the prepared spec, runs the taint
// analysis at the smallest design point, and returns a pipeline ready to
// consume the sweep. workers bounds the fitting fan-out (<= 0 means
// GOMAXPROCS); onEvent, when non-nil, observes progress.
func NewPipeline(p *core.Prepared, cfg Config, workers int, onEvent func(Event)) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(p.Spec); err != nil {
		return nil, err
	}
	pl := &Pipeline{
		cfg:     cfg,
		prep:    p,
		workers: workers,
		onEvent: onEvent,
		data:    make(map[fnMetric]*extrap.Dataset),
		cfgs:    cfg.design(p.Spec).Configs(),
	}

	// White-box half: one taint run delivers the parameter-dependence
	// proof (priors), the relevance set (instrumentation filter), and
	// the symbolic volumes the report cross-references.
	rep, err := p.Analyze(cfg.baseConfig())
	if err != nil {
		return nil, fmt.Errorf("modelreg: taint run: %w", err)
	}
	pl.taint = rep
	pl.funcs = rep.Relevant
	pl.instrumented = measure.Select(p.Spec, measure.FilterTaint, rep.Relevant)
	pl.clus = cluster.NewRunner(p.Spec)
	pl.emit(Event{Type: "taint", Relevant: len(rep.Relevant),
		Functions: len(p.Spec.Funcs), Total: len(pl.cfgs)})
	return pl, nil
}

// Configs returns the design's configuration grid in sweep order — the
// exact slice to hand a SweepFunc alongside ConsumeSample.
func (pl *Pipeline) Configs() []apps.Config { return pl.cfgs }

func (pl *Pipeline) emit(ev Event) {
	if pl.onEvent != nil {
		pl.onEvent(ev)
	}
}

// Sample is the distilled observation one design point contributes to
// the fitter: everything ConsumeSample needs, and nothing that cannot
// cross a process boundary. A coordinator merging shard results from
// remote workers reconstructs Samples from wire records (the full
// core.Report never travels); the local path builds them from
// core.Prepared.Observe in LocalSweep. The two must agree — same inputs,
// same Sample — for distributed extraction to reproduce single-node
// models.
type Sample struct {
	// Index is the design-order position of this observation.
	Index int
	// Config is the fully-merged configuration analyzed at this point.
	Config apps.Config
	// Iterations sums the tainted run's loop iterations per function
	// (SumLoopIterations of the report).
	Iterations map[string]int64
	// Instructions is the dynamic cost of the tainted run.
	Instructions int64
}

// SumLoopIterations folds a report's per-loop engine records into
// per-function totals — the MetricIterations observation of one design
// point, equal to core.Observation.Iterations at the same configuration.
func SumLoopIterations(rep *core.Report) map[string]int64 {
	return rep.Engine.FuncLoopIterations()
}

// ConsumeSample folds one design point's distilled observation into the
// datasets: the tainted run's per-function loop iteration counts
// (MetricIterations) and the synthetic instrumented measurement at the
// same configuration (MetricSeconds). When a full batch of new points has
// accumulated and an observer listens, the primary-metric models are
// refit incrementally. The MetricSeconds measurement is synthesized here
// — deterministically from the seed and the sample's index, never from
// who computed the sample — so a coordinator consuming remote samples
// produces the exact datasets a single node would.
func (pl *Pipeline) ConsumeSample(s Sample) error {
	pv := make(map[string]float64, len(pl.cfg.Params))
	for _, prm := range pl.cfg.Params {
		pv[prm] = s.Config[prm]
	}

	for _, metric := range pl.cfg.Metrics {
		switch metric {
		case MetricIterations:
			for fn := range pl.funcs {
				pl.dataset(fn, metric).Add(pv, float64(s.Iterations[fn]))
			}
		case MetricSeconds:
			// Each design point derives its own noise stream from the
			// seed and its index, so results do not depend on completion
			// order and concurrent sweeps reproduce sequential ones.
			src := noise.New(pl.cfg.Seed+int64(s.Index+1)*1_000_003, pl.cfg.RelNoise, 0)
			prof, err := pl.clus.Measure(s.Config, pl.instrumented, pl.cfg.Reps, src)
			if err != nil {
				return fmt.Errorf("modelreg: measure design point %d: %w", s.Index, err)
			}
			for fn := range pl.funcs {
				if vals, ok := prof.FuncSeconds[fn]; ok {
					pl.dataset(fn, metric).Add(pv, vals...)
				}
			}
		}
	}

	pl.points++
	pl.emit(Event{Type: "point", Index: s.Index, Config: s.Config,
		Instructions: s.Instructions, Points: pl.points, Total: len(pl.cfgs)})

	// An interim refit's fits are discarded; only its event is
	// observable, so without an observer it is skipped.
	if pl.onEvent != nil && pl.cfg.Batch > 0 && pl.points%pl.cfg.Batch == 0 && pl.points < len(pl.cfgs) {
		pl.refit()
	}
	return nil
}

func (pl *Pipeline) dataset(fn, metric string) *extrap.Dataset {
	k := fnMetric{fn: fn, metric: metric}
	d := pl.data[k]
	if d == nil {
		d = extrap.NewDataset(pl.cfg.Params...)
		pl.data[k] = d
	}
	return d
}

// refit runs the incremental mid-sweep fit: hybrid models of the primary
// metric over the points so far. Its purpose is pipelining — consumers
// watching the event stream see models sharpen while the sweep tail is
// still running — so it fits only the ranking metric and runs only when
// an observer listens; Finish always refits everything on the complete
// data.
func (pl *Pipeline) refit() {
	metric := pl.cfg.Metrics[0]
	var reqs []extrap.Request
	for _, fn := range pl.sortedFuncs() {
		if d := pl.data[fnMetric{fn: fn, metric: metric}]; d != nil {
			reqs = append(reqs, extrap.Request{
				Name:    fn,
				Dataset: d,
				Prior:   pl.taint.Prior(fn, pl.cfg.Params),
			})
		}
	}
	fits := extrap.FitAll(reqs, extrap.DefaultOptions(), pl.workers)
	ok, failed := 0, 0
	for _, f := range fits {
		if f.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	pl.emit(Event{Type: "refit", Points: pl.points, Total: len(pl.cfgs),
		Fitted: ok, Failed: failed})
}

func (pl *Pipeline) sortedFuncs() []string {
	out := make([]string, 0, len(pl.funcs))
	for fn := range pl.funcs {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// Finish runs the final fits over the complete datasets and assembles
// the ranked ModelSet. Per-function fit failures do not abort the set:
// they surface as typed extrap.FitError messages on the affected
// MetricModel, never as silent zero-value models.
func (pl *Pipeline) Finish() (*ModelSet, error) {
	if pl.points == 0 {
		return nil, fmt.Errorf("modelreg: no design points consumed")
	}
	funcs := pl.sortedFuncs()
	opt := extrap.DefaultOptions()

	// Two requests per (function, metric): the taint-prior hybrid fit
	// and the unrestricted black-box fit whose disagreement powers the
	// attribution.
	var reqs []extrap.Request
	var slots []fitSlot
	for _, fn := range funcs {
		for _, metric := range pl.cfg.Metrics {
			d := pl.data[fnMetric{fn: fn, metric: metric}]
			if d == nil || len(d.Points) == 0 {
				continue
			}
			slots = append(slots, fitSlot{fn: fn, metric: metric, hybrid: len(reqs), blackBox: len(reqs) + 1})
			reqs = append(reqs,
				extrap.Request{Name: fn, Dataset: d, Prior: pl.taint.Prior(fn, pl.cfg.Params)},
				extrap.Request{Name: fn, Dataset: d},
			)
		}
	}
	fits := extrap.FitAll(reqs, opt, pl.workers)

	byFn := make(map[string]*FunctionModels, len(funcs))
	for _, s := range slots {
		fm := byFn[s.fn]
		if fm == nil {
			fm = &FunctionModels{Function: s.fn, Kind: pl.kind(s.fn), Deps: pl.taint.FuncDeps[s.fn]}
			if len(fm.Deps) > 0 && pl.taint.Volumes.ByFunc[s.fn] != nil {
				fm.Volume = pl.taint.Volumes.ByFunc[s.fn].String()
			}
			byFn[s.fn] = fm
		}
		d := pl.data[fnMetric{fn: s.fn, metric: s.metric}]
		mm := MetricModel{
			Metric:   s.metric,
			Points:   len(d.Points),
			MaxCoV:   finiteOr(d.MaxCoV(), -1),
			Reliable: d.Reliable(),
		}
		if f := fits[s.hybrid]; f.Err != nil {
			mm.HybridErr = f.Err.Error()
		} else {
			mm.Hybrid = newModelFit(d, f.Model)
		}
		if f := fits[s.blackBox]; f.Err != nil {
			mm.BlackBoxErr = f.Err.Error()
		} else {
			mm.BlackBox = newModelFit(d, f.Model)
		}
		mm.Attribution = attribution(pl.cfg.Params, fm.Deps, mm.Hybrid, mm.BlackBox)
		fm.Metrics = append(fm.Metrics, mm)
	}

	ms := &ModelSet{
		App:          pl.cfg.App,
		SpecDigest:   pl.prep.Digest,
		DesignDigest: DesignDigest(pl.cfg),
		Key:          Key(pl.prep.Digest, pl.cfg),
		Params:       pl.cfg.Params,
		Metrics:      pl.cfg.Metrics,
		Points:       pl.points,
		Reps:         pl.cfg.Reps,
		TaintConfig:  pl.cfg.baseConfig(),
		RankConfig:   pl.cfg.largestConfig(),
	}

	// Rank by predicted primary-metric contribution at the largest
	// design point: the report leads with the functions that will
	// dominate at scale, which is what the models are for.
	rankAt := make(map[string]float64, len(ms.Params))
	for _, prm := range ms.Params {
		rankAt[prm] = ms.RankConfig[prm]
	}
	primary := pl.cfg.Metrics[0]
	total := 0.0
	pred := make(map[string]float64, len(byFn))
	// Sum in sorted function order: float addition is order-sensitive
	// and shares must not depend on map iteration.
	for _, fn := range funcs {
		fm := byFn[fn]
		if fm == nil {
			continue
		}
		if mm := fm.Metric(primary); mm != nil && mm.Hybrid != nil {
			if v := pl.evalHybrid(fits, slots, fn, primary, rankAt); v > 0 {
				pred[fn] = v
				total += v
			}
		}
	}
	for _, fn := range funcs {
		fm := byFn[fn]
		if fm == nil {
			continue
		}
		if total > 0 {
			fm.Share = finiteOr(pred[fn]/total, 0)
		}
		ms.Functions = append(ms.Functions, *fm)
	}
	sortFunctions(ms.Functions)
	return ms, nil
}

// fitSlot maps one (function, metric) pair to its hybrid and black-box
// request indices of the final batch fit.
type fitSlot struct {
	fn, metric string
	hybrid     int
	blackBox   int
}

// evalHybrid evaluates the hybrid model of (fn, metric) at params.
func (pl *Pipeline) evalHybrid(fits []extrap.Fit, slots []fitSlot, fn, metric string, params map[string]float64) float64 {
	for _, s := range slots {
		if s.fn == fn && s.metric == metric {
			if f := fits[s.hybrid]; f.Err == nil && f.Model != nil {
				return f.Model.Eval(params)
			}
			return 0
		}
	}
	return 0
}

// kind names the census classification of fn ("mpi" for library
// routines, which are not spec functions).
func (pl *Pipeline) kind(fn string) string {
	if f := pl.prep.Spec.FuncByName(fn); f != nil {
		return f.Kind.String()
	}
	return "mpi"
}

// SweepFunc executes a modeling design and feeds one Sample per
// configuration, in design order, to consume. A non-nil error from
// consume must abort the sweep and be returned. Implementations: the
// local runner (LocalSweep) and the service coordinator's distributed
// shard merge.
type SweepFunc func(ctx context.Context, cfgs []apps.Config, consume func(Sample) error) error

// LocalSweep adapts the in-process runner to a SweepFunc: every design
// point runs core.Prepared.Observe on r's worker pool — the tainted run
// and its loop-iteration sums, nothing the pipeline does not read — and
// the observations stream to consume in design order. A failed or
// skipped point aborts the sweep: a missing design point would silently
// skew every model the sweep was meant to produce.
func LocalSweep(r *runner.Runner, p *core.Prepared) SweepFunc {
	return func(ctx context.Context, cfgs []apps.Config, consume func(Sample) error) error {
		return runner.Stream(ctx, r, len(cfgs),
			func(i int) (*core.Observation, error) { return p.Observe(cfgs[i]) },
			func(i int, obs *core.Observation, err error) error {
				if err != nil {
					return fmt.Errorf("modelreg: design point %d (%v): %w", i, cfgs[i], err)
				}
				return consume(Sample{Index: i, Config: cfgs[i],
					Iterations: obs.Iterations, Instructions: obs.Instructions})
			})
	}
}

// ExtractWith runs the whole model-extraction pipeline over an arbitrary
// sweep executor: build the pipeline (one local taint run), hand the
// design to sweep, fold every sample into the incremental fitter, and
// return the finished ModelSet. The executor controls only where design
// points run; fitting, measurement synthesis, and ranking always happen
// here, so any executor that delivers faithful samples in design order
// produces the identical artifact. workers bounds the fitting fan-out;
// onEvent (optional) observes progress.
func ExtractWith(ctx context.Context, sweep SweepFunc, workers int, p *core.Prepared, cfg Config, onEvent func(Event)) (*ModelSet, error) {
	pl, err := NewPipeline(p, cfg, workers, onEvent)
	if err != nil {
		return nil, err
	}
	if err := sweep(ctx, pl.Configs(), pl.ConsumeSample); err != nil {
		return nil, err
	}
	return pl.Finish()
}

// Extract runs the whole model-extraction pipeline in one call: expand
// the design, stream the sweep through r (pipelined, in design order),
// feed every result into an incremental fitting pipeline, and return
// the finished ModelSet. onEvent (optional) observes progress.
func Extract(ctx context.Context, r *runner.Runner, p *core.Prepared, cfg Config, onEvent func(Event)) (*ModelSet, error) {
	return ExtractWith(ctx, LocalSweep(r, p), r.Workers, p, cfg, onEvent)
}
