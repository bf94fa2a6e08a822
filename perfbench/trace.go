package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extrap"
	"repro/internal/interp"
	"repro/internal/libdb"
	"repro/internal/measure"
	"repro/internal/modelreg"
	"repro/internal/noise"
	"repro/internal/runner"
	"repro/internal/taint"
)

// span is one timed call into a layer. Spans of one extraction share
// Trace; Parent is the ID of the span that caused this one (0 for a
// root).
type span struct {
	Name   string  `json:"name"`
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: modelreg calls the sweep's consume function and the event
// observer on the goroutine that called ExtractWith.
type tracer struct {
	epoch  time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) now() float64 { return ms(time.Since(tr.epoch)) }

func (tr *tracer) newTrace() int {
	tr.traces++
	return tr.traces
}

// begin opens a span and returns its ID.
func (tr *tracer) begin(trace, parent int, name string) int {
	tr.spans = append(tr.spans, span{Name: name, Trace: trace, ID: len(tr.spans) + 1, Parent: parent, Start: tr.now()})
	return len(tr.spans)
}

func (tr *tracer) end(id int) { tr.spans[id-1].End = tr.now() }

func (tr *tracer) dur(id int) float64 {
	s := tr.spans[id-1]
	return s.End - s.Start
}

// self is a span's duration minus the part of it its children cover.
func (tr *tracer) self(id int) float64 {
	s := tr.spans[id-1]
	var kids [][2]float64
	for _, k := range tr.spans[id:] {
		if k.Parent == id {
			kids = append(kids, [2]float64{max(k.Start, s.Start), min(k.End, s.End)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, reach := 0.0, s.Start
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return (s.End - s.Start) - covered
}

// sumChildren totals the durations of root's children named name.
func (tr *tracer) sumChildren(root int, name string) float64 {
	t := 0.0
	for _, k := range tr.spans[root:] {
		if k.Parent == root && k.Name == name {
			t += k.End - k.Start
		}
	}
	return t
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is one traced pass over the workload's cases. Times are in ms,
// summed over the pass's cases.
type layers struct {
	prepare, analyze, run, taint, wait, consume, measure, fit, finish float64
	instructions                                                      int64
	fitRequests, fitFailed                                            int
	traced, untraced, covered                                         float64
	serviceOverhead, journalOverhead                                  float64
	on                                                                *passStats
}

// traceWorkload is the separate traced run. Each pass prepares every
// case again, runs one traced and one untraced extraction per case,
// replays the design point by point through the layers modelreg calls,
// and sends the cases' requests through a daemon with the journal on
// and with it off. Per-layer metrics are the medians over passes.
func traceWorkload(o options, bb bench, t *tally) (*report, error) {
	cases := bb.cases()
	tr := newTracer()
	r := runner.New()
	ids := identity{}
	var passes []layers
	deadline := time.Now().Add(seconds(o.seconds))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		l, err := tracePass(o, tr, r, cases, ids, pass, t)
		if !t.op(err) {
			continue
		}
		passes = append(passes, l)
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("no traced pass succeeded")
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("  %d traced passes, %d spans written to %s\n", len(passes), len(tr.spans), path)

	rep := newReport()
	each := func(name, unit string, f func(l layers) float64) {
		for _, l := range passes {
			rep.add(name, unit, f(l))
		}
	}
	each("core.prepare_ms", "ms", func(l layers) float64 { return l.prepare })
	each("core.analyze_ms", "ms", func(l layers) float64 { return l.analyze })
	each("core.aggregate_ms", "ms", func(l layers) float64 { return l.analyze - l.run })
	each("interp.run_ms", "ms", func(l layers) float64 { return l.run })
	each("interp.instructions", "count", func(l layers) float64 { return float64(l.instructions) })
	each("interp.ns_per_instr", "ns", func(l layers) float64 { return 1e6 * l.run / float64(l.instructions) })
	each("modelreg.taint_ms", "ms", func(l layers) float64 { return l.taint })
	each("runner.wait_ms", "ms", func(l layers) float64 { return l.wait })
	each("modelreg.consume_ms", "ms", func(l layers) float64 { return l.consume })
	each("cluster.measure_ms", "ms", func(l layers) float64 { return l.measure })
	each("extrap.fit_ms", "ms", func(l layers) float64 { return l.fit })
	each("extrap.fit_requests", "count", func(l layers) float64 { return float64(l.fitRequests) })
	each("extrap.fit_failed_ratio", "ratio", func(l layers) float64 { return float64(l.fitFailed) / float64(l.fitRequests) })
	each("modelreg.finish_ms", "ms", func(l layers) float64 { return l.finish })
	each("service.overhead_ms", "ms", func(l layers) float64 { return l.serviceOverhead })
	each("journal.overhead_ms", "ms", func(l layers) float64 { return l.journalOverhead })
	each("journal.appends", "count", func(l layers) float64 { return l.on.scrape["perftaintd_journal_appends_total"] })
	each("journal.bytes", "bytes", func(l layers) float64 { return l.on.scrape["perftaintd_journal_bytes"] })
	each("service.cache_misses", "count", func(l layers) float64 { return cacheSum(l.on, "perftaintd_cache_misses_total") })
	each("service.cache_disk_puts", "count", func(l layers) float64 { return cacheSum(l.on, "perftaintd_cache_disk_puts_total") })
	each("service.registry_hit_ratio", "ratio", func(l layers) float64 { return float64(l.on.cached) / float64(l.on.responses) })
	each("api.sweep_line_bytes", "bytes", func(l layers) float64 { return float64(l.on.sweepBytes) })
	each("api.modelset_bytes", "bytes", func(l layers) float64 { return float64(l.on.modelBytes) })
	each("trace.overhead_ms", "ms", func(l layers) float64 { return l.traced - l.untraced })
	each("trace.coverage_ratio", "ratio", func(l layers) float64 { return l.covered / l.traced })
	predict(o.workload, rep, median(collect(passes, func(l layers) float64 { return l.traced })), runtime.GOMAXPROCS(0))
	return rep, nil
}

func collect(ls []layers, f func(layers) float64) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = f(l)
	}
	return out
}

func cacheSum(st *passStats, series string) float64 {
	return st.scrape[series+`{cache="prepared"}`] + st.scrape[series+`{cache="models"}`]
}

// tracePass is one traced pass; see traceWorkload.
func tracePass(o options, tr *tracer, r *runner.Runner, cases []*workCase, ids identity, pass int, t *tally) (layers, error) {
	var l layers
	seedOf := func(i int) int64 { return deriveSeed(o.seed, int64(i), int64(pass%seedCycle)) }
	untraced := make(map[string]float64, len(cases))
	for i, c := range cases {
		trace := tr.newTrace()
		root := tr.begin(trace, 0, "core.prepare")
		p, err := core.Prepare(c.spec)
		tr.end(root)
		if err != nil {
			return l, err
		}
		c.prep = p
		l.prepare += tr.dur(root)

		seed := seedOf(i)
		// Alternate which extraction runs first, so warm caches favour
		// neither side of the tracing overhead.
		var plain extraction
		if pass%2 == 1 {
			plain = extractCase(c, r, seed, t)
		}
		x, id := tracedExtract(tr, c, r, seed, t)
		if pass%2 == 0 {
			plain = extractCase(c, r, seed, t)
		}
		for _, e := range []extraction{x, plain} {
			if e.err != nil {
				return l, e.err
			}
			if e.checkErr != nil {
				return l, e.checkErr
			}
		}
		body, err := json.Marshal(x.ms)
		if err != nil {
			return l, err
		}
		if err := ids.check(c, seed, artifact{key: x.ms.Key, body: body}); err != nil {
			return l, err
		}
		untraced[c.name] = ms(plain.wall)
		l.untraced += ms(plain.wall)
		l.traced += tr.dur(id)
		l.covered += tr.dur(id) - tr.self(id)
		l.taint += tr.sumChildren(id, "modelreg.taint")
		l.wait += tr.sumChildren(id, "runner.wait")
		l.consume += tr.sumChildren(id, "modelreg.consume")
		l.finish += tr.sumChildren(id, "modelreg.finish")

		if err := replay(tr, c, c.withSeed(seed), x.ms, &l, t); err != nil {
			return l, err
		}
	}

	// The daemon passes use the same seeds, so their artifacts must equal
	// the in-process ones byte for byte (the identity check).
	var off *passStats
	for _, journal := range []bool{pass%2 == 0, pass%2 == 1} {
		st, err := runPass(o.out, cases, ids, seedOf, journal, t)
		if err != nil {
			return l, err
		}
		if st.failed {
			return l, fmt.Errorf("a daemon request failed")
		}
		if journal {
			l.on = st
		} else {
			off = st
		}
	}
	l.journalOverhead = ms(l.on.wall) - ms(off.wall)
	for name, cold := range l.on.coldByCase {
		l.serviceOverhead += cold - untraced[name]
	}
	return l, nil
}

// tracedExtract runs the extraction modelreg.Extract runs, with spans
// around the pipeline's taint run, each wait for the next sample from
// the wrapped modelreg.LocalSweep, each ConsumeSample call, and the
// finish from the end of the sweep to the returned ModelSet.
func tracedExtract(tr *tracer, c *workCase, r *runner.Runner, seed int64, t *tally) (extraction, int) {
	var x extraction
	trace := tr.newTrace()
	root := tr.begin(trace, 0, "modelreg.extract")
	taintSpan := tr.begin(trace, root, "modelreg.taint")
	var finish int
	onEvent := func(ev modelreg.Event) {
		if ev.Type == "taint" {
			tr.end(taintSpan)
		}
	}
	inner := modelreg.LocalSweep(r, c.prep)
	sweep := func(ctx context.Context, cfgs []apps.Config, consume func(modelreg.Sample) error) error {
		wait := tr.begin(trace, root, "runner.wait")
		err := inner(ctx, cfgs, func(s modelreg.Sample) error {
			tr.end(wait)
			if err := c.checkSample(s, t); err != nil && x.checkErr == nil {
				x.checkErr = err
			}
			span := tr.begin(trace, root, "modelreg.consume")
			err := consume(s)
			tr.end(span)
			wait = tr.begin(trace, root, "runner.wait")
			return err
		})
		tr.end(wait)
		finish = tr.begin(trace, root, "modelreg.finish")
		return err
	}
	start := time.Now()
	x.ms, x.err = modelreg.ExtractWith(context.Background(), sweep, r.Workers, c.prep, c.withSeed(seed), onEvent)
	x.wall = time.Since(start)
	if finish != 0 {
		tr.end(finish)
	}
	tr.end(root)
	if x.err == nil && x.checkErr == nil {
		x.checkErr = c.checkArtifact(c.withSeed(seed), x.ms)
	}
	return x, root
}

type fnMetric struct{ fn, metric string }

// replay runs the design point by point through the layers the
// extraction used: Prepared.Analyze, a bare tainted interpreter run,
// and cluster.Runner.Measure at each point, then extrap.FitAll over the
// pipeline's final requests on one worker. It rebuilds those requests
// the way modelreg's pipeline does and checks that every hybrid model
// evaluates exactly as in the extracted set, so the fit time is the
// pipeline's own work.
func replay(tr *tracer, c *workCase, cfg modelreg.Config, ms *modelreg.ModelSet, l *layers, t *tally) error {
	p := c.prep
	base, err := p.Analyze(appgen.BaseConfig(cfg))
	if err != nil {
		return err
	}
	instrumented := measure.Select(c.spec, measure.FilterTaint, base.Relevant)
	clus := cluster.NewRunner(c.spec)
	data := make(map[fnMetric]*extrap.Dataset)
	add := func(fn, metric string, pv map[string]float64, vals ...float64) {
		k := fnMetric{fn, metric}
		if data[k] == nil {
			data[k] = extrap.NewDataset(ms.Params...)
		}
		data[k].Add(pv, vals...)
	}

	trace := tr.newTrace()
	root := tr.begin(trace, 0, "replay")
	for i, pt := range c.cfgs {
		a := tr.begin(trace, root, "core.analyze")
		rep, err := p.Analyze(pt)
		tr.end(a)
		if err != nil {
			return err
		}
		run := tr.begin(trace, root, "interp.run")
		instr, err := bareRun(p, pt)
		tr.end(run)
		if err != nil {
			return err
		}
		if instr != rep.Instructions {
			return fmt.Errorf("%s point %d: bare run executed %d instructions, Analyze %d", c.name, i, instr, rep.Instructions)
		}
		l.analyze += tr.dur(a)
		l.run += tr.dur(run)
		l.instructions += instr

		iters := modelreg.SumLoopIterations(rep)
		if err := c.checkSample(modelreg.Sample{Index: i, Config: pt, Iterations: iters}, t); err != nil {
			return err
		}
		m := tr.begin(trace, root, "cluster.measure")
		src := noise.New(cfg.Seed+int64(i+1)*1_000_003, cfg.RelNoise, 0)
		prof, err := clus.Measure(pt, instrumented, ms.Reps, src)
		tr.end(m)
		if err != nil {
			return err
		}
		l.measure += tr.dur(m)

		pv := make(map[string]float64, len(ms.Params))
		for _, prm := range ms.Params {
			pv[prm] = pt[prm]
		}
		for fn := range base.Relevant {
			for _, metric := range ms.Metrics {
				switch metric {
				case modelreg.MetricIterations:
					add(fn, metric, pv, float64(iters[fn]))
				case modelreg.MetricSeconds:
					if vals, ok := prof.FuncSeconds[fn]; ok {
						add(fn, metric, pv, vals...)
					}
				}
			}
		}
	}

	funcs := make([]string, 0, len(base.Relevant))
	for fn := range base.Relevant {
		funcs = append(funcs, fn)
	}
	sort.Strings(funcs)
	var reqs []extrap.Request
	var slots []fnMetric
	for _, fn := range funcs {
		for _, metric := range ms.Metrics {
			d := data[fnMetric{fn, metric}]
			if d == nil || len(d.Points) == 0 {
				continue
			}
			slots = append(slots, fnMetric{fn, metric})
			reqs = append(reqs,
				extrap.Request{Name: fn, Dataset: d, Prior: base.Prior(fn, ms.Params)},
				extrap.Request{Name: fn, Dataset: d})
		}
	}
	f := tr.begin(trace, root, "extrap.fit")
	fits := extrap.FitAll(reqs, extrap.DefaultOptions(), 1)
	tr.end(f)
	tr.end(root)
	l.fit += tr.dur(f)
	l.fitRequests += len(reqs)
	for _, fit := range fits {
		if fit.Err != nil {
			l.fitFailed++
		}
	}

	for i, s := range slots {
		mm := ms.Function(s.fn).Metric(s.metric)
		if mm == nil {
			return fmt.Errorf("%s: replayed fit %s/%s missing from the ModelSet", c.name, s.fn, s.metric)
		}
		if !sameFit(fits[2*i], mm.Hybrid) || !sameFit(fits[2*i+1], mm.BlackBox) {
			return fmt.Errorf("%s: replayed fit of %s/%s differs from the ModelSet's", c.name, s.fn, s.metric)
		}
	}
	return nil
}

// sameFit reports whether a replayed fit is the one the ModelSet holds:
// both failed, or the same expression with bit-identical coefficients
// and residuals.
func sameFit(fit extrap.Fit, mf *modelreg.ModelFit) bool {
	if fit.Err != nil || mf == nil {
		return (fit.Err != nil) == (mf == nil)
	}
	m := fit.Model
	if m.String() != mf.Expr || m.Constant != mf.Intercept || m.RSS != mf.RSS || len(m.Terms) != len(mf.Terms) {
		return false
	}
	for i, t := range m.Terms {
		if t.Coeff != mf.Terms[i].Coeff {
			return false
		}
	}
	return true
}

// bareRun is one tainted interpreter run at cfg, set up as the
// BenchmarkTaintedRun recipe in bench_test.go sets it up (the recipe
// behind BENCH_baseline.json's ns/instr rows).
func bareRun(p *core.Prepared, cfg apps.Config) (int64, error) {
	eng := taint.NewEngine()
	mach := interp.NewMachine(p.Module)
	mach.Prog = p.Program
	mach.Fuel = 4_000_000_000
	mach.Taint = eng
	labels := make([]taint.Label, len(p.Spec.Params))
	for j, prm := range p.Spec.Params {
		labels[j] = eng.Table.Base(prm)
	}
	p.DB.Bind(mach, eng, libdb.RunConfig{CommSize: int64(cfg["p"]), Rank: 0})
	res, err := mach.Run("main", apps.TaintArgs(p.Spec, cfg), labels)
	if err != nil {
		return 0, err
	}
	return res.Instructions, nil
}

// predict states whether the issue's prediction held. The replayed
// per-point sums are single-threaded, while the extraction's sweep runs
// on the runner's workers, so the verdict divides them by the worker
// count; extrap.fit_ms runs inside modelreg.finish_ms and is not added
// twice.
func predict(workload string, rep *report, wall float64, workers int) {
	w := float64(workers)
	var literal, share float64
	var claim string
	switch workload {
	case "extract-lulesh":
		claim = "core.aggregate_ms + extrap.fit_ms + modelreg.finish_ms are most of the extraction wall time"
		literal = (rep.value("core.aggregate_ms") + rep.value("extrap.fit_ms") + rep.value("modelreg.finish_ms")) / wall
		share = (rep.value("core.aggregate_ms")/w + rep.value("modelreg.finish_ms")) / wall
	case "extract-milc":
		claim = "interp.run_ms is most of the extraction wall time"
		literal = rep.value("interp.run_ms") / wall
		share = rep.value("interp.run_ms") / w / wall
	default:
		fmt.Println("prediction: none for this workload")
		return
	}
	verdict := "held"
	if share <= 0.5 {
		verdict = "refuted"
	}
	fmt.Printf("prediction (%s): %s; literal sum %.2f of the %.1f ms traced extraction, %.2f with per-point sums spread over %d workers\n",
		claim, verdict, literal, wall, share, workers)
}
