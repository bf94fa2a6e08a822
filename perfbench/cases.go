package main

import (
	"bytes"
	"fmt"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
)

// workCase is one application and modeling design a workload extracts:
// the spec, the resolved config (app defaults merged exactly as the
// daemon merges them), and the inputs the output checks compare with.
type workCase struct {
	// name is the app name the daemon serves the spec under.
	name string
	app  service.App
	spec *apps.Spec
	// cfg is resolved by service.ResolveModelDefaults and names its model
	// parameters explicitly (see README.md on POST /v1/models).
	cfg  modelreg.Config
	cfgs []apps.Config
	// expected holds appgen.IterationTotals at every design point.
	expected []map[string]int64
	// gen is the generated app of a corpus case, scored after extraction.
	gen *appgen.App
	// prep is the in-process prepared spec.
	prep *core.Prepared
}

// luleshCase is the 16-point design of examples/modeling/lulesh.json.
func luleshCase() (*workCase, error) {
	return bundledCase("lulesh", modelreg.Config{
		App:      "lulesh",
		Params:   []string{"p", "size"},
		Defaults: apps.Config{"regions": 4, "balance": 2, "cost": 1, "iters": 2},
		Axes: []modelreg.Axis{
			{Param: "p", Values: []float64{2, 4, 8, 16}},
			{Param: "size", Values: []float64{4, 5, 6, 7}},
		},
		Reps:     3,
		RelNoise: 0.02,
		Batch:    5,
		Metrics:  []string{modelreg.MetricSeconds, modelreg.MetricIterations},
	})
}

// milcCase sweeps MILC over p {4..32} x size {32..128} at its taint-run
// defaults; the largest point runs about 67M tainted instructions.
func milcCase() (*workCase, error) {
	return bundledCase("milc", modelreg.Config{
		App:    "milc",
		Params: []string{"p", "size"},
		Axes: []modelreg.Axis{
			{Param: "p", Values: []float64{4, 8, 16, 32}},
			{Param: "size", Values: []float64{32, 64, 128}},
		},
		Reps:     3,
		RelNoise: 0.02,
		Batch:    5,
		Metrics:  []string{modelreg.MetricSeconds, modelreg.MetricIterations},
	})
}

func bundledCase(name string, cfg modelreg.Config) (*workCase, error) {
	app := service.BundledApps()[name]
	return newCase(name, app, service.ResolveModelDefaults(app, cfg), nil)
}

// corpusCases are the 25 appgen corpus apps, each registered with the
// daemon under its spec name with its design's defaults as the app
// defaults.
func corpusCases() ([]*workCase, error) {
	var out []*workCase
	for _, arch := range appgen.Archetypes() {
		for _, seed := range appgen.DefaultCorpusSeeds() {
			gen, err := appgen.Generate(arch, seed)
			if err != nil {
				return nil, err
			}
			defaults := gen.Design.Defaults.Clone()
			app := service.App{
				New:         func() *apps.Spec { return gen.Spec },
				TaintConfig: func() apps.Config { return defaults.Clone() },
			}
			c, err := newCase(gen.Spec.Name, app, service.ResolveModelDefaults(app, gen.Design), gen)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}

func newCase(name string, app service.App, cfg modelreg.Config, gen *appgen.App) (*workCase, error) {
	spec := app.New()
	if err := cfg.Validate(spec); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c := &workCase{name: name, app: app, spec: spec, cfg: cfg, gen: gen}
	c.cfgs = designConfigs(spec, cfg)
	for _, pt := range c.cfgs {
		c.expected = append(c.expected, appgen.IterationTotals(spec, pt))
	}
	return c, nil
}

// designConfigs expands the design in modelreg's sweep order.
func designConfigs(spec *apps.Spec, cfg modelreg.Config) []apps.Config {
	d := runner.Design{Spec: spec, Defaults: cfg.Defaults}
	for _, ax := range cfg.Axes {
		d.Axes = append(d.Axes, runner.Axis{Param: ax.Param, Values: ax.Values})
	}
	return d.Configs()
}

// withSeed returns the case's config with the given noise seed.
func (c *workCase) withSeed(seed int64) modelreg.Config {
	cfg := c.cfg
	cfg.Seed = seed
	return cfg
}

// checkSample compares one design point's per-function loop iterations
// with appgen.IterationTotals. A mismatch fails unless a recorded
// discrepancy explains it exactly.
func (c *workCase) checkSample(s modelreg.Sample, t *tally) error {
	if s.Index < 0 || s.Index >= len(c.expected) {
		return fmt.Errorf("%s: sample index %d outside the %d-point design", c.name, s.Index, len(c.expected))
	}
	want := c.expected[s.Index]
	var errs []error
	seen := func(fn string) {
		got, exp := s.Iterations[fn], want[fn]
		if got == exp {
			return
		}
		if d := explain(c.name, fn, s.Config, got, exp); d != nil {
			if t.discrepancies == nil {
				t.discrepancies = make(map[string]int)
			}
			t.discrepancies[d.id()]++
			return
		}
		errs = append(errs, fmt.Errorf("%s point %d %v: %s ran %d loop iterations, IterationTotals gives %d",
			c.name, s.Index, s.Config, fn, got, exp))
	}
	for fn := range want {
		seen(fn)
	}
	for fn := range s.Iterations {
		if _, ok := want[fn]; !ok {
			seen(fn)
		}
	}
	if len(errs) > 0 {
		return errorsJoin(errs)
	}
	return nil
}

// discrepancy is a known, recorded disagreement between the tainted run
// and appgen.IterationTotals. It is reported on every run; any mismatch
// it does not explain exactly fails the run. Which side is at fault is
// an open question, so the check neither drops the function nor avoids
// the design points where it shows.
type discrepancy struct {
	app, fn string
	// minP is the smallest p at which the disagreement shows.
	minP float64
	// analytic and observed are the per-call iteration counts as p plus
	// a constant: IterationTotals gives p+analytic, the run p+observed.
	analytic, observed int64
	note               string
}

func (d *discrepancy) id() string { return d.app + "/" + d.fn }

var knownDiscrepancies = []discrepancy{{
	app: "milc", fn: "g_gather_field", minP: 8, analytic: 6, observed: 4,
	note: "on the p >= 8 tree branch the constant-6 loop is observed as 4 iterations per call " +
		"(12 vs 14 at p=8, 20 vs 22 at p=16)",
}}

// explain returns the discrepancy that accounts for got != want exactly,
// or nil.
func explain(app, fn string, cfg apps.Config, got, want int64) *discrepancy {
	for i := range knownDiscrepancies {
		d := &knownDiscrepancies[i]
		p := cfg["p"]
		if d.app != app || d.fn != fn || p < d.minP {
			continue
		}
		pi := int64(p)
		if want%(pi+d.analytic) != 0 {
			continue
		}
		if calls := want / (pi + d.analytic); calls > 0 && got == calls*(pi+d.observed) {
			return d
		}
	}
	return nil
}

func printDiscrepancies(t *tally) {
	for i := range knownDiscrepancies {
		d := &knownDiscrepancies[i]
		fmt.Printf("known discrepancy %s: %s; explained %d design points in this run\n",
			d.id(), d.note, t.discrepancies[d.id()])
	}
}

// artifact is an extraction's registry key and ModelSet bytes.
type artifact struct {
	key  string
	body []byte
}

// identity remembers the first artifact per case and seed, and checks
// that every repeat of the seed reproduces its key and bytes.
type identity map[string]artifact

func (id identity) check(c *workCase, seed int64, a artifact) error {
	k := fmt.Sprintf("%s/%d", c.name, seed)
	first, ok := id[k]
	if !ok {
		id[k] = a
		return nil
	}
	if first.key != a.key {
		return fmt.Errorf("%s seed %d: registry key %s, earlier %s", c.name, seed, a.key, first.key)
	}
	if !bytes.Equal(first.body, a.body) {
		return fmt.Errorf("%s seed %d: ModelSet JSON differs from the earlier extraction (%d vs %d bytes)",
			c.name, seed, len(a.body), len(first.body))
	}
	return nil
}

// scoreCorpus checks that a corpus app's model set recovers every
// analytic dependency and no other.
func (c *workCase) scoreCorpus(ms *modelreg.ModelSet) error {
	if c.gen == nil {
		return nil
	}
	sc, err := appgen.ScoreModelSet(c.gen, ms)
	if err != nil {
		return fmt.Errorf("%s: score: %w", c.name, err)
	}
	if sc.Precision != 1 || sc.Recall != 1 {
		return fmt.Errorf("%s: dependency precision %.3f recall %.3f, want 1 and 1", c.name, sc.Precision, sc.Recall)
	}
	return nil
}
