package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
)

// observeMatches requires Observe and Analyze at cfg to agree on every
// field a model extraction reads: the instruction count and the
// per-function loop-iteration sums.
func observeMatches(t *testing.T, p *Prepared, cfg apps.Config) {
	t.Helper()
	obs, err := p.Observe(cfg)
	if err != nil {
		t.Fatalf("%s %v: Observe: %v", p.Spec.Name, cfg, err)
	}
	rep, err := p.Analyze(cfg)
	if err != nil {
		t.Fatalf("%s %v: Analyze: %v", p.Spec.Name, cfg, err)
	}
	if obs.Instructions != rep.Instructions {
		t.Errorf("%s %v: Observe ran %d instructions, Analyze %d", p.Spec.Name, cfg, obs.Instructions, rep.Instructions)
	}
	if want := rep.Engine.FuncLoopIterations(); !reflect.DeepEqual(obs.Iterations, want) {
		t.Errorf("%s %v: Observe iterations %v, Analyze %v", p.Spec.Name, cfg, obs.Iterations, want)
	}
}

func TestObserveMatchesAnalyze(t *testing.T) {
	lulesh, err := Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{1, 2, 8} {
		cfg := apps.LULESHDefaults()
		cfg["p"] = p
		observeMatches(t, lulesh, cfg)
	}
	milc, err := Prepare(apps.MILC())
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.MILCDefaults()
	cfg["p"] = 4
	observeMatches(t, milc, cfg)
}

// TestObserveErrorsMatchAnalyze requires the lean and the full path to
// fail the same way: a config without the implicit p, and a run that
// exhausts its fuel.
func TestObserveErrorsMatchAnalyze(t *testing.T) {
	p, err := Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	noP := apps.LULESHDefaults()
	delete(noP, "p")
	starved := PrepareModule(p.Spec, p.Module, p.DB)
	starved.fuel = 1000
	withP := apps.LULESHDefaults()
	withP["p"] = 2
	for _, c := range []struct {
		name string
		p    *Prepared
		cfg  apps.Config
		is   error
	}{
		{"missing p", p, noP, nil},
		{"fuel", starved, withP, interp.ErrFuel},
	} {
		_, oerr := c.p.Observe(c.cfg)
		_, aerr := c.p.Analyze(c.cfg)
		if oerr == nil || aerr == nil {
			t.Fatalf("%s: Observe err %v, Analyze err %v; want both to fail", c.name, oerr, aerr)
		}
		if oerr.Error() != aerr.Error() {
			t.Errorf("%s: Observe error %q, Analyze error %q", c.name, oerr, aerr)
		}
		if c.is != nil && (!errors.Is(oerr, c.is) || !errors.Is(aerr, c.is)) {
			t.Errorf("%s: errors %v / %v do not wrap %v", c.name, oerr, aerr, c.is)
		}
	}
}
