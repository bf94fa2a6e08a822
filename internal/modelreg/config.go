package modelreg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strconv"

	"repro/internal/apps"
	"repro/internal/runner"
)

// Metric names a per-function quantity the pipeline models over the
// design. Every metric yields one dataset (and so one fitted model pair)
// per function.
const (
	// MetricSeconds is the synthetic instrumented run time per function:
	// exclusive compute under contention plus direct communication plus
	// instrumentation intrusion, measured under the taint filter with
	// seeded noise (the quantity the paper's evaluation fits).
	MetricSeconds = "seconds"
	// MetricIterations is the per-function dynamic loop iteration count
	// summed over calling contexts, taken from the tainted interpreter
	// run at each design point — the empirical counterpart of the
	// symbolic volume g(p1..pn).
	MetricIterations = "iterations"
)

// Axis is one swept parameter of a modeling design: the wire form of
// runner.Axis.
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// Config declares one model-extraction run: the design to sweep, the
// parameters to model over, and the fitting cadence. The zero values of
// the optional fields are filled by withDefaults; Validate rejects
// designs the pipeline cannot fit. Config round-trips through JSON — it
// is the body of the CLI's -config file and part of the service's
// POST /v1/models request.
type Config struct {
	// App names the registered application (CLI and service surface);
	// the pipeline itself works off a core.Prepared and ignores it
	// except as report metadata.
	App string `json:"app,omitempty"`
	// Params are the parameters models are expressed in (e.g. p, size).
	// Every entry must be swept by an axis.
	Params []string `json:"params"`
	// Defaults pins the non-swept spec parameters during the sweep.
	Defaults apps.Config `json:"defaults,omitempty"`
	// Axes span the full-factorial design, last axis varying fastest.
	Axes []Axis `json:"axes"`
	// Reps is the number of repeated measurements per design point
	// (default 5, the paper's choice).
	Reps int `json:"reps,omitempty"`
	// Seed feeds the deterministic measurement noise; each design point
	// derives its own stream from Seed and its index, so concurrent and
	// sequential sweeps measure identical values (default 1).
	Seed int64 `json:"seed,omitempty"`
	// RelNoise is the relative measurement noise level (default 0.02).
	RelNoise float64 `json:"rel_noise,omitempty"`
	// Batch is the incremental refit cadence of an observed (streamed)
	// extraction: with an observer, the pipeline refits after every
	// Batch completed design points and reports each refit as an event
	// (default 5; 0 keeps the default, negative disables interim
	// refits). Without an observer no interim refit runs; the final
	// model set never depends on Batch.
	Batch int `json:"batch,omitempty"`
	// Metrics selects the modeled quantities (default: seconds and
	// iterations). The first metric ranks the report.
	Metrics []string `json:"metrics,omitempty"`
}

// withDefaults fills the optional fields. An empty Params defaults to
// the axis parameters in axis order, so every surface (CLI, daemon,
// library) accepts the same minimal config.
func (c Config) withDefaults() Config {
	if len(c.Params) == 0 {
		for _, ax := range c.Axes {
			c.Params = append(c.Params, ax.Param)
		}
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RelNoise == 0 {
		c.RelNoise = 0.02
	}
	if c.Batch == 0 {
		c.Batch = 5
	}
	if len(c.Metrics) == 0 {
		c.Metrics = []string{MetricSeconds, MetricIterations}
	}
	return c
}

// Validate checks the design, with the optional fields defaulted as
// the pipeline defaults them, against spec: every axis and model
// parameter must be a spec parameter (or the implicit p), model
// parameters must be swept, axes must not repeat, and the expanded grid
// must provide every spec parameter with p >= 1.
func (c Config) Validate(spec *apps.Spec) error {
	c = c.withDefaults()
	if len(c.Axes) == 0 {
		return fmt.Errorf("modelreg: design has no axes")
	}
	known := func(name string) bool {
		if name == "p" {
			return true
		}
		for _, prm := range spec.Params {
			if prm == name {
				return true
			}
		}
		return false
	}
	axis := make(map[string]bool, len(c.Axes))
	for _, ax := range c.Axes {
		if len(ax.Values) == 0 {
			return fmt.Errorf("modelreg: axis %q has no values", ax.Param)
		}
		if axis[ax.Param] {
			return fmt.Errorf("modelreg: axis %q repeated", ax.Param)
		}
		if !known(ax.Param) {
			return fmt.Errorf("modelreg: axis %q is not a parameter of %s (spec has %v plus the implicit p)",
				ax.Param, spec.Name, spec.Params)
		}
		axis[ax.Param] = true
	}
	for _, prm := range c.Params {
		if !axis[prm] {
			return fmt.Errorf("modelreg: model parameter %q is not swept by any axis", prm)
		}
	}
	for name := range c.Defaults {
		if !known(name) {
			return fmt.Errorf("modelreg: default %q is not a parameter of %s", name, spec.Name)
		}
	}
	for _, m := range c.Metrics {
		if m != MetricSeconds && m != MetricIterations {
			return fmt.Errorf("modelreg: unknown metric %q (want %q or %q)", m, MetricSeconds, MetricIterations)
		}
	}
	// The smallest design point doubles as the taint-run configuration,
	// so the whole grid must be analyzable.
	base := c.baseConfig()
	if base["p"] < 1 {
		return fmt.Errorf("modelreg: design requires the implicit MPI parameter p >= 1")
	}
	for _, prm := range spec.Params {
		if _, ok := base[prm]; !ok {
			return fmt.Errorf("modelreg: design missing spec parameter %q (add a default or an axis)", prm)
		}
	}
	return nil
}

// Size returns the number of design points the config expands to.
func (c Config) Size() int {
	if len(c.Axes) == 0 {
		return 0
	}
	n := 1
	for _, ax := range c.Axes {
		n *= len(ax.Values)
	}
	return n
}

// design expands the config into the runner's full-factorial form.
func (c Config) design(spec *apps.Spec) runner.Design {
	d := runner.Design{Spec: spec, Defaults: c.Defaults}
	for _, ax := range c.Axes {
		d.Axes = append(d.Axes, runner.Axis{Param: ax.Param, Values: ax.Values})
	}
	return d
}

// baseConfig is the smallest design point: defaults overlaid with each
// axis at its minimum value. It doubles as the taint-run configuration —
// cheap to execute and guaranteed to be a member of the design family.
func (c Config) baseConfig() apps.Config {
	cfg := c.Defaults.Clone()
	if cfg == nil {
		cfg = make(apps.Config)
	}
	for _, ax := range c.Axes {
		min := ax.Values[0]
		for _, v := range ax.Values[1:] {
			if v < min {
				min = v
			}
		}
		cfg[ax.Param] = min
	}
	return cfg
}

// largestConfig is the biggest design point (each axis at its maximum),
// the configuration report ranking evaluates models at.
func (c Config) largestConfig() apps.Config {
	cfg := c.Defaults.Clone()
	if cfg == nil {
		cfg = make(apps.Config)
	}
	for _, ax := range c.Axes {
		max := ax.Values[0]
		for _, v := range ax.Values[1:] {
			if v > max {
				max = v
			}
		}
		cfg[ax.Param] = max
	}
	return cfg
}

// designDigestVersion salts every design digest; bump it when the
// pipeline's fitting semantics change so stale cached model sets are
// never served for new behaviour.
const designDigestVersion = "perftaint-modelset-v2"

// DesignDigest returns the canonical content address of the modeling
// design: a hex SHA-256 over every field that influences the fitted
// models (axes in sweep order, defaults, repetitions, seed, noise,
// metrics, model parameters). Batch is deliberately excluded — the
// refit cadence shapes progress events, never the final model set, so
// two configs differing only in Batch share one registry entry. Two
// configs that expand to the same design hash identically regardless of
// map iteration order.
func DesignDigest(c Config) string {
	c = c.withDefaults()
	h := sha256.New()
	w := digestWriter{h: h}
	w.str(designDigestVersion)
	w.str(c.App)
	w.strs(c.Params)
	keys := make([]string, 0, len(c.Defaults))
	for k := range c.Defaults {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.num(len(keys))
	for _, k := range keys {
		w.str(k)
		w.f64(c.Defaults[k])
	}
	w.num(len(c.Axes))
	for _, ax := range c.Axes {
		w.str(ax.Param)
		w.num(len(ax.Values))
		for _, v := range ax.Values {
			w.f64(v)
		}
	}
	w.num(c.Reps)
	w.num(int(c.Seed))
	w.f64(c.RelNoise)
	w.strs(c.Metrics)
	return hex.EncodeToString(h.Sum(nil))
}

// Key combines a spec's content digest with a design digest into the
// registry key: equal keys mean the sweep and fit would reproduce the
// exact same model set, which is what makes the registry safe to share
// across tenants.
func Key(specDigest string, c Config) string {
	h := sha256.New()
	w := digestWriter{h: h}
	w.str(designDigestVersion)
	w.str(specDigest)
	w.str(DesignDigest(c))
	return hex.EncodeToString(h.Sum(nil))
}

// digestWriter streams a self-delimiting canonical encoding into a hash
// (the same framing discipline as core.SpecDigest).
type digestWriter struct{ h hash.Hash }

func (w digestWriter) str(s string) { fmt.Fprintf(w.h, "s%d:%s;", len(s), s) }
func (w digestWriter) num(n int)    { fmt.Fprintf(w.h, "n%d;", n) }
func (w digestWriter) f64(v float64) {
	fmt.Fprintf(w.h, "f%s;", strconv.FormatFloat(v, 'g', -1, 64))
}
func (w digestWriter) strs(ss []string) {
	w.num(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}
