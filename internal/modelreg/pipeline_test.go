package modelreg

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/runner"
)

// testConfig is a small LULESH design that exercises both metrics and
// several interim refits while staying fast.
func testConfig() Config {
	return Config{
		App:      "lulesh",
		Params:   []string{"p", "size"},
		Defaults: apps.Config{"size": 4, "p": 2, "regions": 4, "balance": 2, "cost": 1, "iters": 2},
		Axes: []Axis{
			{Param: "p", Values: []float64{2, 4, 8}},
			{Param: "size", Values: []float64{4, 5, 6}},
		},
		Reps:  3,
		Seed:  7,
		Batch: 4,
	}
}

func prepareLULESH(t *testing.T) *core.Prepared {
	t.Helper()
	p, err := core.Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExtractEndToEnd(t *testing.T) {
	prep := prepareLULESH(t)
	var mu sync.Mutex
	var events []Event
	ms, err := Extract(context.Background(), runner.New(), prep, testConfig(),
		func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}

	if ms.Points != 9 {
		t.Fatalf("consumed %d points, want 9", ms.Points)
	}
	if ms.Key == "" || ms.SpecDigest != prep.Digest {
		t.Fatalf("bad addressing: key=%q specDigest=%q", ms.Key, ms.SpecDigest)
	}
	if got, want := ms.Key, Key(prep.Digest, testConfig()); got != want {
		t.Fatalf("key mismatch: %s != %s", got, want)
	}

	// The paper's headline functions must be modeled.
	for _, fn := range []string{"CalcQForElems", "CommSBN", "main"} {
		f := ms.Function(fn)
		if f == nil {
			t.Fatalf("function %s missing from model set", fn)
		}
		mm := f.Metric(MetricSeconds)
		if mm == nil || mm.Hybrid == nil {
			t.Fatalf("function %s has no hybrid seconds model: %+v", fn, f)
		}
		// The hybrid model may only use taint-proven parameters.
		deps := make(map[string]bool)
		for _, d := range f.Deps {
			deps[d] = true
		}
		for _, p := range mm.Hybrid.Params {
			if !deps[p] {
				t.Errorf("%s hybrid model uses %q outside taint deps %v", fn, p, f.Deps)
			}
		}
	}

	// CalcQForElems is the B2 case study: the clean model must couple p
	// and size multiplicatively.
	q := ms.Function("CalcQForElems").Metric(MetricSeconds)
	if !q.Hybrid.Multiplicative {
		t.Errorf("CalcQForElems hybrid model not multiplicative: %s", q.Hybrid.Expr)
	}

	// Ranks are 1..n in order.
	for i, fn := range ms.Functions {
		if fn.Rank != i+1 {
			t.Fatalf("rank disorder at %d: %+v", i, fn)
		}
	}

	// Event stream: one taint event, 9 in-order point events, interim
	// refits at batch boundaries 4 and 8 (not at 9, the final point).
	var points, refits, taints int
	lastPoints := 0
	for _, ev := range events {
		switch ev.Type {
		case "taint":
			taints++
		case "point":
			points++
			if ev.Points != lastPoints+1 {
				t.Fatalf("point events out of order: %+v", ev)
			}
			lastPoints = ev.Points
		case "refit":
			refits++
			if ev.Points%4 != 0 {
				t.Fatalf("refit off the batch cadence: %+v", ev)
			}
			if ev.Fitted == 0 {
				t.Fatalf("refit fit nothing: %+v", ev)
			}
		}
	}
	if taints != 1 || points != 9 || refits != 2 {
		t.Fatalf("event counts taint=%d point=%d refit=%d, want 1/9/2", taints, points, refits)
	}

	// The taint prior must have pruned at least one noise- or
	// hardware-induced black-box dependence (the B1/C1 story).
	if ms.PrunedCount() == 0 {
		t.Error("no pruned-noise attributions; the hybrid/black-box comparison is vacuous")
	}

	// The artifact must be JSON-stable (no Inf/NaN anywhere).
	if _, err := json.Marshal(ms); err != nil {
		t.Fatalf("model set does not marshal: %v", err)
	}
}

// TestExtractDeterministic pins the per-index noise seeding: a serial
// sweep and a maximally parallel one must produce identical model sets.
func TestExtractDeterministic(t *testing.T) {
	prep := prepareLULESH(t)
	serial, err := Extract(context.Background(), &runner.Runner{Workers: 1}, prep, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Extract(context.Background(), &runner.Runner{Workers: 8}, prep, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("worker count changed the extracted model set")
	}
}

func TestPipelineAbortsOnAnalysisError(t *testing.T) {
	prep := prepareLULESH(t)
	pl, err := NewPipeline(prep, testConfig(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A point without the implicit parameter p fails its tainted run.
	sweep := LocalSweep(&runner.Runner{Workers: 2}, prep)
	bad := []apps.Config{pl.Configs()[0], {"size": 10, "iters": 2}}
	err = sweep(context.Background(), bad, func(Sample) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "design point 1") {
		t.Fatalf("LocalSweep swallowed a design-point failure: %v", err)
	}
	if err := sweep(context.Background(), bad[1:], pl.ConsumeSample); err == nil {
		t.Fatal("the pipeline consumed a failed design point")
	}
	if _, err := pl.Finish(); err == nil {
		t.Fatal("Finish succeeded with zero consumed points")
	}
}

func TestConfigValidate(t *testing.T) {
	spec := apps.LULESH()
	base := testConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no axes", func(c *Config) { c.Axes = nil }},
		{"unknown axis", func(c *Config) { c.Axes[0].Param = "typo" }},
		{"unswept model param", func(c *Config) { c.Params = []string{"p", "regions"} }},
		{"repeated axis", func(c *Config) { c.Axes = append(c.Axes, c.Axes[0]) }},
		{"unknown metric", func(c *Config) { c.Metrics = []string{"flops"} }},
		{"unknown default", func(c *Config) { c.Defaults["typo"] = 1 }},
		{"p below 1", func(c *Config) { c.Axes[0].Values = []float64{0}; c.Defaults["p"] = 0 }},
		{"missing spec param", func(c *Config) { delete(c.Defaults, "iters") }},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Defaults = base.Defaults.Clone()
		cfg.Axes = append([]Axis(nil), base.Axes...)
		tc.mutate(&cfg)
		if err := cfg.withDefaults().Validate(spec); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	if err := base.withDefaults().Validate(spec); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	// Empty Params is valid everywhere: it defaults to the axis
	// parameters in axis order (the same rule on CLI, daemon, library).
	noParams := base
	noParams.Params = nil
	if err := noParams.Validate(spec); err != nil {
		t.Fatalf("empty params rejected before defaulting: %v", err)
	}
	filled := noParams.withDefaults()
	if err := filled.Validate(spec); err != nil {
		t.Fatalf("axis-params default rejected: %v", err)
	}
	if !reflect.DeepEqual(filled.Params, []string{"p", "size"}) {
		t.Fatalf("params defaulted to %v, want axis order [p size]", filled.Params)
	}
}

func TestDigestStability(t *testing.T) {
	a := testConfig()
	b := testConfig()
	// Rebuild the defaults map in a different insertion order.
	b.Defaults = apps.Config{}
	for _, k := range []string{"iters", "cost", "balance", "regions", "p", "size"} {
		b.Defaults[k] = a.Defaults[k]
	}
	if DesignDigest(a) != DesignDigest(b) {
		t.Fatal("design digest depends on map construction order")
	}
	// Zero-valued optional fields digest like their defaults.
	c := testConfig()
	c.Reps = 0
	d := testConfig()
	d.Reps = 5
	if DesignDigest(c) != DesignDigest(d) {
		t.Fatal("withDefaults not applied before digesting")
	}
	// Batch shapes progress events only, never the final model set, so
	// it must NOT move the digest — else identical models would miss
	// the registry.
	e := testConfig()
	e.Batch = 100
	if DesignDigest(e) != DesignDigest(a) {
		t.Fatal("refit cadence leaked into the design digest")
	}
	// Any semantic change moves the digest.
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Axes[0].Values = []float64{2, 4} },
		func(c *Config) { c.Seed = 99 },
		func(c *Config) { c.Reps = 7 },
		func(c *Config) { c.Metrics = []string{MetricSeconds} },
		func(c *Config) { c.Defaults["cost"] = 3 },
	} {
		m := testConfig()
		m.Defaults = a.Defaults.Clone()
		m.Axes = []Axis{{Param: "p", Values: append([]float64(nil), a.Axes[0].Values...)},
			{Param: "size", Values: append([]float64(nil), a.Axes[1].Values...)}}
		mutate(&m)
		if DesignDigest(m) == DesignDigest(a) {
			t.Errorf("mutation %d did not move the design digest", i)
		}
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry(2)
	builds := 0
	build := func(key string) func() (*ModelSet, error) {
		return func() (*ModelSet, error) {
			builds++
			return &ModelSet{Key: key}, nil
		}
	}
	ms1, cached, err := reg.Get("k1", build("k1"))
	if err != nil || cached || ms1.Key != "k1" {
		t.Fatalf("first get: ms=%+v cached=%v err=%v", ms1, cached, err)
	}
	ms2, cached, err := reg.Get("k1", build("k1"))
	if err != nil || !cached || ms2 != ms1 {
		t.Fatalf("second get not a cache hit: cached=%v same=%v err=%v", cached, ms2 == ms1, err)
	}
	if builds != 1 {
		t.Fatalf("built %d times, want 1", builds)
	}

	// Errors are not cached.
	if _, _, err := reg.Get("bad", func() (*ModelSet, error) { return nil, errors.New("boom") }); err == nil {
		t.Fatal("error swallowed")
	}
	if _, ok := reg.Lookup("bad"); ok {
		t.Fatal("failed build cached")
	}

	// LRU eviction: k1 is most recent after the hit; filling two more
	// keys evicts the older ones.
	reg.Get("k2", build("k2"))
	reg.Get("k3", build("k3"))
	if _, ok := reg.Lookup("k1"); ok {
		t.Fatal("k1 survived past capacity")
	}
	if _, ok := reg.Lookup("k3"); !ok {
		t.Fatal("k3 missing")
	}
	// Misses count attempted builds, including the failed one.
	st := reg.Stats()
	if st.Misses != 4 || st.Hits != 1 || st.Evictions < 1 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRegistrySingleflight pins the dedup: concurrent gets of one key
// share a single build.
func TestRegistrySingleflight(t *testing.T) {
	reg := NewRegistry(4)
	var mu sync.Mutex
	builds := 0
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]*ModelSet, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms, _, err := reg.Get("shared", func() (*ModelSet, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				<-gate
				return &ModelSet{Key: "shared"}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = ms
		}(i)
	}
	close(gate)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("%d builds, want 1", builds)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("joiners got distinct model sets")
		}
	}
}

// TestGoldenReport pins the rendered Markdown report for the
// examples/modeling design. Re-bless with
// `go test ./internal/modelreg -run Golden -update` after an
// intentional change to the pipeline or the renderer.
var updateFlag = flag.Bool("update", false, "re-bless golden files")

func TestGoldenReport(t *testing.T) {
	raw, err := os.ReadFile("../../examples/modeling/lulesh.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	// Overlay the design defaults on the app taint configuration exactly
	// like service.ResolveModelDefaults (not importable here — service
	// depends on modelreg), so this golden pins the same digest every
	// surface computes.
	merged := apps.LULESHTaintConfig()
	for k, v := range cfg.Defaults {
		merged[k] = v
	}
	cfg.Defaults = merged
	prep := prepareLULESH(t)
	ms, err := Extract(context.Background(), runner.New(), prep, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := RenderMarkdown(ms)

	const golden = "testdata/lulesh_report.golden.md"
	if *updateFlag {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-blessed %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v — run `go test ./internal/modelreg -run Golden -update` to create it", err)
	}
	if string(want) != got {
		t.Fatalf("report drifted from %s.\nRe-bless with `go test ./internal/modelreg -run Golden -update` "+
			"after verifying the change is intentional.\nFirst divergence: %s",
			golden, firstDiff(string(want), got))
	}

	// The HTML rendering must at least carry the same ranked functions.
	html := RenderHTML(ms)
	for _, fn := range ms.Functions[:3] {
		if !strings.Contains(html, fn.Function) {
			t.Errorf("HTML report missing %s", fn.Function)
		}
	}
}

func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length: want %d lines, got %d", len(wl), len(gl))
}
