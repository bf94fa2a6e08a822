package modelreg_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
)

// goldenCase is one extraction the ModelSet byte golden pins.
type goldenCase struct {
	name string
	spec *apps.Spec
	cfg  modelreg.Config
	// heavy cases are skipped under -short.
	heavy bool
}

// luleshBenchConfig is the 16-point LULESH design of the end-to-end
// benchmark (examples/modeling/lulesh.json at reps 3), with the app's
// taint defaults merged in the way the daemon merges them.
func luleshBenchConfig(seed int64) modelreg.Config {
	return service.ResolveModelDefaults(service.BundledApps()["lulesh"], modelreg.Config{
		App:      "lulesh",
		Params:   []string{"p", "size"},
		Defaults: apps.Config{"regions": 4, "balance": 2, "cost": 1, "iters": 2},
		Axes: []modelreg.Axis{
			{Param: "p", Values: []float64{2, 4, 8, 16}},
			{Param: "size", Values: []float64{4, 5, 6, 7}},
		},
		Reps:     3,
		Seed:     seed,
		RelNoise: 0.02,
		Batch:    5,
		Metrics:  []string{modelreg.MetricSeconds, modelreg.MetricIterations},
	})
}

// milcBenchConfig is the 12-point MILC design of the end-to-end
// benchmark.
func milcBenchConfig(seed int64) modelreg.Config {
	return service.ResolveModelDefaults(service.BundledApps()["milc"], modelreg.Config{
		App:    "milc",
		Params: []string{"p", "size"},
		Axes: []modelreg.Axis{
			{Param: "p", Values: []float64{4, 8, 16, 32}},
			{Param: "size", Values: []float64{32, 64, 128}},
		},
		Reps:     3,
		Seed:     seed,
		RelNoise: 0.02,
		Batch:    5,
		Metrics:  []string{modelreg.MetricSeconds, modelreg.MetricIterations},
	})
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	cases := []goldenCase{
		{name: "lulesh/seed1", spec: apps.LULESH(), cfg: luleshBenchConfig(1)},
		{name: "lulesh/seed2", spec: apps.LULESH(), cfg: luleshBenchConfig(2)},
		{name: "milc/seed1", spec: apps.MILC(), cfg: milcBenchConfig(1), heavy: true},
	}
	for _, arch := range appgen.Archetypes() {
		for _, seed := range appgen.DefaultCorpusSeeds() {
			gen, err := appgen.Generate(arch, seed)
			if err != nil {
				t.Fatalf("Generate(%s, %d): %v", arch, seed, err)
			}
			cases = append(cases, goldenCase{
				name:  "corpus/" + gen.Spec.Name,
				spec:  gen.Spec,
				cfg:   gen.Design,
				heavy: true,
			})
		}
	}
	return cases
}

// pinned is one golden entry: the registry key and the sha256 of the
// ModelSet's JSON encoding.
type pinned struct {
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
}

const bytesGolden = "testdata/modelset_sha256.json"

// TestGoldenModelSetBytes pins the exact bytes of the extracted model
// sets: the registry key and the sha256 of json.Marshal(ModelSet) for
// the benchmark's LULESH and MILC designs and every corpus app. Unlike
// the rendered report golden (numbers at %.4g), this catches a drift in
// the last bit of any fitted coefficient or score. Re-bless with
// `go test ./internal/modelreg -run Golden -update` only after an
// intentional change to the fitted models.
func TestGoldenModelSetBytes(t *testing.T) {
	want := make(map[string]pinned)
	if !*modelreg.Update {
		raw, err := os.ReadFile(bytesGolden)
		if err != nil {
			t.Fatalf("%v — run `go test ./internal/modelreg -run Golden -update` to create it", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]pinned)
	for _, c := range goldenCases(t) {
		if c.heavy && testing.Short() && !*modelreg.Update {
			continue
		}
		prep, err := core.Prepare(c.spec)
		if err != nil {
			t.Fatalf("%s: prepare: %v", c.name, err)
		}
		ms, err := modelreg.Extract(context.Background(), runner.New(), prep, c.cfg, nil)
		if err != nil {
			t.Fatalf("%s: extract: %v", c.name, err)
		}
		p := pin(t, ms)
		got[c.name] = p
		if *modelreg.Update {
			continue
		}
		w, ok := want[c.name]
		switch {
		case !ok:
			t.Errorf("%s: not in %s", c.name, bytesGolden)
		case p != w:
			t.Errorf("%s: model set drifted\n  want key %s sha256 %s\n  got  key %s sha256 %s",
				c.name, w.Key, w.SHA256, p.Key, p.SHA256)
		}
	}
	if *modelreg.Update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bytesGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-blessed %s with %d entries", bytesGolden, len(got))
	}
}

// pin returns the golden entry of one model set.
func pin(t *testing.T, ms *modelreg.ModelSet) pinned {
	t.Helper()
	raw, err := json.Marshal(ms)
	if err != nil {
		t.Fatalf("marshal model set: %v", err)
	}
	sum := sha256.Sum256(raw)
	return pinned{Key: ms.Key, SHA256: hex.EncodeToString(sum[:])}
}
