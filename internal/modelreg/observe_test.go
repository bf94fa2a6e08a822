package modelreg_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
)

// TestObserveMatchesAnalyzeOnDesigns is the differential gate of the lean
// extraction path: at every design point (and the taint point) of the
// benchmark's LULESH and MILC designs and of every corpus app,
// core.Prepared.Observe must report the instruction count and the
// per-function loop-iteration sums of the full Analyze report.
func TestObserveMatchesAnalyzeOnDesigns(t *testing.T) {
	for _, c := range goldenCases(t) {
		if c.heavy && testing.Short() {
			continue
		}
		prep, err := core.Prepare(c.spec)
		if err != nil {
			t.Fatalf("%s: prepare: %v", c.name, err)
		}
		pl, err := modelreg.NewPipeline(prep, c.cfg, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cfgs := pl.Configs()
		errs := make([]string, len(cfgs))
		runner.Map(0, len(cfgs), func(i int) {
			obs, err := prep.Observe(cfgs[i])
			if err != nil {
				errs[i] = "Observe: " + err.Error()
				return
			}
			rep, err := prep.Analyze(cfgs[i])
			if err != nil {
				errs[i] = "Analyze: " + err.Error()
				return
			}
			switch {
			case obs.Instructions != rep.Instructions:
				errs[i] = "instruction counts differ"
			case !reflect.DeepEqual(obs.Iterations, modelreg.SumLoopIterations(rep)):
				errs[i] = "loop-iteration sums differ"
			}
		})
		for i, e := range errs {
			if e != "" {
				t.Errorf("%s point %d %v: %s", c.name, i, cfgs[i], e)
			}
		}
	}
}

// TestExtractObserverDoesNotShapeModelSet requires an extraction to
// produce the same bytes whether or not an observer listens — interim
// refits run only for an observer and never feed the artifact — and the
// observer to see a refit after every Batch points but the last.
func TestExtractObserverDoesNotShapeModelSet(t *testing.T) {
	prep, err := core.Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	cfg := luleshBenchConfig(1)
	r := &runner.Runner{Workers: 2}
	quiet, err := modelreg.Extract(context.Background(), r, prep, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var refits []int
	points := 0
	watched, err := modelreg.Extract(context.Background(), r, prep, cfg, func(ev modelreg.Event) {
		switch ev.Type {
		case "point":
			points++
		case "refit":
			if ev.Points != points {
				t.Errorf("refit event at %d points after %d point events", ev.Points, points)
			}
			refits = append(refits, ev.Points)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(quiet)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(watched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("an observer changed the extracted ModelSet bytes")
	}
	// 16 points at Batch 5: refits after 5, 10 and 15; the 16th point
	// is fitted by Finish.
	if want := []int{5, 10, 15}; !reflect.DeepEqual(refits, want) {
		t.Fatalf("refits after %v points, want %v", refits, want)
	}
}
