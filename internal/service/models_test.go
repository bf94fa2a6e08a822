package service

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/modelreg"
)

// modelTestRequest is a small but real LULESH modeling design.
func modelTestRequest() ModelRequest {
	return ModelRequest{
		App:      "lulesh",
		Params:   []string{"p", "size"},
		Defaults: map[string]float64{"regions": 4, "balance": 2, "cost": 1, "iters": 2},
		Axes: []SweepAxis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{4, 5}},
		},
		Reps:  2,
		Seed:  3,
		Batch: 2,
	}
}

func TestServeModelsCachesBySpecAndDesign(t *testing.T) {
	srv, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()

	first, err := client.Models(ctx, modelTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first extraction claims a cache hit")
	}
	if first.ModelSet == nil || len(first.ModelSet.Functions) == 0 {
		t.Fatal("empty model set")
	}
	if first.ModelSet.Points != 4 {
		t.Fatalf("consumed %d points, want 4", first.ModelSet.Points)
	}

	// Acceptance criterion: the same spec digest + design answers from
	// the registry with the identical model set.
	second, err := client.Models(ctx, modelTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second extraction missed the registry")
	}
	if second.Key != first.Key || !reflect.DeepEqual(first.ModelSet, second.ModelSet) {
		t.Fatal("cached model set differs from the first extraction")
	}
	if st := srv.Models().Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("registry stats %+v, want 1 miss / 1 hit", st)
	}

	// A different design is a different address and a fresh build.
	other := modelTestRequest()
	other.Seed = 99
	third, err := client.Models(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Key == first.Key {
		t.Fatalf("distinct design shared the address: %+v", third.Key)
	}

	// GET /v1/models/{key} serves the resident artifact.
	got, err := client.ModelByKey(ctx, first.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached || !reflect.DeepEqual(got.ModelSet, first.ModelSet) {
		t.Fatal("GET by key diverges from the extraction")
	}
	if _, err := client.ModelByKey(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("missing key: %v", err)
	}

	// /v1/stats carries the registry counters.
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Models.Entries != 2 || stats.Models.Misses != 2 {
		t.Fatalf("stats.Models = %+v", stats.Models)
	}
}

// TestServeModelsDefaultsEmptyParams pins the documented default of
// ModelRequest.Params: an empty list means the axis parameters in axis
// order, so the request is accepted and answers with the same registry
// key and model set bytes as one naming them explicitly. Each request
// goes to its own server, so neither answer is a registry hit of the
// other.
func TestServeModelsDefaultsEmptyParams(t *testing.T) {
	ctx := context.Background()
	extract := func(name string, params []string) *ModelResponse {
		t.Helper()
		var resp *ModelResponse
		ok := t.Run(name, func(t *testing.T) {
			_, client := testServer(t, Options{Workers: 2})
			req := modelTestRequest()
			req.Params = params
			var err error
			if resp, err = client.Models(ctx, req); err != nil {
				t.Fatal(err)
			}
			if resp.Cached {
				t.Fatal("fresh server claims a registry hit")
			}
		})
		if !ok {
			t.FailNow()
		}
		return resp
	}
	implicit := extract("empty", nil)
	explicit := extract("explicit", []string{"p", "size"})
	if implicit.Key != explicit.Key {
		t.Fatalf("empty params keyed %s, explicit axis-order params %s", implicit.Key, explicit.Key)
	}
	a, err := json.Marshal(implicit.ModelSet)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(explicit.ModelSet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("empty params extracted a different model set than explicit axis-order params")
	}
}

func TestServeModelsStreamsProgress(t *testing.T) {
	_, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()

	var mu sync.Mutex
	var events []modelreg.Event
	resp, err := client.ModelsStream(ctx, modelTestRequest(), func(ev modelreg.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.ModelSet == nil {
		t.Fatalf("streaming build: %+v", resp)
	}
	var taints, points, refits int
	lastPoint := 0
	for _, ev := range events {
		switch ev.Type {
		case "taint":
			taints++
		case "point":
			points++
			if ev.Points != lastPoint+1 {
				t.Fatalf("point events out of order: %+v", ev)
			}
			lastPoint = ev.Points
		case "refit":
			refits++
		}
	}
	if taints != 1 || points != 4 || refits == 0 {
		t.Fatalf("event counts taint=%d point=%d refit=%d", taints, points, refits)
	}

	// A repeat streams no progress (registry hit) but still the result.
	events = nil
	resp2, err := client.ModelsStream(ctx, modelTestRequest(), func(ev modelreg.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || len(events) != 0 {
		t.Fatalf("cache hit streamed %d events, cached=%v", len(events), resp2.Cached)
	}
	if !reflect.DeepEqual(resp.ModelSet, resp2.ModelSet) {
		t.Fatal("streamed and cached model sets differ")
	}
}

func TestServeModelsRejectsBadDesigns(t *testing.T) {
	_, client := testServer(t, Options{Workers: 1, MaxSweepConfigs: 8})
	ctx := context.Background()

	cases := []struct {
		name   string
		mutate func(*ModelRequest)
	}{
		{"unknown app", func(r *ModelRequest) { r.App = "nope" }},
		{"no axes", func(r *ModelRequest) { r.Axes = nil }},
		{"unknown axis param", func(r *ModelRequest) { r.Axes[0].Param = "typo" }},
		{"unswept model param", func(r *ModelRequest) { r.Params = []string{"p", "regions"} }},
		{"unknown metric", func(r *ModelRequest) { r.Metrics = []string{"flops"} }},
		{"oversized design", func(r *ModelRequest) {
			r.Axes[0].Values = []float64{2, 4, 8}
			r.Axes[1].Values = []float64{4, 5, 6}
		}},
	}
	for _, tc := range cases {
		req := modelTestRequest()
		req.Axes = []SweepAxis{
			{Param: "p", Values: append([]float64(nil), 2, 4)},
			{Param: "size", Values: append([]float64(nil), 4, 5)},
		}
		tc.mutate(&req)
		if _, err := client.Models(ctx, req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("%s: want a 400, got %v", tc.name, err)
		}
	}
}
