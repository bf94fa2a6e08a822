package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
)

const (
	// seedCycle is how many distinct noise seeds a run cycles through:
	// every later extraction repeats an earlier seed, so each run checks
	// that a repeated seed reproduces the artifact byte for byte.
	seedCycle = 4
	// minHits is the fewest registry hits that follow each extraction.
	minHits = 10
	// hitShare sets how long the hits after an extraction run: at least
	// a hitShare-th of that extraction's wall time. The host's speed
	// changes in stretches of tens of milliseconds, so hits spread over a
	// fixed share of the run sample it as evenly as extractions do.
	hitShare = 10
	// warmupSalt derives the warm-up extraction's seed, which the
	// measured phase never uses.
	warmupSalt = -1
)

// inProcess is the set-up of an extract-* workload: one prepared spec,
// a runner at GOMAXPROCS workers, and the registry the hits read.
type inProcess struct {
	c   *workCase
	r   *runner.Runner
	reg *modelreg.Registry
	ids identity
}

func (b *inProcess) cases() []*workCase { return []*workCase{b.c} }

// setupInProcess builds the case (spec, design, analytic iteration
// totals), prepares the spec and runs one untimed, checked warm-up
// extraction.
func setupInProcess(mk func() (*workCase, error)) func(options, *tally) (bench, error) {
	return func(o options, t *tally) (bench, error) {
		c, err := mk()
		if err != nil {
			return nil, err
		}
		if c.prep, err = core.Prepare(c.spec); err != nil {
			return nil, err
		}
		b := &inProcess{c: c, r: runner.New(), reg: modelreg.NewRegistry(2 * seedCycle), ids: identity{}}
		x := extractCase(c, b.r, deriveSeed(o.seed, warmupSalt), t)
		if x.err != nil {
			return nil, fmt.Errorf("warm-up extraction: %w", x.err)
		}
		t.op(x.checkErr)
		return b, nil
	}
}

// extraction is one timed modelreg extraction.
type extraction struct {
	ms *modelreg.ModelSet
	// wall is the whole call; sweep the part spent inside the sweep.
	wall, sweep time.Duration
	// cpu is the process CPU time the call took, in seconds.
	cpu      float64
	err      error
	checkErr error
}

// extractCase runs modelreg.ExtractWith over modelreg.LocalSweep, which
// is exactly what modelreg.Extract does, with the sweep wrapped to time
// it and to check every sample against the analytic iteration totals.
func extractCase(c *workCase, r *runner.Runner, seed int64, t *tally) extraction {
	var x extraction
	inner := modelreg.LocalSweep(r, c.prep)
	sweep := func(ctx context.Context, cfgs []apps.Config, consume func(modelreg.Sample) error) error {
		start := time.Now()
		err := inner(ctx, cfgs, func(s modelreg.Sample) error {
			if err := c.checkSample(s, t); err != nil && x.checkErr == nil {
				x.checkErr = err
			}
			return consume(s)
		})
		x.sweep = time.Since(start)
		return err
	}
	cfg := c.withSeed(seed)
	cpu0 := cpuSeconds()
	start := time.Now()
	x.ms, x.err = modelreg.ExtractWith(context.Background(), sweep, r.Workers, c.prep, cfg, nil)
	x.wall = time.Since(start)
	x.cpu = cpuSeconds() - cpu0
	if x.err == nil && x.checkErr == nil {
		x.checkErr = c.checkArtifact(cfg, x.ms)
	}
	return x
}

// checkArtifact checks what every extraction must satisfy whatever its
// seed: the registry key, the design size and, for corpus apps, exact
// dependency recovery.
func (c *workCase) checkArtifact(cfg modelreg.Config, ms *modelreg.ModelSet) error {
	if want := modelreg.Key(c.prep.Digest, cfg); ms.Key != want {
		return fmt.Errorf("%s: ModelSet key %s, want %s", c.name, ms.Key, want)
	}
	if ms.Points != len(c.cfgs) {
		return fmt.Errorf("%s: ModelSet has %d points, design has %d", c.name, ms.Points, len(c.cfgs))
	}
	return c.scoreCorpus(ms)
}

// measureInProcess runs back-to-back extractions until the time is up,
// each followed by registry hits.
func measureInProcess(o options, bb bench, t *tally) (*report, error) {
	b := bb.(*inProcess)
	var walls, rates, sweepRates, cpuPerPoint, hits []float64
	rss := newPeakRSS()
	deadline := time.Now().Add(seconds(o.seconds))
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		seed := deriveSeed(o.seed, int64(k%seedCycle))
		rss.start()
		x := extractCase(b.c, b.r, seed, t)
		rss.stop()
		if !t.op(x.err) {
			continue
		}
		n := float64(x.ms.Points)
		walls = append(walls, ms(x.wall))
		rates = append(rates, n/x.wall.Seconds())
		sweepRates = append(sweepRates, n/x.sweep.Seconds())
		cpuPerPoint = append(cpuPerPoint, 1000*x.cpu/n)
		t.op(x.checkErr)
		h, err := b.hits(seed, x.ms, x.wall/hitShare)
		hits = append(hits, h...)
		t.op(err)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no extraction succeeded")
	}
	rep := newReport()
	rep.latencies("extract_ms", walls)
	rep.add("points_per_s", "1/s", rates...)
	rep.add("sweep_points_per_s", "1/s", sweepRates...)
	rep.addMean("hit_ms_mean", "ms", hits...)
	rep.add("cpu_ms_per_point", "ms", cpuPerPoint...)
	rss.report(rep)
	return rep, nil
}

// hits stores the fresh set in the registry and times repeated hits on
// its key: at least minHits of them, for at least budget. An in-process
// hit is a registry lookup plus encoding the set to JSON, which is what
// the daemon does before a hit reaches the wire.
// The bytes double as the repeated-seed identity check: a repeat seed
// finds the earlier extraction's set under the same key.
func (b *inProcess) hits(seed int64, fresh *modelreg.ModelSet, budget time.Duration) ([]float64, error) {
	body, err := json.Marshal(fresh)
	if err != nil {
		return nil, err
	}
	if err := b.ids.check(b.c, seed, artifact{key: fresh.Key, body: body}); err != nil {
		return nil, err
	}
	if _, _, err := b.reg.Get(fresh.Key, func() (*modelreg.ModelSet, error) { return fresh, nil }); err != nil {
		return nil, err
	}
	var out []float64
	begin := time.Now()
	for i := 0; i < minHits || time.Since(begin) < budget; i++ {
		start := time.Now()
		got, ok := b.reg.Lookup(fresh.Key)
		if !ok {
			return out, fmt.Errorf("%s: registry lost key %s", b.c.name, fresh.Key)
		}
		hb, err := json.Marshal(got)
		out = append(out, ms(time.Since(start)))
		if err != nil {
			return out, err
		}
		if !bytes.Equal(hb, body) {
			return out, fmt.Errorf("%s seed %d: registry hit returned different bytes", b.c.name, seed)
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
