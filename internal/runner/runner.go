// Package runner is the concurrent batch engine over the core pipeline:
// it memoizes the per-spec artifacts (module build, verification, and the
// static pass run exactly once via core.Prepare) and fans the per-config
// dynamic tainted runs out across a bounded worker pool. Results come back
// in input order with per-job error capture, so a failing configuration
// never hides the results of its siblings. The experiment drivers and the
// perftaint facade route all multi-configuration analysis through this
// package, which makes sweep wall-clock scale with cores instead of with
// the number of configurations.
package runner

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/par"
)

// Result is the outcome of one batch job: the configuration it analyzed,
// its position in the input slice, and either a report or an error.
type Result struct {
	// Index is the job's position in the input configuration slice;
	// results are always returned sorted by Index.
	Index  int
	Config apps.Config
	Report *core.Report
	// Err captures the job's failure without aborting the batch.
	Err error
}

// Runner fans batches of Perf-Taint analyses out across a worker pool.
// The zero value is ready to use and saturates GOMAXPROCS.
type Runner struct {
	// Workers bounds batch concurrency; values <= 0 mean GOMAXPROCS.
	Workers int
	// Mode selects the interpreter engine for batches this runner
	// prepares itself (AnalyzeBatch, Sweep); the zero value is the fast
	// engine. Entry points taking an existing core.Prepared honor its
	// Mode instead — one batch, one engine.
	Mode interp.Mode
}

// New returns a runner that saturates GOMAXPROCS.
func New() *Runner { return &Runner{} }

func (r *Runner) workers() int {
	if r != nil && r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// AnalyzeBatch analyzes one spec at every configuration in cfgs. The
// module is built, verified, and statically classified exactly once
// (core.Prepare); only the dynamic tainted runs fan out across workers.
// The returned error covers the shared preparation alone — per-config
// failures land in the corresponding Result.Err, and results preserve
// input order regardless of completion order.
func (r *Runner) AnalyzeBatch(spec *apps.Spec, cfgs []apps.Config) ([]Result, error) {
	p, err := core.Prepare(spec)
	if err != nil {
		return nil, fmt.Errorf("runner: prepare %s: %w", spec.Name, err)
	}
	if r != nil {
		p.Mode = r.Mode
	}
	return r.AnalyzeBatchPrepared(p, cfgs), nil
}

// AnalyzeBatchPrepared fans the dynamic stage out over cfgs against
// already-prepared artifacts, for callers that reuse one core.Prepared
// across several batches.
func (r *Runner) AnalyzeBatchPrepared(p *core.Prepared, cfgs []apps.Config) []Result {
	return r.AnalyzeBatchPreparedCtx(context.Background(), p, cfgs)
}

// AnalyzeBatchPreparedCtx is AnalyzeBatchPrepared with cooperative
// cancellation: once ctx is done, jobs that have not started yet are
// skipped and their Result.Err captures ctx's error. Jobs already running
// finish normally — the dynamic stage is fuel-bounded, so a straggler
// cannot outlive its fuel budget — which keeps every returned Result in
// one of exactly two states: fully analyzed or never started. The analysis
// daemon (internal/service) routes every scheduled job through this entry
// point so per-job deadlines and client disconnects stop queued work.
func (r *Runner) AnalyzeBatchPreparedCtx(ctx context.Context, p *core.Prepared, cfgs []apps.Config) []Result {
	out := make([]Result, len(cfgs))
	Map(r.workers(), len(cfgs), func(i int) {
		if err := ctx.Err(); err != nil {
			out[i] = Result{Index: i, Config: cfgs[i], Err: skipped(i, err)}
			return
		}
		rep, err := p.Analyze(cfgs[i])
		out[i] = Result{Index: i, Config: cfgs[i], Report: rep, Err: err}
	})
	return out
}

// Sweep expands the design's full-factorial configuration grid and runs it
// as one batch.
func (r *Runner) Sweep(d Design) ([]Result, error) {
	return r.AnalyzeBatch(d.Spec, d.Configs())
}

// SweepFitCtx is the streaming batch entry point: it fans the dynamic
// runs out across the worker pool exactly like AnalyzeBatchPreparedCtx,
// but hands each Result to emit in input order as soon as it and all its
// predecessors have finished — downstream consumers start working on
// design point i while points i+1.. are still being analyzed. Any
// consumer that wants pipelined, input-ordered reports can use it; the
// model-extraction pipeline streams the leaner core.Prepared.Observe
// through Stream instead.
//
// emit is called from the SweepFitCtx goroutine only, never concurrently.
// A non-nil error from emit cancels all jobs that have not started
// (running jobs finish — they are fuel-bounded) and is returned after the
// pool drains. Per-job analysis failures do not abort the stream: they
// arrive in Result.Err like in the batch API, and the consumer decides.
func (r *Runner) SweepFitCtx(ctx context.Context, p *core.Prepared, cfgs []apps.Config, emit func(Result) error) error {
	return Stream(ctx, r, len(cfgs),
		func(i int) (*core.Report, error) { return p.Analyze(cfgs[i]) },
		func(i int, rep *core.Report, err error) error {
			return emit(Result{Index: i, Config: cfgs[i], Report: rep, Err: err})
		})
}

// Stream is the input-ordered streaming core of SweepFitCtx, generic in
// the job's outcome: it runs job(i) for every i in [0, n) on r's worker
// pool and calls emit(i, v, err) in index order as soon as job i and all
// its predecessors have finished. A job that has not started when ctx is
// done is not run; emit receives a "skipped" error for it instead.
//
// emit is called from the Stream goroutine only, never concurrently. A
// non-nil error from emit cancels all jobs that have not started (running
// jobs finish), stops further emits, and is returned after the pool
// drains.
func Stream[T any](ctx context.Context, r *Runner, n int, job func(i int) (T, error), emit func(i int, v T, err error) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	out := make([]outcome, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	poolDone := make(chan struct{})
	go func() {
		defer close(poolDone)
		Map(r.workers(), n, func(i int) {
			defer close(ready[i])
			if err := ctx.Err(); err != nil {
				out[i].err = skipped(i, err)
				return
			}
			out[i].v, out[i].err = job(i)
		})
	}()
	var emitErr error
	for i := range out {
		<-ready[i]
		if emitErr == nil {
			if err := emit(i, out[i].v, out[i].err); err != nil {
				emitErr = err
				cancel() // skip everything not yet started
			}
		}
		out[i] = outcome{} // emitted: release it for the collector
	}
	<-poolDone
	return emitErr
}

// skipped is the error of job i that never ran because ctx was done.
func skipped(i int, err error) error {
	return fmt.Errorf("runner: job %d skipped: %w", i, err)
}

// FirstErr returns the first per-job error of a batch in input order, or
// nil when every job succeeded.
func FirstErr(rs []Result) error {
	for _, res := range rs {
		if res.Err != nil {
			return fmt.Errorf("runner: job %d: %w", res.Index, res.Err)
		}
	}
	return nil
}

// Reports unwraps a fully successful batch into its reports, failing on
// the first captured job error.
func Reports(rs []Result) ([]*core.Report, error) {
	if err := FirstErr(rs); err != nil {
		return nil, err
	}
	out := make([]*core.Report, len(rs))
	for i, res := range rs {
		out[i] = res.Report
	}
	return out, nil
}

// Map runs n index jobs on at most workers goroutines (workers <= 0 means
// GOMAXPROCS) and returns when all have finished. Jobs are handed out in
// index order; callers that write job i's outcome to slot i of a
// preallocated slice get deterministic, input-ordered results for free.
func Map(workers, n int, job func(i int)) { par.ForEach(workers, n, job) }
