// Package cluster models the execution machine: node geometry, rank
// placement, and the memory-bandwidth contention that co-located ranks
// inflict on memory-intensive kernels. It turns an application's analytic
// ground truth into synthetic measurements with contention, noise, and
// instrumentation intrusion — the data the empirical modeler consumes.
//
// Contention reproduces Section C1: functions with no source-level
// dependence on the rank count slow down as more ranks share a socket,
// which the taint-informed pipeline can expose as a hardware effect because
// it knows the dependence cannot come from the code.
package cluster

import (
	"maps"
	"math"
	"slices"

	"repro/internal/apps"
	"repro/internal/mpisim"
	"repro/internal/noise"
)

// Machine describes the node architecture.
type Machine struct {
	// CoresPerNode bounds ranks per node (36 for the paper's Skylake).
	CoresPerNode int
	// ContLinear and ContQuad shape the contention factor
	// 1 + mem*(ContLinear*log2(r) + ContQuad*log2(r)^2) for r co-located
	// ranks and a function of memory intensity mem.
	ContLinear float64
	ContQuad   float64
}

// Skylake returns the evaluation machine: two 18-core sockets per node.
func Skylake() Machine {
	return Machine{CoresPerNode: 36, ContLinear: 0.11, ContQuad: 0.018}
}

// ContentionFactor is the slowdown of a function with memory intensity mem
// when r ranks share a node.
func (m Machine) ContentionFactor(mem float64, r int) float64 {
	if r <= 1 || mem <= 0 {
		return 1
	}
	l := math.Log2(float64(r))
	return 1 + mem*(m.ContLinear*l+m.ContQuad*l*l)
}

// ImbalanceFactor is the critical-path stretch of a function with load
// imbalance skew when p ranks participate: the slowest straggler of p
// ranks lags the mean by roughly skew*log2(p). Like ContentionFactor it
// is a machine-side effect layered on the rank-symmetric ground truth.
func (m Machine) ImbalanceFactor(skew float64, p int) float64 {
	if p <= 1 || skew <= 0 {
		return 1
	}
	return 1 + skew*math.Log2(float64(p))
}

// RanksPerNode derives the per-node rank count for p total ranks when
// packed onto as few nodes as possible.
func (m Machine) RanksPerNode(p int) int {
	if p <= m.CoresPerNode {
		return p
	}
	return m.CoresPerNode
}

// Intrusion models the measurement-infrastructure cost (Score-P analog).
type Intrusion struct {
	// PerEventSeconds is charged per instrumented function call
	// (enter+exit pair).
	PerEventSeconds float64
	// FlushSeconds is charged per million instrumented events, scaled by
	// sqrt(p): profile-buffer management grows with both event volume and
	// rank count.
	FlushSeconds float64
	// BufferCapacity is the event count beyond which instrumentation
	// perturbs synchronization: ranks drift apart while flushing, and
	// functions whose subtree communicates absorb a wait-time skew of
	// SkewSeconds*sqrt(p). This is the mechanism that qualitatively
	// distorts models under full instrumentation (B2).
	BufferCapacity float64
	SkewSeconds    float64
}

// DefaultIntrusion uses a 0.6us event cost, the regime of compiler
// instrumentation with PAPI-free Score-P.
func DefaultIntrusion() Intrusion {
	return Intrusion{
		PerEventSeconds: 0.6e-6,
		FlushSeconds:    2e-3,
		BufferCapacity:  1e6,
		SkewSeconds:     0.3,
	}
}

// Runner synthesizes measurements for one application on one machine.
type Runner struct {
	Spec      *apps.Spec
	Cost      mpisim.CostModel
	Machine   Machine
	Intrusion Intrusion
	// RanksPerNodeOverride, when > 0, pins the co-location degree (the C1
	// experiment varies it at fixed p).
	RanksPerNodeOverride int

	// reaches is reachesMPI(reachesOf), built once by NewRunner because
	// it depends on the spec alone. Measure recomputes it for a runner
	// built as a struct literal or whose Spec was replaced since.
	reaches   map[string]bool
	reachesOf *apps.Spec
}

// NewRunner assembles a runner with evaluation defaults.
func NewRunner(spec *apps.Spec) *Runner {
	return &Runner{
		Spec:      spec,
		Cost:      mpisim.DefaultCost(),
		Machine:   Skylake(),
		Intrusion: DefaultIntrusion(),
		reaches:   reachesMPI(spec),
		reachesOf: spec,
	}
}

// mpiReach returns the spec functions whose call subtree contains an
// MPI call, from the set NewRunner built when it is current.
func (r *Runner) mpiReach() map[string]bool {
	if r.reaches != nil && r.reachesOf == r.Spec {
		return r.reaches
	}
	return reachesMPI(r.Spec)
}

// Profile is one synthetic measurement of an application configuration.
type Profile struct {
	Cfg apps.Config
	// FuncSeconds maps function name to repeated measurements of its
	// per-run time (exclusive compute under contention + its direct
	// communication + instrumentation charged to it).
	FuncSeconds map[string][]float64
	// AppSeconds is the total application time per repeat.
	AppSeconds []float64
	// BaseSeconds is the uninstrumented, noise-free application time.
	BaseSeconds float64
	// OverheadSeconds is the instrumentation cost added to the run.
	OverheadSeconds float64
	// Calls carries the ground-truth call counts (visit counts in Score-P
	// terms).
	Calls map[string]float64
}

// Measure synthesizes reps repeated measurements of cfg. instrumented
// selects the functions carrying measurement probes (nil = none); src
// provides the noise stream.
func (r *Runner) Measure(cfg apps.Config, instrumented map[string]bool, reps int, src *noise.Source) (*Profile, error) {
	g, err := apps.Evaluate(r.Spec, cfg, r.Cost)
	if err != nil {
		return nil, err
	}
	p := int(cfg["p"])
	rpn := r.Machine.RanksPerNode(p)
	if r.RanksPerNodeOverride > 0 {
		rpn = r.RanksPerNodeOverride
	}

	prof := &Profile{
		Cfg:         cfg.Clone(),
		FuncSeconds: make(map[string][]float64),
		Calls:       g.Calls,
		BaseSeconds: g.TotalSeconds(),
	}

	// Instrumented event volume per function: own events plus events of
	// instrumented direct callees (the getter storm lands on its callers).
	// Event sums run in sorted name order: float addition is
	// order-sensitive and a profile must not depend on map iteration.
	eventsOf := func(name string) float64 {
		ev := 0.0
		if instrumented[name] {
			ev += g.Calls[name]
		}
		from := g.CallsFrom[name]
		for _, callee := range g.Callees(name) {
			if instrumented[callee] {
				ev += from[callee]
			}
		}
		return ev
	}
	reaches := r.mpiReach()
	sqrtP := math.Sqrt(float64(p))
	ovhOf := func(name string) float64 {
		ev := eventsOf(name)
		ovh := r.Intrusion.PerEventSeconds * ev
		ovh += r.Intrusion.FlushSeconds * ev / 1e6 * sqrtP
		if ev > r.Intrusion.BufferCapacity && reaches[name] {
			ovh += r.Intrusion.SkewSeconds * sqrtP
		}
		return ovh
	}
	totalEvents := 0.0
	for _, name := range slices.Sorted(maps.Keys(instrumented)) {
		if instrumented[name] {
			totalEvents += g.Calls[name]
		}
	}
	totalOvh := r.Intrusion.PerEventSeconds*totalEvents +
		r.Intrusion.FlushSeconds*totalEvents/1e6*sqrtP
	prof.OverheadSeconds = totalOvh

	for _, f := range r.Spec.Funcs {
		cont := r.Machine.ContentionFactor(f.MemIntensity, rpn)
		imb := r.Machine.ImbalanceFactor(f.ImbalanceSkew, p)
		trueTime := g.ExclSeconds[f.Name]*cont*imb + g.CommByCaller[f.Name] + ovhOf(f.Name)
		prof.FuncSeconds[f.Name] = src.Repeat(trueTime, reps)
	}
	for _, mname := range r.Spec.MPIUsed {
		if g.Calls[mname] == 0 {
			continue
		}
		prof.FuncSeconds[mname] = src.Repeat(g.CommSeconds[mname], reps)
	}
	appTrue := g.TotalSeconds()*r.appFactor(g, rpn, p) + totalOvh
	prof.AppSeconds = src.Repeat(appTrue, reps)
	return prof, nil
}

// reachesMPI marks spec functions whose call subtree contains an MPI call.
func reachesMPI(s *apps.Spec) map[string]bool {
	mpi := make(map[string]bool, len(s.MPIUsed))
	for _, m := range s.MPIUsed {
		mpi[m] = true
	}
	memo := make(map[string]int) // 0 unknown, 1 no, 2 yes
	var scan func(body []apps.Stmt) bool
	var visit func(name string) bool
	scan = func(body []apps.Stmt) bool {
		for _, st := range body {
			switch v := st.(type) {
			case apps.Loop:
				if scan(v.Body) {
					return true
				}
			case apps.Branch:
				if scan(v.Then) || scan(v.Else) {
					return true
				}
			case apps.Call:
				if mpi[v.Callee] || visit(v.Callee) {
					return true
				}
			}
		}
		return false
	}
	visit = func(name string) bool {
		switch memo[name] {
		case 1:
			return false
		case 2:
			return true
		}
		memo[name] = 1 // break cycles conservatively
		f := s.FuncByName(name)
		if f == nil {
			return false
		}
		if scan(f.Body) {
			memo[name] = 2
			return true
		}
		return false
	}
	out := make(map[string]bool, len(s.Funcs))
	for _, f := range s.Funcs {
		out[f.Name] = visit(f.Name)
	}
	return out
}

// appFactor averages the per-function contention and imbalance stretch
// weighted by exclusive time, giving the whole-application slowdown.
func (r *Runner) appFactor(g *apps.Ground, rpn, p int) float64 {
	total, weighted := 0.0, 0.0
	for _, f := range r.Spec.Funcs {
		t := g.ExclSeconds[f.Name]
		total += t
		weighted += t * r.Machine.ContentionFactor(f.MemIntensity, rpn) *
			r.Machine.ImbalanceFactor(f.ImbalanceSkew, p)
	}
	if total == 0 {
		return 1
	}
	return weighted / total
}

// CoreHours returns the cost of one run at cfg in core-hours, including
// instrumentation overhead.
func (r *Runner) CoreHours(cfg apps.Config, instrumented map[string]bool) (float64, error) {
	prof, err := r.Measure(cfg, instrumented, 1, noise.Quiet())
	if err != nil {
		return 0, err
	}
	secs := prof.BaseSeconds + prof.OverheadSeconds
	return secs * cfg["p"] / 3600, nil
}
