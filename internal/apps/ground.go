package apps

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mpisim"
)

// Ground is the analytic ground truth of one application configuration:
// how often each function runs and how much exclusive compute and
// communication time it accounts for. The cluster substrate layers
// contention, noise, and instrumentation intrusion on top of it.
type Ground struct {
	Spec *Spec
	Cfg  Config

	// Calls counts invocations per function, including MPI routine names.
	Calls map[string]float64
	// ExclSeconds is per-function exclusive compute time (no callees).
	ExclSeconds map[string]float64
	// CommSeconds is analytic communication time attributed to each MPI
	// routine name.
	CommSeconds map[string]float64
	// InclSeconds is inclusive time per function (callees and their
	// communication included).
	InclSeconds map[string]float64
	// CommByCaller is communication time attributed to the spec function
	// issuing the MPI calls.
	CommByCaller map[string]float64
	// CallsFrom[caller][callee] counts direct call-edge executions,
	// including edges into MPI routines.
	CallsFrom map[string]map[string]float64

	// callees holds the sorted keys of CallsFrom per caller, recorded by
	// Evaluate (see Callees).
	callees map[string][]string
}

// Callees returns the keys of CallsFrom[caller] in sorted order, so that
// sums over a caller's call edges do not depend on map iteration.
func (g *Ground) Callees(caller string) []string {
	if c, ok := g.callees[caller]; ok {
		return c
	}
	return sortedKeys(g.CallsFrom[caller])
}

// sortedKeys returns m's keys in sorted order (nil for an empty map).
func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// perInv captures per-invocation quantities of one function. Float sums
// over its maps run in the sorted key order of callees and commNames:
// float addition is order-sensitive and the ground truth must not depend
// on map iteration.
type perInv struct {
	excl  float64
	comm  float64 // communication triggered directly (attributed to MPI fns)
	calls map[string]float64
	// commPer is the direct communication time per MPI routine name.
	commPer map[string]float64
	incl    float64

	callees, commNames []string
}

// Evaluate computes the ground truth of spec under cfg with the given
// communication cost model. cfg must define every spec parameter and "p".
func Evaluate(s *Spec, cfg Config, cost mpisim.CostModel) (*Ground, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for _, p := range s.Params {
		if _, ok := cfg[p]; !ok {
			return nil, fmt.Errorf("apps: config missing parameter %q", p)
		}
	}
	if _, ok := cfg["p"]; !ok {
		return nil, fmt.Errorf("apps: config missing implicit parameter p")
	}
	p := cfg["p"]

	mpi := make(map[string]bool, len(s.MPIUsed))
	for _, mname := range s.MPIUsed {
		mpi[mname] = true
	}

	// Per-invocation pass, memoized; specs are non-recursive by validation.
	memo := make(map[string]*perInv, len(s.Funcs))
	var eval func(f *FuncSpec) (*perInv, error)
	var walk func(f *FuncSpec, body []Stmt, mult float64, pi *perInv) error
	walk = func(f *FuncSpec, body []Stmt, mult float64, pi *perInv) error {
		for _, st := range body {
			switch v := st.(type) {
			case Work:
				pi.excl += mult * v.Units * f.WorkNanos * 1e-9
			case Loop:
				n := v.Bound.Coeff
				if v.Kind == ParamBound {
					n = v.Bound.Eval(map[string]float64(cfg))
				}
				if n < 0 {
					n = 0
				}
				if err := walk(f, v.Body, mult*n, pi); err != nil {
					return err
				}
			case Branch:
				body := v.Else
				if cfg[v.Param] < v.Less {
					body = v.Then
				}
				if err := walk(f, body, mult, pi); err != nil {
					return err
				}
			case Call:
				pi.calls[v.Callee] += mult
				if mpi[v.Callee] {
					count := 1.0
					if v.CountArg != nil {
						count = v.CountArg.Eval(map[string]float64(cfg))
					}
					c := commCost(cost, v.Callee, p, count)
					pi.comm += mult * c
					if pi.commPer == nil {
						pi.commPer = make(map[string]float64)
					}
					pi.commPer[v.Callee] += mult * c
				}
			}
		}
		return nil
	}
	eval = func(f *FuncSpec) (*perInv, error) {
		if pi, ok := memo[f.Name]; ok {
			return pi, nil
		}
		pi := &perInv{calls: make(map[string]float64)}
		if err := walk(f, f.Body, 1, pi); err != nil {
			return nil, err
		}
		// Hardware scaling of compute time (e.g. surface effects in p).
		if f.HWFactorPExp != 0 {
			pi.excl *= math.Pow(p, f.HWFactorPExp)
		}
		pi.callees = sortedKeys(pi.calls)
		pi.commNames = sortedKeys(pi.commPer)
		// Inclusive time: own compute + own comm + callees' inclusive.
		pi.incl = pi.excl + pi.comm
		for _, callee := range pi.callees {
			if mpi[callee] {
				continue // already accounted via comm
			}
			sub, err := eval(s.FuncByName(callee))
			if err != nil {
				return nil, err
			}
			pi.incl += pi.calls[callee] * sub.incl
		}
		memo[f.Name] = pi
		return pi, nil
	}
	if _, err := eval(s.Main()); err != nil {
		return nil, err
	}

	// Aggregate totals top-down from main (one invocation).
	g := &Ground{
		Spec:         s,
		Cfg:          cfg.Clone(),
		Calls:        make(map[string]float64),
		ExclSeconds:  make(map[string]float64),
		CommSeconds:  make(map[string]float64),
		InclSeconds:  make(map[string]float64),
		CommByCaller: make(map[string]float64),
		CallsFrom:    make(map[string]map[string]float64),
		callees:      make(map[string][]string),
	}
	// Exact propagation by recursion with multiplicity; specs are
	// non-recursive so the walk terminates.
	var acc func(name string, n float64)
	acc = func(name string, n float64) {
		g.Calls[name] += n
		pi := memo[name]
		if pi == nil {
			return
		}
		g.ExclSeconds[name] += n * pi.excl
		g.InclSeconds[name] += n * pi.incl
		for _, callee := range pi.callees {
			per := pi.calls[callee]
			if g.CallsFrom[name] == nil {
				g.CallsFrom[name] = make(map[string]float64)
				g.callees[name] = pi.callees
			}
			g.CallsFrom[name][callee] += n * per
			if mpi[callee] {
				g.Calls[callee] += n * per
				continue
			}
			acc(callee, n*per)
		}
		for _, mname := range pi.commNames {
			secs := pi.commPer[mname]
			g.CommSeconds[mname] += n * secs
			g.CommByCaller[name] += n * secs
		}
	}
	acc(s.Main().Name, 1)
	return g, nil
}

// commCost maps an MPI routine to its analytic cost for one call.
func commCost(cost mpisim.CostModel, name string, p, count float64) float64 {
	switch name {
	case "MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv":
		return cost.P2P(count)
	case "MPI_Barrier":
		return cost.Barrier(p)
	case "MPI_Bcast":
		return cost.Bcast(p, count)
	case "MPI_Reduce", "MPI_Allreduce":
		return cost.Allreduce(p, count)
	case "MPI_Gather", "MPI_Allgather":
		return cost.Gather(p, count)
	case "MPI_Scatter":
		return cost.Scatter(p, count)
	case "MPI_Alltoall":
		return cost.Alltoall(p, count)
	default:
		return 0
	}
}

// TotalSeconds is the application runtime: main's inclusive time.
func (g *Ground) TotalSeconds() float64 {
	return g.InclSeconds[g.Spec.Main().Name]
}
