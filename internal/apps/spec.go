// Package apps defines the benchmark applications of the evaluation. Each
// application is written as a declarative Spec from which two consistent
// artifacts are generated:
//
//   - an ir.Module whose loop bounds, call sites, and MPI usage realize the
//     spec (the program the taint analysis runs on), and
//   - an analytic ground-truth model (call counts and exclusive times per
//     function) used by the cluster substrate to synthesize measurements at
//     configurations far larger than the interpreted taint run.
//
// The paper evaluates LULESH and MILC su3_rmd; the specs in lulesh.go and
// milc.go reproduce their structural census (function and loop counts per
// pruning class, parameter wiring of Tables 2 and 3). This substitution
// preserves the evaluated behaviour because every experiment measures
// structural properties (which functions/loops depend on which parameters,
// how models react to noise/instrumentation), not the physics.
package apps

import (
	"fmt"
	"math"
	"sort"
)

// Quantity is a monomial over the application parameters:
// Coeff * prod params^pow. Negative powers express per-rank partitioning
// such as volume/p.
type Quantity struct {
	Coeff float64
	Pow   map[string]int
}

// Q builds a constant quantity.
func Q(c float64) Quantity { return Quantity{Coeff: c} }

// QP builds coeff * name^pow.
func QP(c float64, name string, pow int) Quantity {
	return Quantity{Coeff: c, Pow: map[string]int{name: pow}}
}

// Times returns q scaled by name^pow.
func (q Quantity) Times(name string, pow int) Quantity {
	np := make(map[string]int, len(q.Pow)+1)
	for k, v := range q.Pow {
		np[k] = v
	}
	np[name] += pow
	return Quantity{Coeff: q.Coeff, Pow: np}
}

// Eval computes the quantity under a parameter configuration; missing
// parameters default to 1. The factors multiply in sorted parameter
// order: float multiplication is not associative, and the result must
// not depend on map iteration.
func (q Quantity) Eval(cfg map[string]float64) float64 {
	v := q.Coeff
	var buf [8]string
	for _, name := range q.names(buf[:0]) {
		x, ok := cfg[name]
		if !ok || x <= 0 {
			x = 1
		}
		v *= math.Pow(x, float64(q.Pow[name]))
	}
	return v
}

// names appends q's parameter names to dst in sorted order.
func (q Quantity) names(dst []string) []string {
	for n := range q.Pow {
		dst = append(dst, n)
	}
	sort.Strings(dst)
	return dst
}

// EvalInt computes the quantity under a configuration with the integer
// semantics of the lowered IR (see emitQuantity): the rounded coefficient
// is clamped to at least 1, positive powers multiply first, and negative
// powers then floor-divide. This is the exact iteration count a ParamBound
// loop with this bound executes, which is what analytic ground truth for
// the dynamic engines must use.
func (q Quantity) EvalInt(cfg map[string]float64) int64 {
	c := int64(math.Round(q.Coeff))
	if c < 1 {
		c = 1
	}
	var buf [8]string
	names := q.names(buf[:0])
	for _, n := range names {
		if pow := q.Pow[n]; pow > 0 {
			p := int64(math.Round(cfg[n]))
			for k := 0; k < pow; k++ {
				c *= p
			}
		}
	}
	for _, n := range names {
		if pow := q.Pow[n]; pow < 0 {
			p := int64(math.Round(cfg[n]))
			if p == 0 {
				return 0
			}
			for k := 0; k > pow; k-- {
				c /= p
			}
		}
	}
	return c
}

// Params returns the parameter names with non-zero powers, sorted.
func (q Quantity) Params() []string {
	var out []string
	for name, pow := range q.Pow {
		if pow != 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// BoundKind classifies how a loop bound behaves for the analyses.
type BoundKind int

// Bound kinds: a StaticConst bound is a compile-time constant (statically
// prunable), a RuntimeConst bound is loaded from an unmarked runtime cell
// (opaque to statics, untainted dynamically — the "dynamically pruned"
// class), and a ParamBound derives from marked parameters.
const (
	StaticConst BoundKind = iota
	RuntimeConst
	ParamBound
)

// Stmt is one element of a function body.
type Stmt interface{ isStmt() }

// Loop nests statements under an iteration bound.
type Loop struct {
	Kind BoundKind
	// Bound is the iteration count: a Quantity for ParamBound, a constant
	// for the other kinds (Coeff used, powers ignored).
	Bound Quantity
	Body  []Stmt
}

// Call invokes another spec function or an MPI routine.
type Call struct {
	Callee string
	// CountArg, for MPI routines, is the message count expression passed
	// as the count argument (taint flows into the library database).
	CountArg *Quantity
}

// Work models computation of Units abstract work items per execution.
type Work struct {
	Units float64
}

// Branch selects between two bodies on a parameter threshold
// (param < Less). It models parameter-based algorithm selection (Section
// 4.4 / C2): the taint analysis sees a tainted non-loop branch, and the
// ground truth becomes piecewise in the parameter.
type Branch struct {
	Param string
	Less  float64
	Then  []Stmt
	Else  []Stmt
}

func (Loop) isStmt()   {}
func (Call) isStmt()   {}
func (Work) isStmt()   {}
func (Branch) isStmt() {}

// Kind classifies functions for the census and the measurement filters.
type Kind int

// Function kinds mirroring Table 2's census rows.
const (
	KindMain   Kind = iota
	KindKernel      // computational kernel
	KindComm        // communication wrapper
	KindGetter      // C++-style accessor: no loops
	KindHelper      // constant or runtime-constant loops
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMain:
		return "main"
	case KindKernel:
		return "kernel"
	case KindComm:
		return "comm"
	case KindGetter:
		return "getter"
	case KindHelper:
		return "helper"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// FuncSpec declares one application function.
type FuncSpec struct {
	Name string
	Kind Kind
	Body []Stmt
	// WorkNanos is the time of one abstract work unit in nanoseconds.
	WorkNanos float64
	// MemIntensity in [0,1] scales the hardware-contention sensitivity of
	// this function's compute time (C1).
	MemIntensity float64
	// HWFactor optionally multiplies the compute time by a
	// machine-dependent p-power (surface effects, NUMA): exponent over p.
	HWFactorPExp float64
	// ImbalanceSkew models rank load imbalance: the measured (critical
	// path) time of this function stretches by 1 + skew*log2(p) as ranks
	// straggle. Like contention it is a machine/scheduling effect — the
	// analytic Ground stays rank-symmetric and the taint analysis cannot
	// (and must not) derive a code-level p dependence from it.
	ImbalanceSkew float64
	// InlineEstimate marks functions the compiler-assisted Score-P default
	// filter judges inlineable and therefore skips (Section A3). Getters
	// qualify; notoriously, some performance-relevant kernels do too,
	// producing the false negatives the paper describes.
	InlineEstimate bool
}

// Spec is a whole application.
type Spec struct {
	Name string
	// Params are the marked input parameters in declaration order
	// (excluding the implicit MPI parameter p).
	Params []string
	// Funcs holds every function; Funcs[0] must be the main function.
	Funcs []*FuncSpec
	// MPIUsed lists the MPI routines the program calls (the census's MPI
	// column).
	MPIUsed []string
}

// FuncByName returns the spec of name, or nil.
func (s *Spec) FuncByName(name string) *FuncSpec {
	for _, f := range s.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Main returns the entry function spec.
func (s *Spec) Main() *FuncSpec { return s.Funcs[0] }

// CountFuncs tallies functions per kind.
func (s *Spec) CountFuncs() map[Kind]int {
	out := make(map[Kind]int)
	for _, f := range s.Funcs {
		out[f.Kind]++
	}
	return out
}

// Validate checks call targets and structural invariants.
func (s *Spec) Validate() error {
	if len(s.Funcs) == 0 {
		return fmt.Errorf("apps: spec %q has no functions", s.Name)
	}
	if s.Funcs[0].Kind != KindMain {
		return fmt.Errorf("apps: spec %q: first function must be main", s.Name)
	}
	mpi := make(map[string]bool, len(s.MPIUsed))
	for _, m := range s.MPIUsed {
		mpi[m] = true
	}
	names := make(map[string]bool, len(s.Funcs))
	for _, f := range s.Funcs {
		if names[f.Name] {
			return fmt.Errorf("apps: duplicate function %q", f.Name)
		}
		names[f.Name] = true
	}
	var checkBody func(fn string, body []Stmt) error
	checkBody = func(fn string, body []Stmt) error {
		for _, st := range body {
			switch v := st.(type) {
			case Loop:
				if err := checkBody(fn, v.Body); err != nil {
					return err
				}
			case Branch:
				if err := checkBody(fn, v.Then); err != nil {
					return err
				}
				if err := checkBody(fn, v.Else); err != nil {
					return err
				}
			case Call:
				if !names[v.Callee] && !mpi[v.Callee] {
					return fmt.Errorf("apps: %s calls unknown %q", fn, v.Callee)
				}
			}
		}
		return nil
	}
	for _, f := range s.Funcs {
		if err := checkBody(f.Name, f.Body); err != nil {
			return err
		}
	}
	return nil
}

// Config is a concrete parameter assignment including the implicit p.
type Config map[string]float64

// Clone copies the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}
