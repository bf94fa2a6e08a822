package loopmodel

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// LoopDeps supplies, per function and loop ID, the parameter names the taint
// analysis attached to the loop's exit conditions (empty for untainted).
type LoopDeps func(fn string, loopID int) []string

// StaticTrip supplies the statically resolved constant trip count of a loop
// (ok=false when the loop is not statically constant).
type StaticTrip func(fn string, loopID int) (count int64, ok bool)

// ExternVolume supplies the symbolic volume contribution of a call to a
// library function outside the module (nil when irrelevant). The library
// database uses this to inject analytic dependencies such as log(p) for
// collectives.
type ExternVolume func(callee string) Expr

// Volumes holds the per-function inclusive iteration volumes and their
// dependency structures for a whole module.
type Volumes struct {
	// ByFunc is the inclusive volume of each function: its own loop nests
	// plus the accumulated volumes of its callees (Theorem 1).
	ByFunc map[string]Expr
	// LocalByFunc is the function's own loop-nest volume without callees.
	LocalByFunc map[string]Expr
	// StructByFunc is the normalized dependency structure per function.
	StructByFunc map[string]Structure
	// RecursionWarnings names functions on call-graph cycles whose volumes
	// are over-approximated as unknown (Section 4.1's warning).
	RecursionWarnings []string
}

// Plan is the configuration-independent structure Compute walks: the
// call graph, the recursion set, the bottom-up function order, and each
// function's CFG-derived loop forest with its call sites attributed to
// their innermost loops. None of it depends on the configuration a run
// analyzes, so a spec builds one Plan (core.Prepared does, once per
// spec) and every Compute of every design point reads it. A Plan is
// immutable after NewPlan and safe for concurrent use.
type Plan struct {
	// CallGraph maps each function to its callees.
	CallGraph *cfg.CallGraph
	// Order lists the module's functions callees first (cfg.TopoOrder).
	Order []*ir.Function
	// recursive marks the functions on call-graph cycles; recursion lists
	// them sorted, nil when there are none.
	recursive map[string]bool
	recursion []string
	funcs     map[string]*funcPlan
}

// funcPlan is one function's part of a Plan.
type funcPlan struct {
	forest *cfg.Forest
	// calls lists the callees of the call sites in reachable blocks, per
	// innermost containing loop (nil = top level), in block and
	// instruction order.
	calls map[*cfg.Loop][]string
}

// NewPlan builds the call graph, recursion set, bottom-up order and
// every function's loop forest of m.
func NewPlan(m *ir.Module) *Plan {
	cg := cfg.BuildCallGraph(m)
	rec := cg.FindRecursion()
	sort.Strings(rec)
	p := &Plan{
		CallGraph: cg,
		Order:     cfg.TopoOrder(m, cg),
		recursive: make(map[string]bool, len(rec)),
		recursion: rec,
		funcs:     make(map[string]*funcPlan, len(m.FuncList)),
	}
	for _, r := range rec {
		p.recursive[r] = true
	}
	for _, fn := range m.FuncList {
		g := cfg.Build(fn)
		fp := &funcPlan{forest: cfg.FindLoops(g), calls: make(map[*cfg.Loop][]string)}
		for bi, blk := range fn.Blocks {
			if !g.Reachable(bi) {
				continue
			}
			owner := fp.forest.InnermostAt[bi]
			for ii := range blk.Instrs {
				if in := &blk.Instrs[ii]; in.Op == ir.OpCall {
					fp.calls[owner] = append(fp.calls[owner], in.Sym)
				}
			}
		}
		p.funcs[fn.Name] = fp
	}
	return p
}

// Forest returns the loop nesting forest of function fn (nil when fn is
// not in the planned module).
func (p *Plan) Forest(fn string) *cfg.Forest {
	if fp := p.funcs[fn]; fp != nil {
		return fp.forest
	}
	return nil
}

// Compute derives volumes for every function of the planned module
// bottom-up over the call graph. deps and trips may be nil (then every
// non-constant loop counts as an unknown with no parameters); externVol
// may be nil.
func Compute(plan *Plan, deps LoopDeps, trips StaticTrip, externVol ExternVolume) *Volumes {
	v := &Volumes{
		ByFunc:            make(map[string]Expr, len(plan.Order)),
		LocalByFunc:       make(map[string]Expr, len(plan.Order)),
		StructByFunc:      make(map[string]Structure, len(plan.Order)),
		RecursionWarnings: append([]string(nil), plan.recursion...),
	}

	for _, fn := range plan.Order {
		fp := plan.funcs[fn.Name]
		if plan.recursive[fn.Name] {
			// Over-approximate recursive functions: unknown over all params
			// of their loops.
			set := make(map[string]bool)
			for _, l := range fp.forest.Loops {
				if deps != nil {
					for _, p := range deps(fn.Name, l.ID) {
						set[p] = true
					}
				}
			}
			var ps []string
			for p := range set {
				ps = append(ps, p)
			}
			sort.Strings(ps)
			e := Expr(Unknown{Params: ps})
			v.ByFunc[fn.Name] = e
			v.LocalByFunc[fn.Name] = e
			v.StructByFunc[fn.Name] = StructureOf(e)
			continue
		}
		incl, local := computeFunc(fn.Name, fp, v.ByFunc, deps, trips, externVol)
		v.ByFunc[fn.Name] = incl
		v.LocalByFunc[fn.Name] = local
		v.StructByFunc[fn.Name] = StructureOf(incl)
	}
	return v
}

// computeFunc returns the inclusive and local volumes of fn given already
// computed callee volumes.
func computeFunc(fn string, fp *funcPlan, memo map[string]Expr, deps LoopDeps, trips StaticTrip, externVol ExternVolume) (incl, local Expr) {
	forest := fp.forest

	// Callee volumes attributed to their innermost containing loop.
	callsIn := make(map[*cfg.Loop][]Expr, len(fp.calls))
	for owner, callees := range fp.calls {
		for _, callee := range callees {
			var ce Expr
			if e, ok := memo[callee]; ok {
				ce = e
			} else if externVol != nil {
				ce = externVol(callee)
			}
			if ce != nil {
				callsIn[owner] = append(callsIn[owner], ce)
			}
		}
	}

	countOf := func(l *cfg.Loop) Expr {
		if trips != nil {
			if c, ok := trips(fn, l.ID); ok {
				if c < 0 {
					c = 1
				}
				return Const{Value: float64(c)}
			}
		}
		var ps []string
		if deps != nil {
			ps = deps(fn, l.ID)
		}
		return Unknown{Params: append([]string(nil), ps...)}
	}

	// volWith aggregates a loop: count(L) * (1 + children + calls).
	var volLoop func(l *cfg.Loop) Expr
	volLoop = func(l *cfg.Loop) Expr {
		body := []Expr{Const{Value: 1}}
		for _, c := range l.Children {
			body = append(body, volLoop(c))
		}
		body = append(body, callsIn[l]...)
		return Mul(countOf(l), Add(body...))
	}

	// volWithCalls / volLocal differ only in whether callee volumes join in.
	topTerms := []Expr{Const{Value: 1}}
	localTerms := []Expr{Const{Value: 1}}
	for _, r := range forest.Roots {
		topTerms = append(topTerms, volLoop(r))
	}
	topTerms = append(topTerms, callsIn[nil]...)

	var volLoopLocal func(l *cfg.Loop) Expr
	volLoopLocal = func(l *cfg.Loop) Expr {
		body := []Expr{Const{Value: 1}}
		for _, c := range l.Children {
			body = append(body, volLoopLocal(c))
		}
		return Mul(countOf(l), Add(body...))
	}
	for _, r := range forest.Roots {
		localTerms = append(localTerms, volLoopLocal(r))
	}

	return Add(topTerms...), Add(localTerms...)
}

// RequiredExperiments computes the size of the experiment design for the
// given structure when each parameter takes points values: additive-only
// structures need per-parameter sweeps sharing one base point, whereas any
// multiplicative coupling requires the full cross product over the coupled
// group (Section A2's p×s vs p+s example).
func RequiredExperiments(st Structure, points map[string]int) int {
	if len(st.Groups) == 0 {
		return 1
	}
	// Partition parameters into connected components of multiplicative
	// coupling; each component costs the product of its point counts, and
	// components combine additively sharing a common base point.
	params := st.Params()
	parent := make(map[string]string, len(params))
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, p := range params {
		parent[p] = p
	}
	for _, g := range st.Groups {
		for i := 1; i < len(g); i++ {
			parent[find(g[i])] = find(g[0])
		}
	}
	comp := make(map[string][]string)
	for _, p := range params {
		r := find(p)
		comp[r] = append(comp[r], p)
	}
	total := 1 // shared base point
	for _, members := range comp {
		prod := 1
		for _, p := range members {
			n := points[p]
			if n <= 0 {
				n = 1
			}
			prod *= n
		}
		total += prod - 1 // component sweep reuses the base point
	}
	return total
}

// FullFactorialExperiments is the naive design size: the cross product over
// all parameters (what a black-box modeler must run without the prior).
func FullFactorialExperiments(st Structure, points map[string]int) int {
	total := 1
	for _, p := range st.Params() {
		n := points[p]
		if n <= 0 {
			n = 1
		}
		total *= n
	}
	return total
}
