package extrap

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Prior is the white-box restriction Perf-Taint derives from the taint
// analysis (Section 4.5): which parameters may appear in the model at all,
// and which parameter combinations may form multiplicative terms.
type Prior struct {
	// Allowed restricts the parameter set; nil allows every parameter.
	Allowed map[string]bool
	// MulOK reports whether the given parameter group may appear in a
	// single product term; nil allows every combination.
	MulOK func(group []string) bool
	// ForceConstant pins the model to a constant (functions whose loops
	// carry no parameter dependence).
	ForceConstant bool
}

// allowAll is the black-box prior: everything permitted.
func allowAll() *Prior { return &Prior{} }

func (p *Prior) allows(name string) bool {
	if p.Allowed == nil {
		return true
	}
	return p.Allowed[name]
}

func (p *Prior) mulOK(group []string) bool {
	if p.MulOK == nil {
		return true
	}
	return p.MulOK(group)
}

// ModelMulti fits the best multi-parameter PMNF model over the full
// dataset. Following Extra-P's multi-parameter heuristic, the search space
// is reduced to combinations of the best single-parameter models: for each
// active parameter the best one-term shape is determined on that
// parameter's sweep, and hypotheses combine those shapes additively and
// multiplicatively. prior may be nil for pure black-box modeling.
func ModelMulti(d *Dataset, opt Options, prior *Prior) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opt.Space.MaxTerms == 0 {
		opt = DefaultOptions()
	}
	if prior == nil {
		prior = allowAll()
	}
	f := newFrame(d, opt)
	constant, err := f.try(f.all, nil)
	if err != nil {
		return nil, fmt.Errorf("extrap: constant fit failed: %w", err)
	}
	if prior.ForceConstant {
		return f.model(constant), nil
	}

	// Active parameters: at least two distinct values and prior-allowed.
	var active []string
	for _, name := range d.ParamNames {
		if len(f.param(name).distinct) >= 2 && prior.allows(name) {
			active = append(active, name)
		}
	}
	sort.Strings(active)
	if len(active) == 0 {
		return f.model(constant), nil
	}
	return f.combine(active, prior, constant), nil
}

// bestShape finds the strongest single-term shape for one parameter using
// its dedicated sweep (the first multi-parameter heuristic of Extra-P).
func (f *frame) bestShape(param string) (PowLog, bool) {
	rows := f.slice(param)
	if len(rows) < 3 {
		return PowLog{}, false
	}
	bestScore := math.Inf(1)
	var best PowLog
	found := false
	for _, pl := range f.space {
		c, err := f.try(rows, [][]float64{f.shape(param, pl)})
		if err != nil {
			continue
		}
		if c.score < bestScore {
			bestScore, best, found = c.score, pl, true
		}
	}
	return best, found
}

// combine runs the combination search over the given parameters,
// starting from the constant hypothesis.
func (f *frame) combine(params []string, prior *Prior, best candidate) *Model {
	// Build the candidate term pool: one single term per parameter plus
	// product terms for each prior-allowed group of 2..3 parameters.
	shapes := make(map[string]PowLog, len(params))
	var pool []Term
	var have []string
	for _, p := range params {
		if pl, ok := f.bestShape(p); ok {
			shapes[p] = pl
			pool = append(pool, Term{Factors: map[string]PowLog{p: pl}})
			have = append(have, p)
		}
	}
	for _, group := range combinations(have, 2) {
		if prior.mulOK(group) {
			pool = append(pool, productTerm(shapes, group))
		}
	}
	if len(have) >= 3 {
		for _, group := range combinations(have, 3) {
			if prior.mulOK(group) {
				pool = append(pool, productTerm(shapes, group))
			}
		}
	}
	// Each pool term's column, and its complexity: one for the term plus
	// one per coupled parameter, so more terms and more coupled
	// parameters are more complex.
	cols := make([][]float64, len(pool))
	cx := make([]int, len(pool))
	for i, t := range pool {
		cols[i] = f.column(t)
		cx[i] = 1 + len(t.Params())
	}

	bestComplexity := 0
	consider := func(idx ...int) {
		h := make([][]float64, len(idx))
		complexity := 0
		for t, i := range idx {
			h[t] = cols[i]
			complexity += cx[i]
		}
		c, err := f.try(f.all, h)
		if err != nil {
			return
		}
		switch {
		case improves(c.score, best.score, f.opt.MinImprovement):
		case complexity < bestComplexity && c.score <= best.score:
			// Equal quality at lower complexity wins (Occam).
		default:
			return
		}
		c.terms = make([]Term, len(idx))
		for t, i := range idx {
			c.terms[t] = pool[i]
		}
		best, bestComplexity = c, complexity
	}
	maxTerms := f.opt.Space.MaxTerms
	if maxTerms < 1 {
		maxTerms = 2
	}
	for i := range pool {
		consider(i)
	}
	if maxTerms >= 2 {
		for i := range pool {
			for j := i + 1; j < len(pool); j++ {
				consider(i, j)
			}
		}
	}
	if maxTerms >= 3 {
		for i := range pool {
			for j := i + 1; j < len(pool); j++ {
				for k := j + 1; k < len(pool); k++ {
					consider(i, j, k)
				}
			}
		}
	}
	return f.model(best)
}

// productTerm multiplies the per-parameter shapes of group into one term.
func productTerm(shapes map[string]PowLog, group []string) Term {
	f := make(map[string]PowLog, len(group))
	for _, p := range group {
		f[p] = shapes[p]
	}
	return Term{Factors: f}
}

// combinations returns all k-subsets of items preserving order.
func combinations(items []string, k int) [][]string {
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) == k {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i := start; i < len(items); i++ {
			rec(i+1, append(cur, items[i]))
		}
	}
	rec(0, nil)
	return out
}

// GroupKey canonicalizes a parameter group for prior lookups.
func GroupKey(group []string) string {
	g := append([]string(nil), group...)
	sort.Strings(g)
	return strings.Join(g, ",")
}
