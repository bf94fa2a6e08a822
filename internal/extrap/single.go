package extrap

import (
	"fmt"
	"math"
	"sort"
)

// Selection chooses how competing hypotheses are ranked.
type Selection int

// Selection policies. SelectTraining mirrors classic Extra-P behaviour of
// minimizing the fit error on the training data — fast, but prone to the
// overfitting on noisy constants the paper highlights. SelectCV ranks by
// leave-one-out cross-validation, which is more robust but cannot replace
// the structural prior (noise can still masquerade as parameter effects).
const (
	SelectTraining Selection = iota
	SelectCV
)

// Options configures the model search.
type Options struct {
	Space Space
	// Selection policy; defaults to SelectTraining (Extra-P's behaviour).
	Selection Selection
	// MinImprovement is the relative score improvement a more complex
	// hypothesis must deliver over a simpler one to be accepted.
	MinImprovement float64
	// CandidateTerms bounds how many best single-term hypotheses seed the
	// two-term search (Extra-P's search-space reduction heuristic).
	CandidateTerms int
}

// DefaultOptions returns the configuration used across the evaluation.
func DefaultOptions() Options {
	return Options{
		Space:          DefaultSpace(),
		Selection:      SelectTraining,
		MinImprovement: 0.01,
		CandidateTerms: 12,
	}
}

// ModelSingle fits the best PMNF model in one parameter. The search follows
// Extra-P: fit the constant hypothesis, then every one-term hypothesis,
// then two-term combinations seeded by the best one-term candidates, and
// keep additional complexity only when it buys at least MinImprovement.
func ModelSingle(d *Dataset, param string, opt Options) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opt.Space.MaxTerms == 0 {
		opt = DefaultOptions()
	}
	f := newFrame(d, opt)
	best, err := f.try(f.all, nil)
	if err != nil {
		return nil, fmt.Errorf("extrap: constant fit failed: %w", err)
	}

	terms := make([]Term, len(f.space))
	var oneTerm []candidate
	for i, pl := range f.space {
		terms[i] = Term{Factors: map[string]PowLog{param: pl}}
		c, err := f.try(f.all, [][]float64{f.shape(param, pl)})
		if err != nil {
			continue
		}
		c.terms = terms[i : i+1]
		oneTerm = append(oneTerm, c)
	}
	sort.Slice(oneTerm, func(i, j int) bool { return oneTerm[i].score < oneTerm[j].score })

	if len(oneTerm) > 0 && improves(oneTerm[0].score, best.score, opt.MinImprovement) {
		best = oneTerm[0]
	}

	if opt.Space.MaxTerms >= 2 {
		k := opt.CandidateTerms
		if k <= 0 {
			k = 3
		}
		if k > len(oneTerm) {
			k = len(oneTerm)
		}
		bestTwo := candidate{score: math.Inf(1)}
		for _, first := range oneTerm[:k] {
			lead := first.terms[0]
			for i, pl := range f.space {
				if pl == lead.Factors[param] {
					continue
				}
				c, err := f.try(f.all, [][]float64{first.cols[0], f.shape(param, pl)})
				if err != nil {
					continue
				}
				if c.score < bestTwo.score {
					c.terms = []Term{lead, terms[i]}
					bestTwo = c
				}
			}
		}
		if bestTwo.coef != nil && improves(bestTwo.score, best.score, opt.MinImprovement) {
			best = bestTwo
		}
	}
	return f.model(best), nil
}

// improves reports whether candidate beats incumbent by the relative margin.
func improves(candidate, incumbent, margin float64) bool {
	if math.IsInf(candidate, 1) {
		return false
	}
	if incumbent == 0 {
		return false
	}
	return candidate < incumbent*(1-margin)
}
