package extrap

import (
	"fmt"
	"math"
	"sort"
)

// This file keeps the original map-based fitter as a test-only oracle.
// It evaluates every hypothesis from each point's parameter map, builds
// a row-major design matrix per fit, and refits sub-datasets for
// leave-one-out cross-validation. The production fitter (frame.go) must
// agree with it bit for bit; FuzzFitDifferential checks that.

// refModelSingle is the oracle of ModelSingle.
func refModelSingle(d *Dataset, param string, opt Options) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opt.Space.MaxTerms == 0 {
		opt = DefaultOptions()
	}

	constModel, err := refFitHypothesis(d, nil)
	if err != nil {
		return nil, fmt.Errorf("extrap: constant fit failed: %w", err)
	}
	constScore := refScore(opt, d, nil, constModel)
	constModel.CV = refCrossValidate(d, nil)

	best := refScored{model: constModel, score: constScore}

	var oneTerm []refScored
	for _, pl := range opt.Space.Shapes() {
		shapes := []Term{{Factors: map[string]PowLog{param: pl}}}
		m, err := refFitHypothesis(d, shapes)
		if err != nil {
			continue
		}
		oneTerm = append(oneTerm, refScored{model: m, shapes: shapes, score: refScore(opt, d, shapes, m)})
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
		var bestTwo refScored
		bestTwo.score = math.Inf(1)
		for ci := 0; ci < k; ci++ {
			first := oneTerm[ci].shapes[0]
			for _, pl := range opt.Space.Shapes() {
				if pl == first.Factors[param] {
					continue
				}
				shapes := []Term{first, {Factors: map[string]PowLog{param: pl}}}
				m, err := refFitHypothesis(d, shapes)
				if err != nil {
					continue
				}
				s := refScore(opt, d, shapes, m)
				if s < bestTwo.score {
					bestTwo = refScored{model: m, shapes: shapes, score: s}
				}
			}
		}
		if bestTwo.model != nil && improves(bestTwo.score, best.score, opt.MinImprovement) {
			best = bestTwo
		}
	}

	best.model.CV = refCrossValidate(d, best.shapes)
	return best.model, nil
}

// refModelMulti is the oracle of ModelMulti.
func refModelMulti(d *Dataset, opt Options, prior *Prior) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opt.Space.MaxTerms == 0 {
		opt = DefaultOptions()
	}
	if prior == nil {
		prior = allowAll()
	}

	constModel, err := refFitHypothesis(d, nil)
	if err != nil {
		return nil, fmt.Errorf("extrap: constant fit failed: %w", err)
	}
	if prior.ForceConstant {
		constModel.CV = refCrossValidate(d, nil)
		return constModel, nil
	}

	var active []string
	for _, name := range d.ParamNames {
		if len(refDistinct(d, name)) >= 2 && prior.allows(name) {
			active = append(active, name)
		}
	}
	sort.Strings(active)
	if len(active) == 0 {
		constModel.CV = refCrossValidate(d, nil)
		return constModel, nil
	}
	return refModelRestricted(d, active, opt, prior)
}

// refScored pairs a fitted hypothesis with its selection score.
type refScored struct {
	model  *Model
	shapes []Term
	score  float64
}

func refScore(o Options, d *Dataset, shapes []Term, m *Model) float64 {
	if o.Selection == SelectCV {
		return refCrossValidate(d, shapes)
	}
	return m.SMAPE
}

func refBestShape(d *Dataset, param string, opt Options) (PowLog, bool) {
	slice := refSliceFor(d, param)
	if len(slice.Points) < 3 {
		return PowLog{}, false
	}
	bestScore := math.Inf(1)
	var best PowLog
	found := false
	for _, pl := range opt.Space.Shapes() {
		shapes := []Term{{Factors: map[string]PowLog{param: pl}}}
		m, err := refFitHypothesis(slice, shapes)
		if err != nil {
			continue
		}
		s := refScore(opt, slice, shapes, m)
		if s < bestScore {
			bestScore, best, found = s, pl, true
		}
	}
	return best, found
}

func refModelRestricted(d *Dataset, params []string, opt Options, prior *Prior) (*Model, error) {
	shapes := make(map[string]PowLog, len(params))
	for _, p := range params {
		if pl, ok := refBestShape(d, p, opt); ok {
			shapes[p] = pl
		}
	}
	var pool []Term
	var have []string
	for _, p := range params {
		if pl, ok := shapes[p]; ok {
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

	constModel, err := refFitHypothesis(d, nil)
	if err != nil {
		return nil, err
	}
	best := refScored{model: constModel, score: refScore(opt, d, nil, constModel)}
	bestComplexity := 0

	maxTerms := opt.Space.MaxTerms
	if maxTerms < 1 {
		maxTerms = 2
	}
	var hyps [][]Term
	for i := range pool {
		hyps = append(hyps, []Term{pool[i]})
	}
	if maxTerms >= 2 {
		for i := range pool {
			for j := i + 1; j < len(pool); j++ {
				hyps = append(hyps, []Term{pool[i], pool[j]})
			}
		}
	}
	if maxTerms >= 3 {
		for i := range pool {
			for j := i + 1; j < len(pool); j++ {
				for k := j + 1; k < len(pool); k++ {
					hyps = append(hyps, []Term{pool[i], pool[j], pool[k]})
				}
			}
		}
	}

	for _, h := range hyps {
		m, err := refFitHypothesis(d, h)
		if err != nil {
			continue
		}
		s := refScore(opt, d, h, m)
		c := refComplexity(h)
		switch {
		case improves(s, best.score, opt.MinImprovement):
			best = refScored{model: m, shapes: h, score: s}
			bestComplexity = c
		case c < bestComplexity && s <= best.score:
			best = refScored{model: m, shapes: h, score: s}
			bestComplexity = c
		}
	}
	best.model.CV = refCrossValidate(d, best.shapes)
	return best.model, nil
}

// refComplexity orders hypotheses: more terms and more coupled
// parameters are more complex.
func refComplexity(shapes []Term) int {
	c := 0
	for _, t := range shapes {
		c += 1 + len(t.Params())
	}
	return c
}

// refValues returns the per-point mean metric values.
func refValues(d *Dataset) []float64 {
	out := make([]float64, len(d.Points))
	for i, p := range d.Points {
		out[i] = p.Mean()
	}
	return out
}

// refDistinct returns the sorted distinct values of parameter name.
func refDistinct(d *Dataset, name string) []float64 {
	set := make(map[float64]bool)
	for _, p := range d.Points {
		set[p.Params[name]] = true
	}
	out := make([]float64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// refSliceFor extracts the single-parameter sweep of target: points where
// all other parameters sit at their minimum value.
func refSliceFor(d *Dataset, target string) *Dataset {
	mins := make(map[string]float64)
	for _, name := range d.ParamNames {
		if name == target {
			continue
		}
		vals := refDistinct(d, name)
		if len(vals) > 0 {
			mins[name] = vals[0]
		}
	}
	out := NewDataset(target)
	for _, p := range d.Points {
		match := true
		for name, want := range mins {
			if p.Params[name] != want {
				match = false
				break
			}
		}
		if match {
			out.Add(map[string]float64{target: p.Params[target]}, p.Values...)
		}
	}
	return out
}

// refLstsq solves min ||A c - y||^2 for a row-major A via the normal
// equations.
func refLstsq(a [][]float64, y []float64) ([]float64, error) {
	rows := len(a)
	if rows == 0 {
		return nil, errSingular
	}
	k := len(a[0])
	if rows < k {
		return nil, errSingular
	}
	n := make([][]float64, k)
	for i := range n {
		n[i] = make([]float64, k+1)
	}
	for r := 0; r < rows; r++ {
		row := a[r]
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				n[i][j] += row[i] * row[j]
			}
			n[i][k] += row[i] * y[r]
		}
	}
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(n[r][col]) > math.Abs(n[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(n[pivot][col]) < 1e-12 {
			return nil, errSingular
		}
		n[col], n[pivot] = n[pivot], n[col]
		inv := 1 / n[col][col]
		for j := col; j <= k; j++ {
			n[col][j] *= inv
		}
		for r := 0; r < k; r++ {
			if r == col || n[r][col] == 0 {
				continue
			}
			f := n[r][col]
			for j := col; j <= k; j++ {
				n[r][j] -= f * n[col][j]
			}
		}
	}
	c := make([]float64, k)
	for i := range c {
		c[i] = n[i][k]
		if math.IsNaN(c[i]) || math.IsInf(c[i], 0) {
			return nil, errSingular
		}
	}
	return c, nil
}

// refDesignMatrix builds the regression matrix for a hypothesis: column 0
// is the constant 1, column t+1 the shape value of term t at each point.
func refDesignMatrix(d *Dataset, shapes []Term) [][]float64 {
	a := make([][]float64, len(d.Points))
	for r, p := range d.Points {
		row := make([]float64, len(shapes)+1)
		row[0] = 1
		for t, term := range shapes {
			row[t+1] = term.evalShape(p.Params)
		}
		a[r] = row
	}
	return a
}

// refFitHypothesis fits constant + coefficients for the given term shapes
// and returns the model with training RSS/SMAPE filled in.
func refFitHypothesis(d *Dataset, shapes []Term) (*Model, error) {
	y := refValues(d)
	a := refDesignMatrix(d, shapes)
	c, err := refLstsq(a, y)
	if err != nil {
		return nil, err
	}
	m := &Model{Constant: c[0]}
	for t, term := range shapes {
		fitted := term
		fitted.Coeff = c[t+1]
		m.Terms = append(m.Terms, fitted)
	}
	pred := make([]float64, len(d.Points))
	rss := 0.0
	for i, p := range d.Points {
		pred[i] = m.Eval(p.Params)
		dlt := pred[i] - y[i]
		rss += dlt * dlt
	}
	m.RSS = rss
	m.SMAPE = refSMAPE(pred, y)
	return m, nil
}

// refSMAPE is the symmetric mean absolute percentage error in [0, 2].
func refSMAPE(pred, actual []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i := range pred {
		den := math.Abs(pred[i]) + math.Abs(actual[i])
		if den == 0 {
			continue
		}
		s += 2 * math.Abs(pred[i]-actual[i]) / den
	}
	return s / float64(len(pred))
}

// refCrossValidate computes the leave-one-out SMAPE of a hypothesis by
// refitting a sub-dataset per left-out point.
func refCrossValidate(d *Dataset, shapes []Term) float64 {
	nPts := len(d.Points)
	if nPts < len(shapes)+2 {
		return math.Inf(1)
	}
	preds := make([]float64, 0, nPts)
	actuals := make([]float64, 0, nPts)
	for leave := 0; leave < nPts; leave++ {
		sub := &Dataset{ParamNames: d.ParamNames}
		sub.Points = make([]Point, 0, nPts-1)
		sub.Points = append(sub.Points, d.Points[:leave]...)
		sub.Points = append(sub.Points, d.Points[leave+1:]...)
		m, err := refFitHypothesis(sub, shapes)
		if err != nil {
			return math.Inf(1)
		}
		preds = append(preds, m.Eval(d.Points[leave].Params))
		actuals = append(actuals, d.Points[leave].Mean())
	}
	return refSMAPE(preds, actuals)
}
