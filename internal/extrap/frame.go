package extrap

import (
	"math"
	"sort"
)

// frame is the column-major view of one dataset that a single ModelSingle
// or ModelMulti call searches over. It is built once per call and holds
// the per-point means, one column per parameter, and a memo of shape
// columns keyed by (parameter, PowLog), so PowLog.Eval runs once per
// distinct parameter value rather than once per hypothesis and point.
// Every hypothesis of the search, the single-parameter slices of the
// multi-parameter heuristic (row index lists), and leave-one-out
// cross-validation (the same lists minus one row) read these columns.
//
// The fitted models are bit-identical to evaluating Model.Eval on each
// point's parameter map, because every value goes through the same float
// operations in the same order:
//   - a single-factor column is PowLog.Eval of the value paramOr1 gives;
//   - a product column starts at 1.0 and multiplies its factors in sorted
//     parameter order (Term.evalShape's order);
//   - the normal equations accumulate row by row in dataset order;
//   - a prediction is the constant plus coefficient times column, in
//     term order;
//   - SMAPE divides by all rows and skips rows whose denominator is 0;
//   - leave-one-out cross-validation leaves rows out in order.
//
// A frame is used by one goroutine; FitAll builds one per request.
type frame struct {
	opt    Options
	names  []string
	points []Point
	// y holds the per-point means in dataset order.
	y []float64
	// all lists every row index in dataset order.
	all    []int
	space  []PowLog
	params map[string]*paramColumn
}

// paramColumn is one parameter's values: the distinct values in order of
// first appearance, each row's index into them, and the memo of the
// parameter's shape columns.
type paramColumn struct {
	distinct []float64
	of       []int
	shapes   map[PowLog][]float64
}

func newFrame(d *Dataset, opt Options) *frame {
	f := &frame{
		opt:    opt,
		names:  d.ParamNames,
		points: d.Points,
		y:      make([]float64, len(d.Points)),
		all:    make([]int, len(d.Points)),
		space:  opt.Space.Shapes(),
		params: make(map[string]*paramColumn),
	}
	for r, p := range d.Points {
		f.y[r] = p.Mean()
		f.all[r] = r
	}
	return f
}

// param returns the column of parameter name, built on first use.
func (f *frame) param(name string) *paramColumn {
	if pc := f.params[name]; pc != nil {
		return pc
	}
	pc := &paramColumn{of: make([]int, len(f.points)), shapes: make(map[PowLog][]float64, len(f.space))}
	index := make(map[float64]int)
	for r, p := range f.points {
		x := paramOr1(p.Params, name)
		i, ok := index[x]
		if !ok {
			i = len(pc.distinct)
			pc.distinct = append(pc.distinct, x)
			index[x] = i
		}
		pc.of[r] = i
	}
	f.params[name] = pc
	return pc
}

// shape returns the column pl.Eval(x) of parameter name, memoized.
func (f *frame) shape(name string, pl PowLog) []float64 {
	pc := f.param(name)
	if col, ok := pc.shapes[pl]; ok {
		return col
	}
	at := make([]float64, len(pc.distinct))
	for i, x := range pc.distinct {
		at[i] = pl.Eval(x)
	}
	col := make([]float64, len(pc.of))
	for r, i := range pc.of {
		col[r] = at[i]
	}
	pc.shapes[pl] = col
	return col
}

// column returns the values of term t's shape at every row.
func (f *frame) column(t Term) []float64 {
	if len(t.Factors) == 1 {
		for name, pl := range t.Factors {
			return f.shape(name, pl)
		}
	}
	names := make([]string, 0, len(t.Factors))
	for name := range t.Factors {
		names = append(names, name)
	}
	sort.Strings(names)
	col := make([]float64, len(f.y))
	for r := range col {
		col[r] = 1
	}
	for _, name := range names {
		s := f.shape(name, t.Factors[name])
		for r := range col {
			col[r] *= s[r]
		}
	}
	return col
}

// slice returns the rows of target's single-parameter sweep: those where
// every other declared parameter sits at its minimum value. This is the
// line of the experiment design Extra-P's first heuristic models in
// isolation.
func (f *frame) slice(target string) []int {
	var others []*paramColumn
	var mins []float64
	for _, name := range f.names {
		if name == target {
			continue
		}
		pc := f.param(name)
		min := pc.distinct[0]
		for _, v := range pc.distinct[1:] {
			if v < min {
				min = v
			}
		}
		others = append(others, pc)
		mins = append(mins, min)
	}
	var rows []int
next:
	for r := range f.y {
		for i, pc := range others {
			if pc.distinct[pc.of[r]] != mins[i] {
				continue next
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// candidate is one fitted hypothesis: the least-squares coefficients
// (constant first) of its columns, its training error and its selection
// score. terms is set only where the candidate may become a Model.
type candidate struct {
	terms []Term
	cols  [][]float64
	coef  []float64
	rss   float64
	smape float64
	score float64
}

// try fits the hypothesis with the given term columns over rows and
// scores it under the frame's selection policy.
func (f *frame) try(rows []int, cols [][]float64) (candidate, error) {
	coef, err := lstsq(cols, f.y, rows)
	if err != nil {
		return candidate{}, err
	}
	c := candidate{cols: cols, coef: coef}
	s := 0.0
	for _, r := range rows {
		pred := predict(coef, cols, r)
		dlt := pred - f.y[r]
		c.rss += dlt * dlt
		s += smapeTerm(pred, f.y[r])
	}
	c.smape = s / float64(len(rows))
	if f.opt.Selection == SelectCV {
		c.score = f.crossValidate(rows, cols)
	} else {
		c.score = c.smape
	}
	return c, nil
}

// model turns a candidate fitted over every row into a Model with its
// leave-one-out cross-validation score.
func (f *frame) model(c candidate) *Model {
	m := &Model{Constant: c.coef[0], RSS: c.rss, SMAPE: c.smape, CV: f.crossValidate(f.all, c.cols)}
	for t, term := range c.terms {
		term.Coeff = c.coef[t+1]
		m.Terms = append(m.Terms, term)
	}
	return m
}

// crossValidate computes the leave-one-out SMAPE of a hypothesis over
// rows: for each row in order, refit on the others and predict the left
// out value. Hypotheses that become singular under any fold, or have too
// few rows to leave one out, score +Inf.
func (f *frame) crossValidate(rows []int, cols [][]float64) float64 {
	n := len(rows)
	if n < len(cols)+2 {
		return math.Inf(1)
	}
	// sub holds rows without rows[leave]; moving to the next fold only
	// puts rows[leave-1] back in place of rows[leave].
	sub := append([]int(nil), rows[1:]...)
	s := 0.0
	for leave, r := range rows {
		if leave > 0 {
			sub[leave-1] = rows[leave-1]
		}
		coef, err := lstsq(cols, f.y, sub)
		if err != nil {
			return math.Inf(1)
		}
		s += smapeTerm(predict(coef, cols, r), f.y[r])
	}
	return s / float64(n)
}

// predict evaluates the fitted hypothesis at row r.
func predict(coef []float64, cols [][]float64, r int) float64 {
	v := coef[0]
	for t, col := range cols {
		v += coef[t+1] * col[r]
	}
	return v
}

// smapeTerm is one row's contribution to the symmetric mean absolute
// percentage error; a row whose prediction and actual value are both 0
// contributes nothing.
func smapeTerm(pred, actual float64) float64 {
	den := math.Abs(pred) + math.Abs(actual)
	if den == 0 {
		return 0
	}
	return 2 * math.Abs(pred-actual) / den
}
