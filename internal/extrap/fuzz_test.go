package extrap

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzFitDifferential requires the frame-based fitter and the map-based
// oracle (reference_test.go) to return bit-identical results on seeded
// random datasets: the constant, every coefficient and term shape, RSS,
// SMAPE, CV and the error text, for ModelSingle and ModelMulti under both
// selection policies and every kind of prior. The committed corpus under
// testdata/fuzz replays as regression cases in ordinary test runs.
func FuzzFitDifferential(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint16(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, knobs uint16) {
		c := randomFitCase(seed, knobs)
		got, gotErr := ModelMulti(c.data, c.opt, c.prior)
		want, wantErr := refModelMulti(c.data, c.opt, c.prior)
		sameFit(t, "ModelMulti", got, gotErr, want, wantErr)

		got, gotErr = ModelSingle(c.data, c.param, c.opt)
		want, wantErr = refModelSingle(c.data, c.param, c.opt)
		sameFit(t, "ModelSingle("+c.param+")", got, gotErr, want, wantErr)
	})
}

// fitCase is one generated differential input.
type fitCase struct {
	data  *Dataset
	param string
	opt   Options
	prior *Prior
}

// randomFitCase derives a dataset, options and prior from the fuzz input.
// knobs selects the shape of the case; seed drives the values.
//
//	bits 0-1  parameter count (1-3)
//	bits 2-4  metric regime
//	bits 5-6  prior: nil, Allowed subset, ForceConstant, no products
//	bit  7    selection policy
//	bits 8-9  search space: default or a small custom one
//	bit  10   points on the full grid of the levels, not drawn at random
func randomFitCase(seed int64, knobs uint16) fitCase {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"p", "size", "n"}[:1+int(knobs&3)%3]
	// Few distinct values per parameter, so points repeat configurations
	// and single-parameter slices have something to hold at the minimum.
	pool := []float64{0, 0.5, 1, 2, 3, 5, 6, 7, 10, 100}
	levels := make(map[string][]float64, len(names))
	for _, n := range names {
		k := 1 + rng.Intn(5)
		for i := 0; i < k; i++ {
			levels[n] = append(levels[n], pool[rng.Intn(len(pool))])
		}
	}
	var cfgs []map[string]float64
	if knobs&(1<<10) != 0 {
		cfgs = []map[string]float64{{}}
		for _, n := range names {
			var next []map[string]float64
			for _, c := range cfgs {
				for _, v := range levels[n] {
					cfg := map[string]float64{n: v}
					for k, x := range c {
						cfg[k] = x
					}
					next = append(next, cfg)
				}
			}
			cfgs = next
		}
	} else {
		for i := 1 + rng.Intn(20); i > 0; i-- {
			cfg := make(map[string]float64, len(names))
			for _, n := range names {
				cfg[n] = levels[n][rng.Intn(len(levels[n]))]
			}
			cfgs = append(cfgs, cfg)
		}
	}
	shape := make(map[string]PowLog, len(names))
	for _, n := range names {
		shape[n] = PowLog{I: float64(rng.Intn(3)), J: float64(rng.Intn(2))}
	}
	d := NewDataset(names...)
	regime := (knobs >> 2) & 7
	for _, cfg := range cfgs {
		base := 0.0
		switch regime {
		case 0: // an additive PMNF function of the parameters
			base = 5
			for _, n := range names {
				base += 3 * shape[n].Eval(cfg[n])
			}
		case 1: // a multiplicative one
			base = 1
			for _, n := range names {
				base *= shape[n].Eval(cfg[n])
			}
			base += 5
		case 2: // a constant
			base = 42
		case 3: // exact zeros, so SMAPE meets zero denominators
			if rng.Intn(2) == 0 {
				base = 0
			} else {
				base = float64(rng.Intn(4))
			}
		case 4: // values near the float64 limit, so sums overflow
			base = math.MaxFloat64 / float64(1+rng.Intn(2))
		default: // unstructured values over many magnitudes
			base = math.Pow(10, float64(rng.Intn(12)-4)) * rng.Float64()
		}
		reps := 1 + rng.Intn(4)
		vals := make([]float64, reps)
		for r := range vals {
			vals[r] = base
			if regime != 3 && regime != 4 {
				vals[r] *= 1 + 0.05*rng.NormFloat64()
			}
		}
		d.Add(cfg, vals...)
	}

	var prior *Prior
	switch (knobs >> 5) & 3 {
	case 1:
		prior = &Prior{Allowed: map[string]bool{}}
		for _, n := range names {
			if rng.Intn(2) == 0 {
				prior.Allowed[n] = true
			}
		}
	case 2:
		prior = &Prior{ForceConstant: true}
	case 3:
		prior = &Prior{MulOK: func(group []string) bool { return len(group) < 2 }}
	}

	opt := DefaultOptions()
	if knobs&(1<<7) != 0 {
		opt.Selection = SelectCV
	}
	if (knobs>>8)&3 != 0 {
		opt.Space = Space{
			I:        []float64{0, 0.5, 1, 2},
			J:        []float64{0, 1},
			MaxTerms: int((knobs >> 8) & 3),
		}
		opt.CandidateTerms = rng.Intn(4)
	}

	// ModelSingle also runs over a parameter the dataset does not declare.
	param := "absent"
	if i := rng.Intn(len(names) + 1); i < len(names) {
		param = names[i]
	}
	return fitCase{data: d, param: param, opt: opt, prior: prior}
}

// sameFit fails unless both fitters returned the same error text, or
// models equal bit for bit.
func sameFit(t *testing.T, label string, got *Model, gotErr error, want *Model, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, oracle %v", label, gotErr, wantErr)
		}
		return
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Constant, want.Constant) || !same(got.RSS, want.RSS) ||
		!same(got.SMAPE, want.SMAPE) || !same(got.CV, want.CV) || len(got.Terms) != len(want.Terms) {
		t.Fatalf("%s: got %s (rss %v smape %v cv %v), oracle %s (rss %v smape %v cv %v)",
			label, got, got.RSS, got.SMAPE, got.CV, want, want.RSS, want.SMAPE, want.CV)
	}
	for i, gt := range got.Terms {
		wt := want.Terms[i]
		if !same(gt.Coeff, wt.Coeff) || len(gt.Factors) != len(wt.Factors) {
			t.Fatalf("%s: term %d is %s, oracle %s", label, i, gt, wt)
		}
		for name, pl := range gt.Factors {
			if wpl, ok := wt.Factors[name]; !ok || !same(pl.I, wpl.I) || !same(pl.J, wpl.J) {
				t.Fatalf("%s: term %d factor %s^%+v, oracle %+v", label, i, name, pl, wt.Factors)
			}
		}
	}
}
