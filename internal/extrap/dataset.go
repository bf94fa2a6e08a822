package extrap

import (
	"fmt"
	"math"
	"sort"
)

// Point is one measured configuration: parameter values and the repeated
// measurements of the metric (execution time, visits, ...).
type Point struct {
	Params map[string]float64
	Values []float64
}

// Mean returns the average of the repeats.
func (p Point) Mean() float64 {
	if len(p.Values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range p.Values {
		s += v
	}
	return s / float64(len(p.Values))
}

// CoV returns the coefficient of variation of the repeats (stddev/mean);
// zero-mean points return +Inf so they fail any noise filter.
func (p Point) CoV() float64 {
	m := p.Mean()
	if len(p.Values) < 2 {
		return 0
	}
	if m == 0 {
		return math.Inf(1)
	}
	ss := 0.0
	for _, v := range p.Values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(p.Values)-1)) / math.Abs(m)
}

// Dataset is a set of measurement points over named parameters.
type Dataset struct {
	ParamNames []string
	Points     []Point
}

// NewDataset declares the parameter names of a measurement set.
func NewDataset(params ...string) *Dataset {
	ps := append([]string(nil), params...)
	sort.Strings(ps)
	return &Dataset{ParamNames: ps}
}

// Add appends one configuration with its repeated measurements.
func (d *Dataset) Add(params map[string]float64, values ...float64) {
	cp := make(map[string]float64, len(params))
	for k, v := range params {
		cp[k] = v
	}
	d.Points = append(d.Points, Point{Params: cp, Values: append([]float64(nil), values...)})
}

// MaxCoV returns the largest coefficient of variation across points; the
// paper excludes functions whose data exceeds 0.1 as too noisy (B1).
func (d *Dataset) MaxCoV() float64 {
	worst := 0.0
	for _, p := range d.Points {
		if c := p.CoV(); c > worst {
			worst = c
		}
	}
	return worst
}

// NoiseCutoff is the coefficient-of-variation threshold above which the
// paper considers measurements unreliable.
const NoiseCutoff = 0.1

// Reliable reports whether all points pass the CoV filter.
func (d *Dataset) Reliable() bool { return d.MaxCoV() <= NoiseCutoff }

// Validate checks that every point provides every declared parameter and
// that no measurement or parameter value is NaN or infinite — a single
// non-finite value would silently poison every normal-equation solve.
func (d *Dataset) Validate() error {
	if len(d.Points) == 0 {
		return fmt.Errorf("extrap: empty dataset")
	}
	for i, p := range d.Points {
		if len(p.Values) == 0 {
			return fmt.Errorf("extrap: point %d has no measurements", i)
		}
		for _, v := range p.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("extrap: point %d has non-finite measurement %v", i, v)
			}
		}
		for _, name := range d.ParamNames {
			v, ok := p.Params[name]
			if !ok {
				return fmt.Errorf("extrap: point %d missing parameter %q", i, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("extrap: point %d has non-finite value %v for parameter %q", i, v, name)
			}
		}
	}
	return nil
}
