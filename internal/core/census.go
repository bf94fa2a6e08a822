package core

import (
	"repro/internal/apps"
	"repro/internal/taint"
)

// Census is the two-phase identification summary of Table 2.
type Census struct {
	// FunctionsTotal counts spec functions plus used MPI routines, matching
	// the paper's accounting.
	FunctionsTotal    int
	PrunedStatically  int
	PrunedDynamically int
	Kernels           int
	CommRoutines      int
	MPIFunctions      int

	LoopsTotal          int
	LoopsPrunedStatic   int
	LoopsRelevant       int
	LoopsUntaintedOther int

	// PercentConstant is the share of functions classified constant
	// (statically or dynamically pruned): 86.2% for LULESH, 87.7% for MILC.
	PercentConstant float64
}

// Census derives the Table 2 numbers from the report. modelParams selects
// the loop-relevance column ({p, size} in the paper).
func (r *Report) Census(modelParams []string) Census {
	var c Census
	c.MPIFunctions = len(r.Spec.MPIUsed)
	c.FunctionsTotal = len(r.Spec.Funcs) + c.MPIFunctions

	kindOf := make(map[string]apps.Kind, len(r.Spec.Funcs))
	for _, f := range r.Spec.Funcs {
		kindOf[f.Name] = f.Kind
	}

	for _, f := range r.Spec.Funcs {
		fc := r.Static[f.Name]
		switch {
		case fc != nil && fc.Pruned && !r.Relevant[f.Name]:
			c.PrunedStatically++
		case !r.Relevant[f.Name]:
			c.PrunedDynamically++
		case f.Kind == apps.KindComm:
			c.CommRoutines++
		default:
			c.Kernels++
		}
	}
	c.PercentConstant = 100 * float64(c.PrunedStatically+c.PrunedDynamically) /
		float64(len(r.Spec.Funcs))

	// Loop census over the whole module.
	inModel := make(map[string]bool, len(modelParams))
	for _, p := range modelParams {
		inModel[p] = true
	}
	type loopID struct {
		fn string
		id int
	}
	tainted := make(map[loopID][]string)
	for k, rec := range r.Engine.Loops {
		key := loopID{k.Func, k.LoopID}
		tainted[key] = r.Engine.Table.Expand(
			rec.Labels | labelOfDeps(r, tainted[key]))
	}

	for _, fn := range r.Module.FuncList {
		forest := r.Plan.Forest(fn.Name)
		c.LoopsTotal += len(forest.Loops)
		fc := r.Static[fn.Name]
		for _, l := range forest.Loops {
			if fc != nil {
				if tc, ok := fc.Loops[l.ID]; ok && tc.Constant {
					c.LoopsPrunedStatic++
					continue
				}
			}
			deps := tainted[loopID{fn.Name, l.ID}]
			relevant := false
			for _, d := range deps {
				if inModel[d] {
					relevant = true
					break
				}
			}
			if relevant {
				c.LoopsRelevant++
			} else {
				c.LoopsUntaintedOther++
			}
		}
	}
	return c
}

// labelOfDeps folds an existing dependency list back into a label so
// repeated census passes stay idempotent.
func labelOfDeps(r *Report, deps []string) (l taint.Label) {
	for _, d := range deps {
		l |= r.Engine.Table.Base(d)
	}
	return l
}
