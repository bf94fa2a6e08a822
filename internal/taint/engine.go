package taint

import (
	"sort"
)

// LoopKey identifies one natural loop in one calling context.
type LoopKey struct {
	Func     string
	LoopID   int
	CallPath string
}

// LoopRecord accumulates sink observations for a loop: the union of labels
// seen on its exit-branch conditions and the dynamic iteration count.
type LoopRecord struct {
	Key        LoopKey
	Header     int
	Labels     Label
	Iterations int64
	// Entries counts how many times the loop was entered (trip starts).
	Entries int64
}

// BranchKey identifies one conditional branch site in one function.
type BranchKey struct {
	Func  string
	Block int
}

// BranchRecord tracks coverage and taint of a conditional branch, feeding
// the algorithm-selection and experiment-validation analyses (Sections 4.4
// and C2): branches whose condition is tainted and which take only one
// direction within a run indicate parameter-driven algorithm selection.
type BranchRecord struct {
	Key      BranchKey
	Labels   Label
	Taken    int64
	NotTaken int64
	// IsLoopExit marks branches that are natural-loop exits; those are
	// reported through LoopRecord instead of the algorithm-selection list.
	IsLoopExit bool
}

// LibCallKey identifies one library call site by calling context.
type LibCallKey struct {
	Caller   string
	Callee   string
	CallPath string
}

// LibCallRecord accumulates the parametric dependencies of a library call:
// the implicit parameters from the database plus the labels of the
// performance-relevant arguments (e.g. the count of an MPI send), per
// Section 5.3.
type LibCallRecord struct {
	Key    LibCallKey
	Labels Label
	Count  int64
}

// Engine owns the label table and all dynamic records of one tainted run.
type Engine struct {
	Table *Table

	// ControlFlow enables control-flow (explicit control dependence)
	// propagation; the paper's extension of DataFlowSanitizer (Section 5.2).
	ControlFlow bool

	Loops    map[LoopKey]*LoopRecord
	Branches map[BranchKey]*BranchRecord
	LibCalls map[LibCallKey]*LibCallRecord

	// RecursionWarnings lists functions detected on a recursive call chain
	// during execution; the analysis over-approximates there (Section 4.1).
	RecursionWarnings map[string]bool
}

// NewEngine returns an engine with control-flow propagation enabled, the
// configuration Perf-Taint requires to capture all dependencies.
func NewEngine() *Engine {
	return &Engine{
		Table:             NewTable(),
		ControlFlow:       true,
		Loops:             make(map[LoopKey]*LoopRecord),
		Branches:          make(map[BranchKey]*BranchRecord),
		LibCalls:          make(map[LibCallKey]*LibCallRecord),
		RecursionWarnings: make(map[string]bool),
	}
}

// CallerFromPath extracts the calling function from a call path ending in
// callee: the path component immediately before the final "/callee".
func CallerFromPath(callPath, callee string) string {
	caller := ""
	if i := len(callPath) - len(callee) - 1; i > 0 {
		head := callPath[:i]
		for j := len(head) - 1; j >= 0; j-- {
			if head[j] == '/' {
				caller = head[j+1:]
				break
			}
		}
		if caller == "" {
			caller = head
		}
	}
	return caller
}

// LibCallRec resolves (creating on first use) the record of the library call
// site identified by caller, callee, and call path. The fast interpreter
// resolves once per interned call path and then updates the record with
// plain field writes; the string-keyed map stays the source of truth so
// reporting is unchanged.
func (e *Engine) LibCallRec(caller, callee, callPath string) *LibCallRecord {
	k := LibCallKey{Caller: caller, Callee: callee, CallPath: callPath}
	r := e.LibCalls[k]
	if r == nil {
		r = &LibCallRecord{Key: k}
		e.LibCalls[k] = r
	}
	return r
}

// RecordLibCall notes an execution of the library function callee with the
// given dependency labels; callPath is the interpreter call path ending in
// callee.
func (e *Engine) RecordLibCall(callPath, callee string, labels Label) {
	r := e.LibCallRec(CallerFromPath(callPath, callee), callee, callPath)
	r.Labels |= labels
	r.Count++
}

// FuncLibDeps aggregates, per calling function, the union of parameter
// names its library calls depend on.
func (e *Engine) FuncLibDeps() map[string][]string {
	masks := make(map[string]Label)
	for k, r := range e.LibCalls {
		if k.Caller == "" {
			continue
		}
		masks[k.Caller] |= r.Labels
	}
	out := make(map[string][]string, len(masks))
	for fn, l := range masks {
		out[fn] = e.Table.Expand(l)
	}
	return out
}

// LoopRec resolves (creating on first use) the record of loop loopID of fn
// in calling context callPath. Records are created lazily — only loops that
// actually fire an event appear in Loops — so resolution order is identical
// between the reference and fast interpreters.
func (e *Engine) LoopRec(fn string, loopID, header int, callPath string) *LoopRecord {
	k := LoopKey{Func: fn, LoopID: loopID, CallPath: callPath}
	r := e.Loops[k]
	if r == nil {
		r = &LoopRecord{Key: k, Header: header}
		e.Loops[k] = r
	}
	return r
}

// RecordLoopExit is the taint sink for loop exit conditions (Section 4.1):
// it unions the condition label into the loop's record for the current call
// path.
func (e *Engine) RecordLoopExit(fn string, loopID, header int, callPath string, cond Label) {
	r := e.LoopRec(fn, loopID, header, callPath)
	r.Labels |= cond
}

// RecordIteration counts one executed back edge of the loop.
func (e *Engine) RecordIteration(fn string, loopID, header int, callPath string) {
	e.LoopRec(fn, loopID, header, callPath).Iterations++
}

// RecordEntry counts one loop entry (used to derive per-entry trip counts).
func (e *Engine) RecordEntry(fn string, loopID, header int, callPath string) {
	e.LoopRec(fn, loopID, header, callPath).Entries++
}

// BranchRec resolves (creating on first use) the record of the conditional
// branch terminating block of fn. Branch records are context-insensitive, so
// the fast interpreter caches the pointer per function per run.
func (e *Engine) BranchRec(fn string, block int) *BranchRecord {
	k := BranchKey{Func: fn, Block: block}
	r := e.Branches[k]
	if r == nil {
		r = &BranchRecord{Key: k}
		e.Branches[k] = r
	}
	return r
}

// RecordBranch tracks a conditional branch execution outside loop-exit
// position (or marks it as loop exit), with its condition label.
func (e *Engine) RecordBranch(fn string, block int, cond Label, taken, isLoopExit bool) {
	r := e.BranchRec(fn, block)
	r.Labels |= cond
	r.IsLoopExit = r.IsLoopExit || isLoopExit
	if taken {
		r.Taken++
	} else {
		r.NotTaken++
	}
}

// WarnRecursion records that fn participated in recursion at runtime.
func (e *Engine) WarnRecursion(fn string) { e.RecursionWarnings[fn] = true }

// FuncLoopDeps aggregates, per function, the union of parameter names that
// taint any of its loops (across all call paths).
func (e *Engine) FuncLoopDeps() map[string][]string {
	masks := make(map[string]Label)
	for k, r := range e.Loops {
		masks[k.Func] |= r.Labels
	}
	out := make(map[string][]string, len(masks))
	for fn, l := range masks {
		out[fn] = e.Table.Expand(l)
	}
	return out
}

// FuncLoopIterations sums, per function, the dynamic iterations of all
// its loops across all call paths. A function whose loops were entered
// but never iterated maps to 0.
func (e *Engine) FuncLoopIterations() map[string]int64 {
	iters := make(map[string]int64)
	for k, r := range e.Loops {
		iters[k.Func] += r.Iterations
	}
	return iters
}

// TaintedSelections returns branches with tainted conditions that are not
// loop exits and that executed only one direction — candidate
// parameter-based algorithm selections / unvisited code paths (Section 4.4).
func (e *Engine) TaintedSelections() []*BranchRecord {
	var out []*BranchRecord
	for _, r := range e.Branches {
		if r.IsLoopExit || r.Labels == None {
			continue
		}
		if r.Taken == 0 || r.NotTaken == 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Func != out[j].Key.Func {
			return out[i].Key.Func < out[j].Key.Func
		}
		return out[i].Key.Block < out[j].Key.Block
	})
	return out
}

// SortedLoops returns the loop records in deterministic order.
func (e *Engine) SortedLoops() []*LoopRecord {
	out := make([]*LoopRecord, 0, len(e.Loops))
	for _, r := range e.Loops {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.LoopID != b.LoopID {
			return a.LoopID < b.LoopID
		}
		return a.CallPath < b.CallPath
	})
	return out
}
