// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of model extractions for a fixed time, checks every output,
// prints each metric by name with its unit and sample count, and ends
// with one JSON result line:
//
//	bash perfbench/run.sh --workload extract-lulesh --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run times the calls into each layer and
// the result carries the per-layer metrics. README.md explains the
// workloads and what each metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart approximates the process start for the first set-up's
// time-from-start figure.
var processStart = time.Now()

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, which keeps one slow first set-up from moving it.
const setupRepeats = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out holds the daemon's temporary cache directories and the span
	// files, inside the checkout the benchmark runs from.
	out string
}

// metric is one reported figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one set of inputs: how to set it up and how to measure it
// with tracing off. The traced run (traceWorkload) serves every workload.
type workload struct {
	name    string
	setup   func(o options, t *tally) (bench, error)
	measure func(o options, b bench, t *tally) (*report, error)
}

// bench is what a workload's set-up produced: the cases it extracts.
type bench interface{ cases() []*workCase }

var workloads = []workload{
	{name: "extract-lulesh", setup: setupInProcess(luleshCase), measure: measureInProcess},
	{name: "extract-milc", setup: setupInProcess(milcCase), measure: measureInProcess},
	{name: "serve-corpus", setup: setupServe, measure: measureServe},
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: extract-lulesh, extract-milc or serve-corpus")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every extraction's noise seed and request seed derives from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "0 measures end-to-end metrics; 1 runs the traced per-layer breakdown")
	flag.Parse()
	o.trace = trace == 1
	o.out = filepath.Join(".bench_build", "perfbench")
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if o.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	res, err := run(o, w)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run sets the workload up setupRepeats times, measures it with the
// last set-up, and assembles the result line.
func run(o options, w *workload) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	t := &tally{}
	var setups []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if b, err = w.setup(o, t); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	measure := w.measure
	if o.trace {
		measure = traceWorkload
	}
	host0 := readHostTimes()
	rep, err := measure(o, b, t)
	host := readHostTimes().sub(host0)
	if err != nil {
		for _, p := range t.problems {
			fmt.Fprintln(os.Stderr, "FAILED:", p)
		}
		return nil, err
	}
	if !o.trace {
		rep.add("setup_s", "s", setups...)
	}

	fmt.Printf("set-up: %d runs, first from process start %.3f s, median %.3f s\n",
		len(setups), setups[0], median(setups))
	printDiscrepancies(t)
	fmt.Printf("host during the measured phase: %.2f s stolen by the hypervisor, %.2f s in I/O wait (all CPUs)\n",
		host.steal, host.iowait)
	rep.print()
	fmt.Printf("operations: %d attempted, %d failed, error_ratio %.4f\n",
		t.attempted, t.failed, t.errorRatio())
	for _, p := range t.problems {
		fmt.Println("FAILED:", p)
	}
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   rep.metrics(),
	}, nil
}

// tally counts attempted and failed operations. A failure is an error
// return, a non-2xx status, an in-band error line or a failed output
// check.
type tally struct {
	attempted, failed int
	problems          []string
	// discrepancies counts the design points each known discrepancy
	// explained in this run.
	discrepancies map[string]int
}

// op records one operation; it reports whether the operation succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, err.Error())
	}
	return false
}

func (t *tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// report collects the samples of each metric.
type report struct {
	order []string
	dists map[string]*dist
}

type dist struct {
	unit string
	vals []float64
	// single marks a metric reported as one value (a ratio or a peak)
	// rather than as a distribution.
	single bool
	// mean marks a distribution reported by its mean rather than its
	// median.
	mean bool
}

func newReport() *report { return &report{dists: make(map[string]*dist)} }

func (r *report) get(name, unit string) *dist {
	d := r.dists[name]
	if d == nil {
		d = &dist{unit: unit}
		r.dists[name] = d
		r.order = append(r.order, name)
	}
	return d
}

// add appends samples; the metric reports their median.
func (r *report) add(name, unit string, vals ...float64) {
	d := r.get(name, unit)
	d.vals = append(d.vals, vals...)
}

// addMean appends samples; the metric reports their mean. A latency
// that the host's changing speed splits into two modes has a median that
// jumps between them from run to run; its mean moves only with the share
// of time spent in each.
func (r *report) addMean(name, unit string, vals ...float64) {
	d := r.get(name, unit)
	d.vals = append(d.vals, vals...)
	d.mean = true
}

// set records a metric measured once.
func (r *report) set(name, unit string, v float64) {
	d := r.get(name, unit)
	d.vals = []float64{v}
	d.single = true
}

func (r *report) value(name string) float64 {
	d := r.dists[name]
	if d == nil || len(d.vals) == 0 {
		return 0
	}
	if d.single {
		return d.vals[0]
	}
	if d.mean {
		return sum(d.vals) / float64(len(d.vals))
	}
	return median(d.vals)
}

func (r *report) metrics() map[string]metric {
	out := make(map[string]metric, len(r.order))
	for _, name := range r.order {
		out[name] = metric{Value: r.value(name), Unit: r.dists[name].unit}
	}
	return out
}

func (r *report) print() {
	for _, name := range r.order {
		d := r.dists[name]
		if d.single {
			fmt.Printf("  %-28s %14.4f %-6s\n", name, d.vals[0], d.unit)
			continue
		}
		stat := "median"
		if d.mean {
			stat = "mean"
		}
		fmt.Printf("  %-28s %14.4f %-6s %s of n=%d\n", name, r.value(name), d.unit, stat, len(d.vals))
	}
}

// latencies adds the median and the tail metric of one latency sample
// set: name_p50 and name_tail, where the tail is the highest percentile
// that has at least tailBeyond samples beyond it.
func (r *report) latencies(prefix string, ms []float64) {
	r.set(prefix+"_p50", "ms", median(ms))
	v, label := tail(ms)
	r.set(prefix+"_tail", "ms", v)
	fmt.Printf("  %s_tail is %s of n=%d samples\n", prefix, label, len(ms))
}

const tailBeyond = 10

// tail returns the highest order statistic with at least tailBeyond
// samples above it, and names its percentile. With fewer than
// tailBeyond+1 samples no such statistic exists and the maximum is
// returned and named as such.
func tail(vals []float64) (float64, string) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, "empty"
	}
	if n <= tailBeyond {
		return s[n-1], fmt.Sprintf("the maximum (fewer than %d samples)", tailBeyond+1)
	}
	i := n - tailBeyond - 1
	return s[i], fmt.Sprintf("p%.1f (%d samples beyond)", 100*float64(i+1)/float64(n), tailBeyond)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// hostTimes are the machine-wide CPU seconds a shared host takes from
// the benchmark: time the hypervisor ran other guests (steal) and time
// spent waiting on I/O. They explain a disturbed run; zero when
// /proc/stat is unavailable.
type hostTimes struct{ steal, iowait float64 }

func readHostTimes() hostTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTimes{}
	}
	ticks := func(i int) float64 {
		v, _ := strconv.ParseFloat(f[i], 64)
		return v / 100 // USER_HZ
	}
	return hostTimes{steal: ticks(8), iowait: ticks(5)}
}

func (h hostTimes) sub(o hostTimes) hostTimes {
	return hostTimes{steal: h.steal - o.steal, iowait: h.iowait - o.iowait}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// peakRSS collects the peak resident set size of each measured
// operation. The process-lifetime peak is the maximum over a run and
// moves with where the garbage collector happened to cut one operation's
// heap; the median over operations does not. Linux resets the peak
// (VmHWM) to the current size when a process writes 5 to its
// /proc/self/clear_refs; where that fails, the run reports the process
// peak instead and says so.
type peakRSS struct {
	perOp bool
	vals  []float64
}

func newPeakRSS() *peakRSS {
	return &peakRSS{perOp: os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil}
}

// start opens an operation's window.
func (p *peakRSS) start() {
	if p.perOp {
		p.perOp = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	}
}

// stop records the peak since the last start.
func (p *peakRSS) stop() {
	if !p.perOp {
		return
	}
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kib, perr := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if perr == nil {
					p.vals = append(p.vals, kib/1024)
					return
				}
			}
		}
	}
	p.perOp = false
}

// report adds peak_rss_mb: the median per-operation peak, or the process
// peak where per-operation peaks are unavailable.
func (p *peakRSS) report(r *report) {
	if p.perOp && len(p.vals) > 0 {
		r.add("peak_rss_mb", "MiB", p.vals...)
		return
	}
	fmt.Println("  peak_rss_mb is the process peak: per-operation peaks are unavailable here")
	r.set("peak_rss_mb", "MiB", peakRSSMiB())
}

// deriveSeed mixes the workload seed with salts into a positive noise
// seed (splitmix64), so every extraction's seed follows from --seed
// alone.
func deriveSeed(seed int64, salts ...int64) int64 {
	x := uint64(seed)
	for _, s := range salts {
		x ^= uint64(s) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x>>2) + 1
}

// errorsJoin keeps at most a few errors of a failing check readable.
func errorsJoin(errs []error) error {
	if len(errs) > 3 {
		errs = append(errs[:3], fmt.Errorf("... and %d more", len(errs)-3))
	}
	return errors.Join(errs...)
}
