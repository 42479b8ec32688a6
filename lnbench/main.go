// Command lnbench is the repository benchmark. It runs one named
// workload for a fixed wall-time budget, checks every output it
// produces, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a separate traced run), ending with one JSON
// line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads: sim-fig5 and sim-fig4 run the Fig. 5 and Fig. 4
// configuration matrices in process; service-fleet drives a lnucad
// coordinator and two lnucad workers over loopback through
// lightnuca.Client. See README.md for the metric definitions.
//
// Run it through run.sh, which builds this program and lnucad from the
// enclosing checkout:
//
//	bash lnbench/run.sh --workload sim-fig4 --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

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

// e2eMetrics are the end-to-end metrics every workload reports with
// -trace 0, with their units (BENCHMARK.json lists the same).
var e2eMetrics = []named{
	{"mips", "Minstr/s"},
	{"matrix_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"job_ms_mean", "ms"},
	{"sweep_jobs_per_s", "jobs/s"},
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	binDir   string
	workDir  string
}

// runFunc runs one workload and fills res; human-readable notes go to
// the report, which is printed before the JSON line.
type runFunc func(ctx context.Context, o options, res *result, rep *report) error

var workloads = map[string]runFunc{
	"sim-fig5":      runSim,
	"sim-fig4":      runSim,
	"service-fleet": runService,
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceFlag int
	var writePins bool
	flag.StringVar(&o.workload, "workload", "", "workload: sim-fig5, sim-fig4 or service-fleet")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured wall-time budget")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.binDir, "bin", "", "directory holding the built lnucad binary (service-fleet)")
	flag.StringVar(&o.workDir, "work", os.TempDir(), "directory under which each run makes (and removes) its own scratch directory")
	flag.BoolVar(&writePins, "write-pins", false, "rewrite pins.json for the given workload and seed instead of benchmarking")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "lnbench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "lnbench: -seconds must be at least 1")
		return 2
	}
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "lnbench: unknown workload %q\n", o.workload)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if writePins {
		if err := writePinsFor(ctx, o); err != nil {
			fmt.Fprintln(os.Stderr, "lnbench:", err)
			return 1
		}
		return 0
	}

	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lnbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lnbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	res := result{Metrics: map[string]metric{}}
	rep := &report{}
	if err := fn(ctx, o, &res, rep); err != nil {
		rep.print(os.Stdout)
		fmt.Fprintln(os.Stderr, "lnbench:", err)
		return 1
	}
	reportMetrics(rep, &res)
	if err := selectMetrics(&res, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "lnbench:", err)
		return 1
	}
	rep.print(os.Stdout)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lnbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// selectMetrics keeps the metric set the run mode reports: every
// end-to-end metric (each workload must have measured all of them), or
// every per-layer metric, with 0 for the layers this workload does not
// exercise.
func selectMetrics(res *result, traced bool) error {
	out := map[string]metric{}
	want := e2eMetrics
	if traced {
		want = layerMetricNames()
	}
	for _, w := range want {
		m, ok := res.Metrics[w.name]
		switch {
		case !ok && traced:
			m = metric{0, w.unit}
		case !ok:
			return fmt.Errorf("end-to-end metric %s was not measured", w.name)
		case m.Unit != w.unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", w.name, m.Unit, w.unit)
		}
		out[w.name] = m
	}
	res.Metrics = out
	return nil
}

// report collects the human-readable lines printed before the JSON.
type report struct {
	lines []string
}

func (r *report) add(format string, args ...interface{}) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
}

// reportMetrics prints every metric of res, sorted by name.
func reportMetrics(rep *report, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		rep.add("  %-34s %14.6g %s", n, m.Value, m.Unit)
	}
}

// failFrac records failed over attempted operations, both counts shown.
func failFrac(rep *report, res *result) {
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	res.Metrics["fail_frac"] = metric{frac, "ratio"}
	rep.add("  fail_frac %.4g (%d failed of %d attempted)", frac, res.Failed, res.Attempted)
}

// tailMetric records a _tail metric and prints its percentile and the
// sample count next to it.
func tailMetric(rep *report, res *result, name string, xs []float64) {
	pct, v, ok := tail(xs)
	if !ok {
		rep.add("  %s: only %d samples, no tail with ten beyond it", name, len(xs))
		return
	}
	res.Metrics[name] = metric{v, "ms"}
	rep.add("  %s = p%.1f = %.4g ms (n=%d, 10 beyond)", name, pct, v, len(xs))
}
