// Command perfbench is the repository's end-to-end benchmark. It drives the
// system from outside, through train.Trainer.Fit and its hooks, the real
// cmd/serve binary over loopback HTTP, and the public functions of the
// tensor, nn, optim, checkpoint and core packages, and checks every output
// it gets back.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload train-conv-async --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of one traced run. The last line of standard output is
// one JSON object {"correct","attempted","failed","metrics"}; the lines
// before it name every metric with its unit and sample count. The exit code
// is 0 when every output check passed, 1 when one failed and 2 when the run
// could not be made. README.md documents the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	Seed     int64
	Seconds  float64
	Trace    bool
	Procs    int    // nproc: connections, kernel workers and threads of load
	ServeBin string // the built cmd/serve binary
	WorkDir  string // scratch files of this run (removed at exit)
	TraceOut string // where a traced run writes its spans
}

// workload runs one workload and returns its result; an error means the run
// could not be made (no result is printed).
type workload func(ctx context.Context, c runConfig, env envStamp) (*result, error)

var workloads = map[string]workload{
	"train-conv-async": func(ctx context.Context, c runConfig, env envStamp) (*result, error) {
		return runTrain(ctx, convAsync, c, env)
	},
	"train-dense-syncgrad": func(ctx context.Context, c runConfig, env envStamp) (*result, error) {
		return runTrain(ctx, denseSyncGrad, c, env)
	},
	"serve-conv-mixed": runServe,
}

// envStamp identifies the toolchain and machine shape behind a result.
type envStamp struct {
	Go         string `json:"go"`
	GOAMD64    string `json:"goamd64"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() envStamp {
	e := envStamp{Go: runtime.Version(), GOAMD64: "v1", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				e.GOAMD64 = s.Value
			}
		}
	}
	return e
}

// result collects a run's metrics and output checks.
type result struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	counts            map[string]int
	units             map[string]string
}

func newResult() *result {
	return &result{values: map[string]float64{}, counts: map[string]int{}, units: map[string]string{}}
}

// set records metric name measured over n samples.
func (r *result) set(name, unit string, v float64, n int) {
	r.values[name], r.units[name], r.counts[name] = v, unit, n
}

// setDist records name_p50 and name_p99 style metrics from d where the
// sample supports them.
func (r *result) setDist(p50, p99, unit string, d dist) {
	if d.Has50 {
		r.set(p50, unit, d.P50, d.N)
	}
	if d.Has99 {
		r.set(p99, unit, d.P99, d.N)
	}
}

// check counts one output check; a false ok is a failure with its reason.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) correct() bool { return r.failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every recorded metric as a line with its unit and sample
// count, then the final JSON line holding the metrics of defs.
func (r *result) emit(defs []metricDef, env envStamp) {
	r.set("fail_ratio", "fraction", float64(r.failed)/float64(max(r.attempted, 1)), r.attempted)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	for _, f := range r.failures {
		fmt.Printf("check failed: %s\n", f)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6g %-10s n=%d\n", n, r.values[n], r.units[n], r.counts[n])
	}
	out := map[string]jsonMetric{}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			fmt.Printf("missing %s: the run's sample does not support it\n", d.Name)
			continue
		}
		out[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	fmt.Println(string(b))
}

// finite reports whether every value is a finite number.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = one traced run printing the per-layer metrics")
	serveBin := flag.String("serve-bin", ".bench_build/serve", "built cmd/serve binary")
	work := flag.String("work", ".bench_build/work", "directory for this run's scratch files")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory traced runs write their spans to")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	env := currentEnv()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	workDir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	c := runConfig{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Procs: env.NProc,
		ServeBin: *serveBin, WorkDir: workDir,
		TraceOut: filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", *name, *seed)),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	res, err := wl(ctx, c, env)
	cancel()
	_ = os.RemoveAll(workDir) // scratch only; a leftover sits in the ignored .bench_build
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defs := endToEnd
	if c.Trace {
		defs = perLayer
	}
	res.emit(defs, env)
	if !res.correct() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
