package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark contract and
// against the workloads and metrics this harness actually runs and emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, want ≤ 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(keys))
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command element %q", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths, want 1..16", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is illegal or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(b.Workloads))
	}
	var wls []string
	for _, w := range b.Workloads {
		name(w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	sort.Strings(wls)
	if strings.Join(wls, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, harness runs %v", wls, workloadNames())
	}
	check := func(list []benchMetric, defs []metricDef, lo, hi int, bounded bool) {
		if len(list) < lo || len(list) > hi {
			t.Errorf("%d metrics, want %d..%d", len(list), lo, hi)
		}
		if len(list) != len(defs) {
			t.Errorf("%d metrics listed, harness emits %d", len(list), len(defs))
		}
		for i, m := range list {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, *m.Bound)
			}
			if i < len(defs) && (defs[i].Name != m.Name || defs[i].Unit != m.Unit) {
				t.Errorf("metric %d: listed %s [%s], harness emits %s [%s]", i, m.Name, m.Unit, defs[i].Name, defs[i].Unit)
			}
		}
	}
	check(b.EndToEnd, endToEnd, 1, 16, true)
	check(b.PerLayer, perLayer, 1, 128, false)
	var setup *benchMetric
	for i := range b.EndToEnd {
		if b.EndToEnd[i].Name == "setup_s" {
			setup = &b.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s [s, lower] is required")
	}
	for _, m := range b.EndToEnd {
		if m.Name != "setup_s" && *m.Bound > *setup.Bound {
			t.Errorf("%s bound %v exceeds setup_s's %v", m.Name, *m.Bound, *setup.Bound)
		}
	}
}

// TestPercentileRule checks that a percentile is reported only with at least
// ten samples beyond it, together with its sample count.
func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: quantile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n            int
		has50, has99 bool
	}{{0, false, false}, {19, false, false}, {20, true, false}, {999, true, false}, {1000, true, true}} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.Has50 != tc.has50 || d.Has99 != tc.has99 {
			t.Errorf("n=%d: got N=%d has50=%v has99=%v, want has50=%v has99=%v", tc.n, d.N, d.Has50, d.Has99, tc.has50, tc.has99)
		}
	}
	d := summarize(seq(1001)) // values 1..1001
	if d.P50 != 501 || math.Abs(d.P99-991) > 1e-9 {
		t.Errorf("p50=%v p99=%v, want 501 and 991", d.P50, d.P99)
	}
	r := newResult()
	r.setDist("a_p50", "a_p99", "ms", summarize(seq(500)))
	if _, ok := r.values["a_p99"]; ok || r.counts["a_p50"] != 500 {
		t.Errorf("setDist reported an unsupported p99 or lost the count: %v %v", r.values, r.counts)
	}
}

// TestDenseLossBitEqual checks that train-dense-syncgrad is deterministic:
// two fits from the same seed give bit-equal training loss.
func TestDenseLossBitEqual(t *testing.T) {
	c := runConfig{Seed: 7, Procs: 2, WorkDir: t.TempDir()}
	var losses [2]float64
	for i := range losses {
		o, err := fit(context.Background(), denseSyncGrad, c, 256, nil)
		if err != nil {
			t.Fatal(err)
		}
		losses[i] = o.rep.TrainLoss
	}
	if math.Float64bits(losses[0]) != math.Float64bits(losses[1]) || !finite(losses[0]) {
		t.Errorf("train_loss %v then %v, want bit-equal", losses[0], losses[1])
	}
}

func TestAllowedSets(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	swaps := []swapRec{{target: 1, start: at(10), end: at(20), ok: true}, {target: 0, start: at(40), end: at(50), ok: true}}
	for _, tc := range []struct {
		sent, recv int
		want       [2]bool
	}{
		{0, 5, [2]bool{true, false}},   // before any swap: the starting set
		{12, 15, [2]bool{true, true}},  // during the first swap: either
		{25, 30, [2]bool{false, true}}, // after it: the new set only
		{35, 45, [2]bool{true, true}},  // overlapping the swap back
	} {
		if got := allowedSets(reqRec{sent: at(tc.sent), recv: at(tc.recv)}, swaps); got != tc.want {
			t.Errorf("request %d..%dms: allowed %v, want %v", tc.sent, tc.recv, got, tc.want)
		}
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	mk := func(rate, ms float64) rung {
		recs := make([]reqRec, 1000)
		t0 := time.Now()
		for i := range recs {
			d := time.Duration(ms * float64(time.Millisecond))
			recs[i] = reqRec{due: t0, sent: t0, recv: t0.Add(d), status: 200}
		}
		return rung{rate, recs}
	}
	low := dist{P99: 5, Has99: true}
	high := dist{P99: 10, Has99: true}
	got := maxRate(low, high, []rung{mk(400, 20), mk(440, 60)})
	// 400 passes at 20 ms; 440 fails at 60 ms; the limit sits half way.
	if want := 400 + 40*(latencyLimit-20)/(60-20); math.Abs(got-want) > 1e-9 {
		t.Errorf("maxRate = %v, want %v", got, want)
	}
}

// smoke runs one workload briefly in-process and requires every output
// check to pass.
func smoke(t *testing.T, name string, seconds float64, traced bool) {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	dir := t.TempDir()
	c := runConfig{Seed: 3, Seconds: seconds, Trace: traced, Procs: currentEnv().NProc,
		WorkDir: dir, TraceOut: filepath.Join(dir, "spans.json")}
	if strings.HasPrefix(name, "serve") {
		c.ServeBin = filepath.Join(dir, "serve")
		out, err := exec.Command("go", "build", "-o", c.ServeBin, "repro/cmd/serve").CombinedOutput()
		if err != nil {
			t.Fatalf("build serve: %v\n%s", err, out)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	r, err := workloads[name](ctx, c, currentEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() || r.attempted == 0 {
		t.Fatalf("%s: %d of %d checks failed: %v", name, r.failed, r.attempted, r.failures)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if _, err := os.Stat(c.TraceOut); err != nil {
			t.Errorf("no spans written: %v", err)
		}
	}
	for _, d := range defs {
		if v, ok := r.values[d.Name]; ok && !finite(v) {
			t.Errorf("%s = %v", d.Name, v)
		}
	}
}

func TestSmokeTrainConvAsync(t *testing.T)     { smoke(t, "train-conv-async", 20, false) }
func TestSmokeTrainDenseSyncGrad(t *testing.T) { smoke(t, "train-dense-syncgrad", 15, true) }
func TestSmokeServeConvMixed(t *testing.T)     { smoke(t, "serve-conv-mixed", 3, false) }
func TestSmokeServeTraced(t *testing.T)        { smoke(t, "serve-conv-mixed", 3, true) }
