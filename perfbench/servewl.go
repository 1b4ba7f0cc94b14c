package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/train"
)

// Serving workload parameters. The rates are fixed, not measured per run,
// so that a faster server shows as lower latency and a higher max rate
// rather than as a different workload. They were chosen on a 2-vCPU host
// where two connections saturate the default server at about 490 req/s:
// the low rate leaves requests 10 ms apart, about three service times, so
// they rarely overlap. The high rate is about three fifths of saturation: at
// four fifths, a host slowed by other tenants tips the phase into a growing
// backlog and its p99 jumps a hundredfold.
const (
	lowRate       = 100.0
	highRate      = 280.0
	latencyLimit  = 40.0 // ms: p99 from due time a ladder rung must meet
	rounds        = 3    // alternating low and high parts per untraced run
	swapEvery     = time.Second
	serveImages   = 256 // distinct request inputs
	setupReps     = 3   // server set-ups per run; set-up time is their median
	requestTimout = 10 * time.Second
	// saturateRate is offered in a short part of every round: far past
	// saturation, it keeps every connection busy, so the completion rate is
	// the server's capacity at nproc connections.
	saturateRate = 1000.0
)

// ladder is the fixed rate ladder (req/s) climbed after the high phase; it
// stops at the first rung that misses the latency limit twice.
var ladder = []float64{400, 440, 480, 520, 560, 600}

func resnetBuilder(seed int64) *nn.Network {
	return models.ResNet(models.MiniResNet(20, 4, 8, 10, seed))
}

// weightSet is one of the two checkpoints the swapper alternates between,
// with the benchmark's own forward of every request input under it.
type weightSet struct {
	path    string
	classes []int
}

// serveInputs are a run's generated inputs and expected outputs.
type serveInputs struct {
	bodies [][]byte // JSON request bodies, one per image
	order  []int    // seeded request order over the images
	sets   [2]weightSet
	ckptB  int64 // checkpoint size in bytes
}

// argmax returns the first index of the row's maximum, the server's rule.
func argmax(row []float64) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// makeServeInputs generates the request images, builds the two weight sets
// from the seed, writes them as checkpoints into one dedicated directory and
// computes each set's class for every image.
func makeServeInputs(seed int64, dir string) (*serveInputs, error) {
	_, test := data.GenerateImages(data.CIFAR10Like(8, 0, serveImages, seed))
	in := &serveInputs{}
	for _, s := range test.Samples {
		b, err := json.Marshal(map[string][]float64{"input": s})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
	}
	rng := rand.New(rand.NewSource(seed))
	in.order = rng.Perm(serveImages)
	idx := make([]int, serveImages)
	for i := range idx {
		idx[i] = i
	}
	x, _ := test.Batch(idx)
	swapDir := filepath.Join(dir, "swap")
	if err := os.MkdirAll(swapDir, 0o755); err != nil {
		return nil, err
	}
	for k := range in.sets {
		net := resnetBuilder(2*seed + int64(k))
		path := filepath.Join(swapDir, fmt.Sprintf("weights-%c.ckpt", 'a'+k))
		if err := checkpoint.Save(path, net, nil, 0, nil); err != nil {
			return nil, err
		}
		logits := net.Predict(x)
		n := logits.Shape[1]
		classes := make([]int, serveImages)
		for i := range classes {
			classes[i] = argmax(logits.Data[i*n : (i+1)*n])
		}
		in.sets[k] = weightSet{path: path, classes: classes}
	}
	fi, err := os.Stat(in.sets[1].path)
	if err != nil {
		return nil, err
	}
	in.ckptB = fi.Size()
	return in, nil
}

// serverProc is a running cmd/serve child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer runs the serve binary with default flags apart from the
// model, the address and the starting checkpoint, and waits until /healthz
// answers.
func startServer(ctx context.Context, bin, ckpt, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-model", "resnet", "-addr", addr, "-ckpt", ckpt)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() {
		s.done <- cmd.Wait()
		logf.Close()
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("server exited before healthy: %v (log %s)", err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("server not healthy after 30s")
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 30 s. It returns the exit error.
func (s *serverProc) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process reports its status below
	select {
	case err := <-s.done:
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("server did not drain within 30s")
	}
}

func (s *serverProc) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

func (s *serverProc) getJSON(path string, v any) error {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reqRec is one /v1/predict request as the generator saw it.
type reqRec struct {
	img             int
	due, sent, recv time.Time
	status          int
	err             error
	class           int
	probs           []float64
}

func (q reqRec) fromDueMs() float64 { return float64(q.recv.Sub(q.due)) / 1e6 }
func (q reqRec) clientMs() float64  { return float64(q.recv.Sub(q.sent)) / 1e6 }
func (q reqRec) lateMs() float64    { return float64(q.sent.Sub(q.due)) / 1e6 }

// swapRec is one /v1/swap call.
type swapRec struct {
	target     int
	start, end time.Time
	ok         bool
}

// generator is the open-loop load generator: at most procs connections,
// each owned by one worker; requests are due on a fixed schedule whether or
// not earlier ones have returned.
type generator struct {
	base    string
	in      *serveInputs
	clients []*http.Client
	next    int // position in in.order, advanced per request
}

func newGenerator(base string, in *serveInputs, procs int) *generator {
	g := &generator{base: base, in: in}
	for i := 0; i < procs; i++ {
		g.clients = append(g.clients, &http.Client{Timeout: requestTimout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

func (g *generator) predict(ctx context.Context, c *http.Client, q *reqRec) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/predict", bytes.NewReader(g.in.bodies[q.img]))
	if err != nil {
		q.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	q.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		q.recv, q.err = time.Now(), err
		return
	}
	var out struct {
		Class int       `json:"class"`
		Probs []float64 `json:"probs"`
	}
	q.err = json.NewDecoder(resp.Body).Decode(&out)
	_, _ = io.Copy(io.Discard, resp.Body) // drain for keep-alive; a broken body already failed the decode
	resp.Body.Close()
	q.recv, q.status, q.class, q.probs = time.Now(), resp.StatusCode, out.Class, out.Probs
}

// phase sends rate×dur requests due at fixed intervals and returns them in
// due order. A traced phase records a span per request from its due time,
// with the HTTP call as its child.
func (g *generator) phase(ctx context.Context, name string, rate float64, dur time.Duration, tr *tracer) []reqRec {
	n := max(int(rate*dur.Seconds()), 1)
	recs := make([]reqRec, n)
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(5 * time.Millisecond)
	first := g.next
	g.next += n
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(claimed.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				q := &recs[i]
				q.img = g.in.order[(first+i)%len(g.in.order)]
				q.due = t0.Add(time.Duration(i) * interval)
				if d := time.Until(q.due); d > 0 {
					time.Sleep(d)
				}
				g.predict(ctx, c, q)
				if tr != nil {
					id := tr.add("serve.request."+name, 0, int64(first+i), q.due, q.recv)
					tr.add("serve.http", id, int64(first+i), q.sent, q.recv)
				}
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// swapper alternates /v1/swap between the two weight sets every swapEvery
// on its own connection until stop is closed.
func swapper(ctx context.Context, base string, in *serveInputs, stop <-chan struct{}, tr *tracer) []swapRec {
	client := &http.Client{Timeout: requestTimout}
	defer client.CloseIdleConnections()
	var log []swapRec
	tick := time.NewTicker(swapEvery)
	defer tick.Stop()
	target := 1
	for {
		select {
		case <-stop:
			return log
		case <-ctx.Done():
			return log
		case <-tick.C:
		}
		body, _ := json.Marshal(map[string]string{"path": in.sets[target].path})
		rec := swapRec{target: target, start: time.Now()}
		resp, err := client.Post(base+"/v1/swap", "application/json", bytes.NewReader(body))
		if err == nil {
			var out struct {
				Swapped bool `json:"swapped"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			rec.ok = err == nil && resp.StatusCode == http.StatusOK && out.Swapped
		}
		rec.end = time.Now()
		tr.add("serve.swap", 0, int64(len(log)), rec.start, rec.end)
		log = append(log, rec)
		target = 1 - target
	}
}

// allowedSets returns the weight sets that may have answered q: the one live
// when it was sent and the target of every swap overlapping it.
func allowedSets(q reqRec, swaps []swapRec) [2]bool {
	var ok [2]bool
	live := 0
	for _, s := range swaps {
		if s.ok && s.end.Before(q.sent) {
			live = s.target
		}
		if s.start.Before(q.recv) && s.end.After(q.sent) {
			ok[s.target] = true
		}
	}
	ok[live] = true
	return ok
}

// checkRequests applies the serving output checks to every request.
func checkRequests(recs []reqRec, swaps []swapRec, in *serveInputs, r *result) {
	for _, q := range recs {
		ok := q.err == nil && q.status == http.StatusOK
		r.check(ok, "request for image %d: status %d, error %v", q.img, q.status, q.err)
		if !ok {
			continue
		}
		allowed := allowedSets(q, swaps)
		match := (allowed[0] && in.sets[0].classes[q.img] == q.class) || (allowed[1] && in.sets[1].classes[q.img] == q.class)
		total := 0.0
		good := len(q.probs) == 10
		for _, p := range q.probs {
			good = good && finite(p) && p >= 0
			total += p
		}
		good = good && math.Abs(total-1) < 1e-9
		r.check(match && good, "image %d: class %d (want %d or %d under sets %v), probs %v",
			q.img, q.class, in.sets[0].classes[q.img], in.sets[1].classes[q.img], allowed, q.probs)
	}
}

// serveSetup generates the inputs, starts the server and warms it up. It
// returns the running server; the caller stops it.
func serveSetup(ctx context.Context, c runConfig, rep int) (*serveInputs, *serverProc, time.Duration, error) {
	t0 := time.Now()
	dir := filepath.Join(c.WorkDir, fmt.Sprintf("setup%d", rep))
	in, err := makeServeInputs(c.Seed, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := startServer(ctx, c.ServeBin, in.sets[0].path, filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, nil, 0, err
	}
	g := newGenerator(srv.base, in, c.Procs)
	defer g.close()
	for _, q := range g.phase(ctx, "warmup", highRate, 500*time.Millisecond, nil) {
		if q.err != nil || q.status != http.StatusOK {
			srv.stop()
			return nil, nil, 0, fmt.Errorf("warm-up request: status %d, %v", q.status, q.err)
		}
	}
	return in, srv, time.Since(t0), nil
}

// serveRun is what one measured serving run saw.
type serveRun struct {
	in                  *serveInputs
	low, high, lowPlain []reqRec // lowPlain: the traced run's untraced low phase
	all                 []reqRec
	lowP50s, highP99s   []float64 // untraced runs: per-round figures
	rungs               []rung
	capacities          []float64 // untraced runs: per-round capacity
	swaps               []swapRec
	rssMB               float64
	// server is the tier's /metrics after the traced low phases.
	server struct {
		LatencyCount int64   `json:"latency_count"`
		LatencyP50   float64 `json:"latency_p50_ms"`
		LatencyP99   float64 `json:"latency_p99_ms"`
	}
	// stats is the tier's /v1/stats at the end of the run.
	stats struct {
		Failed    int64   `json:"failed"`
		Rejected  int64   `json:"rejected"`
		Batches   int64   `json:"batches"`
		MeanBatch float64 `json:"mean_batch"`
		QueueMax  int64   `json:"queue_max"`
	}
}

// measure runs the untraced phases: rounds of a low, a high and a
// saturating part, so that a few seconds of host contention spoil one part,
// not a whole phase (the gated figures are medians over the rounds), then
// the ladder.
func (run *serveRun) measure(ctx context.Context, g *generator, srv *serverProc, secs float64) error {
	for k := 0; k < rounds; k++ {
		lp := g.phase(ctx, "low", lowRate, dur(secs/9), nil)
		hp := g.phase(ctx, "high", highRate, dur(secs/8), nil)
		sp := g.phase(ctx, "saturate", saturateRate, dur(secs/36), nil)
		run.all = append(run.all, sp...)
		run.capacities = append(run.capacities, achieved(sp))
		run.lowP50s = append(run.lowP50s, fromDueQuantile(lp, 0.5))
		run.highP99s = append(run.highP99s, fromDueQuantile(hp, 0.99))
		run.low, run.high = append(run.low, lp...), append(run.high, hp...)
	}
	// Memory is read before the ladder: how far a rung overloads the server
	// would otherwise set the high-water mark.
	var err error
	if run.rssMB, err = srv.peakRSSMB(); err != nil {
		return err
	}
	run.all = append(append(run.all, run.low...), run.high...)
climb:
	for _, rate := range ladder {
		// A rung that misses the limit is run once more before the climb
		// stops, so one burst of contention does not end it.
		for try := 0; try < 2; try++ {
			rr := g.phase(ctx, "ladder", rate, dur(secs/12), nil)
			run.all = append(run.all, rr...)
			run.rungs = append(run.rungs, rung{rate, rr})
			if meetsLimit(rr) {
				continue climb
			}
		}
		break
	}
	return nil
}

// measureTraced runs the traced run's phases: an untraced low phase for the
// overhead comparison, a traced low phase followed by the tier's /metrics,
// and a traced high phase.
func (run *serveRun) measureTraced(ctx context.Context, g *generator, srv *serverProc, secs float64, tr *tracer) error {
	run.lowPlain = g.phase(ctx, "low", lowRate, dur(secs/6), nil)
	run.low = g.phase(ctx, "low", lowRate, dur(secs/3), tr)
	if err := srv.getJSON("/metrics", &run.server); err != nil {
		return err
	}
	run.high = g.phase(ctx, "high", highRate, dur(secs/6), tr)
	run.all = append(append(append(run.all, run.lowPlain...), run.low...), run.high...)
	return nil
}

// runServe runs the serving workload.
func runServe(ctx context.Context, c runConfig, env envStamp) (*result, error) {
	r := newResult()
	run := &serveRun{}
	var setups []float64
	var srv *serverProc
	for rep := 0; rep < setupReps; rep++ {
		var d time.Duration
		var err error
		if run.in, srv, d, err = serveSetup(ctx, c, rep); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if rep < setupReps-1 {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("set-up server: %w", err)
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	var tr *tracer
	if c.Trace {
		tr = newTracer()
	}
	g := newGenerator(srv.base, run.in, c.Procs)
	defer g.close()
	stopSwaps := make(chan struct{})
	swapsCh := make(chan []swapRec, 1)
	go func() { swapsCh <- swapper(ctx, srv.base, run.in, stopSwaps, tr) }()
	var err error
	if c.Trace {
		err = run.measureTraced(ctx, g, srv, c.Seconds, tr)
	} else {
		err = run.measure(ctx, g, srv, c.Seconds)
	}
	close(stopSwaps)
	run.swaps = <-swapsCh
	if err != nil {
		return nil, err
	}
	if err := srv.getJSON("/v1/stats", &run.stats); err != nil {
		return nil, err
	}
	if c.Trace {
		if run.rssMB, err = srv.peakRSSMB(); err != nil {
			return nil, err
		}
	}
	stopped = true
	r.check(srv.stop() == nil, "server did not drain cleanly")
	r.check(run.stats.Failed == 0, "server reports %d failed requests", run.stats.Failed)
	checkRequests(run.all, run.swaps, run.in, r)
	for i, s := range run.swaps {
		r.check(s.ok, "swap %d to set %d failed", i, s.target)
	}

	var swapMs, late []float64
	for _, s := range run.swaps {
		swapMs = append(swapMs, float64(s.end.Sub(s.start))/1e6)
	}
	for _, q := range run.all {
		late = append(late, q.lateMs())
	}
	lowD, highD := summarize(fromDue(run.low)), summarize(fromDue(run.high))
	if !c.Trace {
		lowD.P50 = median(run.lowP50s)
		lowD.Has50 = !math.IsInf(lowD.P50, 1)
		highD.P99 = median(run.highP99s)
		highD.Has99 = !math.IsInf(highD.P99, 1)
	}
	r.setDist("serve_low_p50_ms", "serve_low_p99_ms", "ms", lowD)
	r.setDist("serve_high_p50_ms", "serve_high_p99_ms", "ms", highD)
	r.setDist("swap_p50_ms", "swap_p99_ms", "ms", summarize(swapMs))
	r.setDist("serve.gen_late_ms_p50", "serve.gen_late_ms_p99", "ms", summarize(late))
	if c.Trace {
		return traceServe(c, env, run, tr, r)
	}

	fmt.Printf("parts: low p50 %.3f ms, high p99 %.3f ms, capacity %.1f req/s\n", run.lowP50s, run.highP99s, run.capacities)
	for _, rg := range run.rungs {
		d := summarize(fromDue(rg.recs))
		fmt.Printf("rung %4.0f req/s: n=%d p50=%.3fms p99=%.3fms meets=%v achieved=%.1f req/s\n",
			rg.rate, d.N, d.P50, d.P99, meetsLimit(rg.recs), achieved(rg.recs))
	}
	r.set("setup_s", "s", median(setups), setupReps)
	r.set("serve_max_rps", "req/s", maxRate(lowD, highD, run.rungs), len(run.rungs))
	r.set("throughput_per_s", "1/s", median(run.capacities), rounds)
	if lowD.Has50 {
		r.set("p50_ms", "ms", lowD.P50, lowD.N)
	}
	r.set("peak_rss_mb", "MB", run.rssMB, 1)
	return r, nil
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

func fromDue(recs []reqRec) []float64 {
	var xs []float64
	for _, q := range recs {
		if q.err == nil && q.status == http.StatusOK {
			xs = append(xs, q.fromDueMs())
		}
	}
	return xs
}

// fromDueQuantile returns the q-quantile of recs' latencies from due time,
// or +Inf when the sample does not support it (it then misses any limit).
func fromDueQuantile(recs []reqRec, q float64) float64 {
	if v, ok := quantile(fromDue(recs), q); ok {
		return v
	}
	return math.Inf(1)
}

// achieved is the completion rate of recs: requests answered per second
// from the first due time to the last answer. At a rate the server cannot
// keep up with, it is the server's capacity at this many connections.
func achieved(recs []reqRec) float64 {
	if len(recs) < 2 {
		return 0
	}
	last := recs[0].recv
	for _, q := range recs {
		if q.recv.After(last) {
			last = q.recv
		}
	}
	return float64(len(recs)) / last.Sub(recs[0].due).Seconds()
}

// rung is one step of the rate ladder.
type rung struct {
	rate float64
	recs []reqRec
}

// meetsLimit reports whether a rung met the latency limit with no growing
// backlog: its p99 from due time is within the limit (a failed request
// misses it) and the last tenth of its requests were not sent late by more
// than half the limit.
func meetsLimit(recs []reqRec) bool {
	xs := make([]float64, len(recs))
	for i, q := range recs {
		xs[i] = math.Inf(1)
		if q.err == nil && q.status == http.StatusOK {
			xs[i] = q.fromDueMs()
		}
	}
	p99, ok := quantile(xs, 0.99)
	if !ok || p99 > latencyLimit {
		return false
	}
	var tail []float64
	for _, q := range recs[len(recs)*9/10:] {
		tail = append(tail, q.lateMs())
	}
	return median(tail) <= latencyLimit/2
}

// maxRate is the highest rate meeting the latency limit: the highest passing
// point of low, high and the ladder, interpolated linearly in p99 towards the
// next point above it when that one failed.
func maxRate(low, high dist, rungs []rung) float64 {
	type point struct {
		rate, p99 float64
		pass      bool
	}
	pts := []point{{lowRate, low.P99, low.Has99 && low.P99 <= latencyLimit}, {highRate, high.P99, high.Has99 && high.P99 <= latencyLimit}}
	for _, rg := range rungs {
		pts = append(pts, point{rg.rate, fromDueQuantile(rg.recs, 0.99), meetsLimit(rg.recs)})
	}
	best := -1
	for i, p := range pts {
		if p.pass {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	rate := pts[best].rate
	if best+1 < len(pts) {
		b, next := pts[best], pts[best+1]
		if !next.pass && next.p99 > b.p99 && !math.IsInf(next.p99, 1) {
			frac := (latencyLimit - b.p99) / (next.p99 - b.p99)
			rate += (next.rate - b.rate) * min(max(frac, 0), 1)
		}
	}
	return rate
}

// traceServe finishes the traced serving run: in-process probes of the
// inference engine, checkpoint decoding and weight install, the forward
// layer probes on the served model, and the serving-tier split.
func traceServe(c runConfig, env envStamp, run *serveRun, tr *tracer, r *result) (*result, error) {
	in := run.in
	const reps = 200
	srv, err := train.NewServer(resnetBuilder, train.ServerConfig{Seed: c.Seed, Checkpoint: in.sets[0].path})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	x1 := tensor.New(1, 3, 8, 8)
	x2 := tensor.New(2, 3, 8, 8)
	var inferErr error
	infer := func(x *tensor.Tensor) func() {
		return func() {
			if _, err := srv.Infer(context.Background(), x); err != nil {
				inferErr = err
			}
		}
	}
	b1 := timeMedianUs(reps, "core.infer.b1", 0, -1, tr, infer(x1)) / 1e3
	b2 := timeMedianUs(reps, "core.infer.b2", 0, -1, tr, infer(x2)) / 1e3
	var st *checkpoint.State
	var ioErr error
	load := timeMedianUs(20, "checkpoint.load", 0, -1, tr, func() {
		f, err := os.Open(in.sets[1].path)
		if err != nil {
			ioErr = err
			return
		}
		defer f.Close()
		st, err = checkpoint.Read(f)
		if err != nil {
			ioErr = err
		}
	}) / 1e3
	if ioErr != nil {
		return nil, ioErr
	}
	install := timeMedianUs(20, "core.swap_install", 0, -1, tr, func() {
		if _, err := srv.SwapState(st); err != nil {
			ioErr = err
		}
	}) / 1e3
	if inferErr != nil || ioErr != nil {
		return nil, errors.Join(inferErr, ioErr)
	}
	r.set("core.infer_ms.b1", "ms", b1, reps)
	r.set("core.infer_ms.b2", "ms", b2, reps)
	r.set("checkpoint.load_ms", "ms", load, 20)
	r.set("core.swap_install_ms", "ms", install, 20)
	r.set("checkpoint.bytes", "count", float64(in.ckptB), 1)

	const iters = 200
	img, _ := data.GenerateImages(data.CIFAR10Like(8, 1, 0, c.Seed))
	x, labels := img.Batch([]int{0})
	lp := probeLayers(resnetBuilder(c.Seed), x, labels[0], core.Mitigation{}, false, iters, tr)
	setLayerMetrics(lp, iters, r)
	probeKernels(lp, false, 100, tr, r)

	var client []float64
	for _, q := range run.low {
		client = append(client, q.clientMs())
	}
	cd := summarize(client)
	srvP50, srvN, stats := run.server.LatencyP50, int(run.server.LatencyCount), run.stats
	r.set("serve.server_ms_p50", "ms", srvP50, srvN)
	r.set("serve.server_ms_p99", "ms", run.server.LatencyP99, srvN)
	r.set("serve.transport_ms_p50", "ms", cd.P50-srvP50, cd.N)
	r.set("serve.batch_wait_ms_p50", "ms", srvP50-b1, srvN)
	r.set("serve.mean_batch", "count", stats.MeanBatch, int(stats.Batches))
	r.set("serve.batches", "count", float64(stats.Batches), int(stats.Batches))
	r.set("serve.queue_max", "count", float64(stats.QueueMax), int(stats.Batches))
	r.set("serve.rejected", "count", float64(stats.Rejected), int(stats.Batches))
	plainD, tracedD := summarize(fromDue(run.lowPlain)), summarize(fromDue(run.low))
	r.set("obs.trace_overhead_share", "fraction", tracedD.P50/plainD.P50-1, plainD.N+tracedD.N)
	r.absent("core.utilization", "core.idle_share", "core.bottleneck_share", "core.queue_depth_max",
		"core.completion_gap_us_p50", "core.completion_gap_us_p99", "core.sched_overhead_share",
		"core.max_observed_delay", "sync.syncs", "checkpoint.save_ms")
	if err := tr.write(c.TraceOut, env); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), c.TraceOut)
	return r, nil
}
