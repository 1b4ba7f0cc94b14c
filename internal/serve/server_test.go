package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/train"
)

// testBuilder is the model every serve test runs: a small multi-stage MLP
// with [8] inputs and 4 classes.
func testBuilder(seed int64) *nn.Network { return models.DeepMLP(8, 12, 3, 4, seed) }

// newTestServer wires a fresh backend and a started serving tier; the
// cleanup drains the serving tier before closing the engine, mirroring
// cmd/serve.
func newTestServer(t *testing.T, cfg Config) (*Server, *train.Server) {
	t.Helper()
	s, backend := buildTestServer(t, cfg)
	s.start()
	return s, backend
}

// buildTestServer is newTestServer without starting the batcher, so a test
// can queue requests before the batcher first looks.
func buildTestServer(t *testing.T, cfg Config) (*Server, *train.Server) {
	t.Helper()
	backend, err := train.NewServer(testBuilder, train.ServerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = backend
	cfg.InputShape = []int{8}
	s, err := newServer(cfg)
	if err != nil {
		backend.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		backend.Close()
	})
	return s, backend
}

// predictBody marshals one /v1/predict request for the test input.
func predictBody(t *testing.T, in []float64) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(map[string]any{"input": in})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// testInput returns a deterministic sample.
func testInput(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]float64, 8)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	return in
}

// TestPredictMatchesOracle checks one HTTP round trip end to end: the served
// class and probabilities must equal softmax over the training forward's
// logits, exactly.
func TestPredictMatchesOracle(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := testInput(7)
	x := tensor.New(1, 8)
	copy(x.Data, in)
	logits, _ := testBuilder(1).Forward(x)
	wantProbs, wantClass := softmax(logits.Data)

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Class int       `json:"class"`
		Probs []float64 `json:"probs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Class != wantClass {
		t.Fatalf("class %d, want %d", out.Class, wantClass)
	}
	if len(out.Probs) != len(wantProbs) {
		t.Fatalf("probs len %d, want %d", len(out.Probs), len(wantProbs))
	}
	for i := range wantProbs {
		if out.Probs[i] != wantProbs[i] {
			t.Fatalf("probs[%d] = %v, want %v", i, out.Probs[i], wantProbs[i])
		}
	}
}

// TestPredictValidation pins the HTTP error surface: wrong-size inputs are
// 400s, wrong methods 405s, and a stats probe answers on GET only.
func TestPredictValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, []float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d, want 200", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedBodyRejected pins the request-body bounds: a predict body
// larger than the input shape can need, and a swap body larger than any
// path, are refused with 413 before admission, so they count neither as
// accepted nor as completed.
func TestOversizedBodyRejected(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	big := []byte(`{"input":[0` + strings.Repeat(",0", 8*maxJSONFloatBytes+bodySlack) + `]}`)
	if code := post("/v1/predict", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized predict: status %d, want 413", code)
	}
	bigSwap := []byte(`{"path":"` + strings.Repeat("x", maxSwapBody) + `"}`)
	if code := post("/v1/swap", bigSwap); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized swap: status %d, want 413", code)
	}
	if st := s.Stats(); st.Accepted != 0 || st.Completed != 0 || st.Infer.Swaps != 0 {
		t.Fatalf("oversized bodies reached the server: %+v", st)
	}

}

// TestBatchingCoalesces pins the dispatch-when-idle contract: requests
// already queued when the batcher looks coalesce, MaxBatch at a time. With
// 2×MaxBatch+3 requests queued before the batcher starts, it runs exactly
// three batches — 8, 8 and 3 — and answers every request.
func TestBatchingCoalesces(t *testing.T) {
	const maxBatch = 8
	s, _ := buildTestServer(t, Config{MaxBatch: maxBatch})
	var mu sync.Mutex
	var sizes []int64
	sub := s.bus.SubscribeFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindBatch {
			mu.Lock()
			sizes = append(sizes, ev.Count)
			mu.Unlock()
		}
	})
	defer sub.Close()

	const n = 2*maxBatch + 3
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{x: testInput(int64(i)), resp: make(chan response, 1), enq: time.Now()}
		if !s.enqueue(reqs[i]) {
			t.Fatalf("request %d rejected", i)
		}
	}
	s.start()
	for i, r := range reqs {
		if resp := <-r.resp; resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
	}
	// Shutdown closes the server's own bus after a final sweep, so every
	// batch event has reached the subscriber when it returns.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Accepted != n || st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats %+v, want %d accepted and completed", st, n)
	}
	mu.Lock()
	got := fmt.Sprint(sizes)
	mu.Unlock()
	if want := fmt.Sprint([]int64{maxBatch, maxBatch, 3}); got != want {
		t.Fatalf("batch sizes %s, want %s", got, want)
	}
	if st.Batches >= n {
		t.Fatalf("batcher ran %d passes for %d requests — no coalescing", st.Batches, n)
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("mean batch %v, want > 1 for a queued backlog", st.MeanBatch)
	}
	if st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
		t.Fatalf("latency quantiles p50=%v p99=%v malformed", st.P50Ms, st.P99Ms)
	}
}

// TestCollectTakesOnlyQueued unit-tests the batcher's collect step: with k
// requests queued it returns min(k, MaxBatch) of them in arrival order,
// never blocks on an empty queue, and leaves the rest queued.
func TestCollectTakesOnlyQueued(t *testing.T) {
	const maxBatch = 8
	for _, k := range []int{0, 1, 5, maxBatch, maxBatch + 3, 2*maxBatch + 3} {
		s := &Server{cfg: Config{MaxBatch: maxBatch}, queue: make(chan *request, 32)}
		queued := make([]*request, k)
		for i := range queued {
			queued[i] = &request{}
			s.queue <- queued[i]
		}
		got := s.collect(nil)
		want := min(k, maxBatch)
		if len(got) != want {
			t.Fatalf("k=%d: collected %d, want %d", k, len(got), want)
		}
		for i, r := range got {
			if r != queued[i] {
				t.Fatalf("k=%d: collected request %d out of order", k, i)
			}
		}
		if left := len(s.queue); left != k-want {
			t.Fatalf("k=%d: %d left queued, want %d", k, left, k-want)
		}
	}
	// A batch that already holds a request only tops up to MaxBatch.
	s := &Server{cfg: Config{MaxBatch: maxBatch}, queue: make(chan *request, 32)}
	for i := 0; i < maxBatch; i++ {
		s.queue <- &request{}
	}
	if got := s.collect([]*request{{}}); len(got) != maxBatch || len(s.queue) != 1 {
		t.Fatalf("top-up: batch %d with %d left queued, want %d and 1", len(got), len(s.queue), maxBatch)
	}
}

// TestAdmissionBounds unit-tests the bounded queue without the batcher
// racing to drain it: a full queue rejects, a draining server rejects.
func TestAdmissionBounds(t *testing.T) {
	s := &Server{
		cfg:   Config{QueueCap: 1},
		queue: make(chan *request, 1),
		depth: &metrics.Gauge{},
	}
	r := func() *request { return &request{resp: make(chan response, 1), enq: time.Now()} }
	if !s.enqueue(r()) {
		t.Fatal("first enqueue rejected on an empty queue")
	}
	if s.enqueue(r()) {
		t.Fatal("enqueue accepted beyond QueueCap")
	}
	s.draining = true
	<-s.queue
	if s.enqueue(r()) {
		t.Fatal("enqueue accepted while draining")
	}
	if got := s.accepted.Load(); got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
}

// TestDrainNoDrop is the zero-drop shutdown proof: Shutdown lands in the
// middle of a concurrent request storm, and afterwards every admitted request
// must have been answered (accepted == completed, nothing failed) while
// everything else was cleanly rejected with 503.
func TestDrainNoDrop(t *testing.T) {
	s, backend := newTestServer(t, Config{MaxBatch: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	in := testInput(11)
	var wg sync.WaitGroup
	bad := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, in))
				if err != nil {
					bad <- err
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				switch code {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					return // drain reached this client
				default:
					bad <- fmt.Errorf("status %d", code)
					return
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let the storm build
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Fatalf("client saw a non-drain failure: %v", err)
	}

	st := s.Stats()
	if st.Accepted != st.Completed {
		t.Fatalf("dropped requests: accepted %d, completed %d", st.Accepted, st.Completed)
	}
	if st.Failed != 0 {
		t.Fatalf("%d requests failed during drain", st.Failed)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", st.QueueDepth)
	}
	if got := backend.Weights().InUse(); got != 1 {
		t.Fatalf("published weight set has %d references after drain, want 1", got)
	}
}

// TestSwapEndpointUnderLoad hot-swaps a checkpoint through the HTTP API while
// clients stream predictions: no request fails, the displaced weights drain,
// and post-swap predictions are bit-identical to the new weights' oracle.
func TestSwapEndpointUnderLoad(t *testing.T) {
	s, backend := newTestServer(t, Config{MaxBatch: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Snapshot a differently-seeded network to a checkpoint file.
	next := testBuilder(2)
	path := filepath.Join(t.TempDir(), "next.gob")
	if err := checkpoint.Save(path, next, nil, 0, nil); err != nil {
		t.Fatal(err)
	}

	in := testInput(13)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	bad := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, in))
				if err != nil {
					bad <- err
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code != http.StatusOK && code != http.StatusServiceUnavailable {
					bad <- fmt.Errorf("status %d", code)
					return
				}
			}
		}()
	}

	displaced := backend.Weights()
	body := bytes.NewReader([]byte(fmt.Sprintf(`{"path":%q}`, path)))
	resp, err := http.Post(ts.URL+"/v1/swap", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	swapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap: status %d: %s", resp.StatusCode, swapBody)
	}
	close(stop)
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Fatalf("client failed across the swap: %v", err)
	}

	// Every client has its answer, and the engine releases a request's pin
	// before the batcher answers it, so the displaced set is already free.
	if n := displaced.InUse(); n != 0 {
		t.Fatalf("displaced weight set still has %d references", n)
	}

	// Post-swap predictions must be bit-identical to the new weights.
	x := tensor.New(1, 8)
	copy(x.Data, in)
	logits, _ := next.Forward(x)
	_, wantClass := softmax(logits.Data)
	wantProbs, _ := softmax(logits.Data)
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Class int       `json:"class"`
		Probs []float64 `json:"probs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Class != wantClass {
		t.Fatalf("post-swap class %d, want %d", out.Class, wantClass)
	}
	for i := range wantProbs {
		if out.Probs[i] != wantProbs[i] {
			t.Fatalf("post-swap probs[%d] = %v, want %v", i, out.Probs[i], wantProbs[i])
		}
	}
	if got := s.Stats().Infer.Swaps; got != 1 {
		t.Fatalf("engine recorded %d swaps, want 1", got)
	}

	// A bad path is a 422, not a crash, and leaves the served weights alone.
	resp, err = http.Post(ts.URL+"/v1/swap", "application/json", bytes.NewReader([]byte(`{"path":"/nonexistent.gob"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad swap path: status %d, want 422", resp.StatusCode)
	}
}

// TestRejectSetsRetryAfter pins the 503 contract: a rejected request carries
// a Retry-After header derived from the live queue depth and the last
// measured batch time — the backlog's clearing time in whole seconds, never
// below one.
func TestRejectSetsRetryAfter(t *testing.T) {
	s := &Server{
		cfg:    Config{QueueCap: 1, MaxBatch: 2},
		sample: 8,
		queue:  make(chan *request, 1),
		depth:  &metrics.Gauge{},
	}
	s.lastBatchNs.Store(int64(2 * time.Second))
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", predictBody(t, testInput(3)))
		s.handlePredict(w, req)
		return w
	}
	// Fill the queue, then pile up depth as if five requests were backed up:
	// ceil(5/2) batches × 2s per batch = 6s.
	if !s.enqueue(&request{resp: make(chan response, 1), enq: time.Now()}) {
		t.Fatal("first enqueue rejected")
	}
	for i := 0; i < 4; i++ {
		s.depth.Inc()
	}
	w := post()
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "6" {
		t.Fatalf("Retry-After %q, want \"6\" (5 deep, 2-deep batches, 2s per batch)", got)
	}
	// The floor: an empty-depth rejection (draining) still says at least 1s.
	s.draining = true
	for i := 0; i < 5; i++ {
		s.depth.Dec()
	}
	if got := post().Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\" floor", got)
	}
}

// TestNonFiniteLogitsFail pins "no silent wrong answers": weights with a
// NaN head bias make the served logits non-finite, and the request must
// fail with a 500 and count as failed, never come back as a 200.
func TestNonFiniteLogitsFail(t *testing.T) {
	s, backend := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := checkpoint.Capture(testBuilder(1), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Weights["head.b"][0] = math.NaN()
	if _, err := backend.SwapState(st); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, testInput(5)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("NaN weights: status %d (%q), want 500", resp.StatusCode, body)
	}
	if got := s.Stats(); got.Completed != 0 || got.Failed != 1 {
		t.Fatalf("stats %+v, want 0 completed and 1 failed", got)
	}

	// A value JSON cannot encode is a 500 too, not a 200 with an empty body.
	w := httptest.NewRecorder()
	writeJSON(w, map[string]any{"x": math.NaN()})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("writeJSON(NaN): status %d, want 500", w.Code)
	}
}
