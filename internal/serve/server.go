// Package serve is the HTTP serving tier over the forward-only inference
// facade (train.Server): a bounded admission queue, dispatch-when-idle
// micro-batching, hot checkpoint swap, and graceful zero-drop drain
// (DESIGN.md §12).
//
// Requests are admitted one sample at a time. A single batcher goroutine
// blocks for the first queued request, adds whatever else is already queued
// (up to MaxBatch) and runs the batch at once as one [B, ...] tensor. A lone
// request never waits for company; requests arriving while a batch runs
// coalesce into the next, so batches grow with load without a timer. Every
// request is answered exactly once: shutdown stops admission first, then
// flushes the queue, so draining never drops an in-flight request.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/train"
)

// Config configures a Server.
type Config struct {
	// Backend is the inference facade requests run through.
	Backend *train.Server
	// InputShape is the per-sample activation shape (e.g. [3,8,8]).
	InputShape []int
	// MaxBatch caps how many queued requests coalesce into one pipeline
	// pass (default 8).
	MaxBatch int
	// QueueCap bounds the admission queue; requests beyond it are rejected
	// with 503 rather than queued without bound (default 64).
	QueueCap int
	// Bus is the metrics bus the batcher publishes to (micro-batch sizes,
	// request latencies, admission-queue depth) and the /metrics + /events
	// endpoints read from. Nil makes the server create and own one — pass a
	// bus explicitly to share it with the inference engine
	// (train.ServerConfig.Obs) so engine and admission events interleave on
	// one stream.
	Bus *obs.Bus
}

// request is one admitted sample waiting for a batch slot.
type request struct {
	x    []float64
	resp chan response
	enq  time.Time
}

// response answers one request (exactly one is delivered per admitted
// request, even during drain).
type response struct {
	class int
	probs []float64
	err   error
}

// Stats is the serving-tier counter snapshot surfaced at /v1/stats.
type Stats struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Batches   int64 `json:"batches"`
	// MeanBatch is the mean coalesced batch size — the batching policy's
	// effectiveness at the observed load.
	MeanBatch float64 `json:"mean_batch"`
	// QueueDepth/QueueMax are the admission queue's current level and
	// high-water mark.
	QueueDepth int64 `json:"queue_depth"`
	QueueMax   int64 `json:"queue_max"`
	// P50Ms/P99Ms/MeanMs summarize per-request latency (admission to
	// response) over the retained window.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// Infer is the backing engine's counter snapshot.
	Infer core.InferStats `json:"infer"`
}

// Request-body bounds. A predict body holds one sample: at most
// maxJSONFloatBytes per value (a float64 encodes in at most 25 JSON bytes,
// plus a separator and a little whitespace) and bodySlack bytes for the
// envelope. A swap body holds one checkpoint path. Larger bodies get 413.
const (
	maxJSONFloatBytes = 32
	bodySlack         = 4 << 10
	maxSwapBody       = 64 << 10
)

// Server is the HTTP serving tier.
type Server struct {
	cfg    Config
	sample int // flattened per-sample size

	queue chan *request
	quit  chan struct{}
	wg    sync.WaitGroup

	// admitMu fences admission against drain: Shutdown takes the write
	// lock to flip draining, which guarantees no enqueue is still in
	// flight when the batcher starts its final flush.
	admitMu  sync.RWMutex
	draining bool
	shutOnce sync.Once
	busOnce  sync.Once

	// bus carries the serving tier's event stream; ownBus records whether
	// Shutdown must close it. agg folds the stream for /metrics; prod is the
	// batcher goroutine's producer (single-producer ring — only batchLoop
	// and its callees emit through it).
	bus    *obs.Bus
	ownBus bool
	agg    *obs.Aggregator
	prod   *obs.Producer

	latency      *metrics.LatencyHist
	depth        *metrics.Gauge
	accepted     atomic.Int64
	rejected     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	batches      atomic.Int64
	batchSamples atomic.Int64
	lastBatchNs  atomic.Int64
}

// New validates cfg, applies defaults, and starts the batcher.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err == nil {
		s.start()
	}
	return s, err
}

// newServer is New without starting the batcher.
func newServer(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("serve: nil Backend")
	}
	if len(cfg.InputShape) == 0 {
		return nil, errors.New("serve: empty InputShape")
	}
	sample := 1
	for _, d := range cfg.InputShape {
		if d <= 0 {
			return nil, fmt.Errorf("serve: bad InputShape %v", cfg.InputShape)
		}
		sample *= d
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	s := &Server{
		cfg:     cfg,
		sample:  sample,
		queue:   make(chan *request, cfg.QueueCap),
		quit:    make(chan struct{}),
		latency: metrics.NewLatencyHist(0),
		depth:   &metrics.Gauge{},
	}
	s.bus = cfg.Bus
	if s.bus == nil {
		s.bus = obs.NewBus()
		s.ownBus = true
	}
	s.agg = obs.NewAggregator(s.bus)
	s.prod = s.bus.Producer(512)
	return s, nil
}

// start launches the batcher.
func (s *Server) start() {
	s.wg.Add(1)
	go s.batchLoop()
}

// enqueue admits one request, reporting false when draining or the queue is
// full. Holding the read lock across the send means Shutdown's write lock
// cannot be acquired while any admission is mid-flight — the drain flush is
// guaranteed to see every admitted request.
func (s *Server) enqueue(r *request) bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return false
	}
	select {
	case s.queue <- r:
		s.accepted.Add(1)
		s.depth.Inc()
		return true
	default:
		return false
	}
}

// batchLoop is the single consumer of the admission queue. It blocks for
// the first request, adds whatever else is already queued, and runs the
// batch at once; requests that arrive while it runs coalesce into the next.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	batch := make([]*request, 0, s.cfg.MaxBatch)
	for {
		select {
		case r := <-s.queue:
			s.runBatch(s.collect(append(batch[:0], r)))
		case <-s.quit:
			// Drain: admission is already fenced off, so the queue can
			// only shrink. Flush every remaining request, then exit.
			for len(s.queue) > 0 {
				s.runBatch(s.collect(batch[:0]))
			}
			return
		}
	}
}

// collect appends to batch, without blocking, the requests already queued,
// until batch holds MaxBatch of them or the queue is empty.
func (s *Server) collect(batch []*request) []*request {
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.queue:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// runBatch packs the batch into one [B, ...] tensor, runs a single pipeline
// pass, and answers every request. Responses go to buffered channels, so an
// abandoned client never blocks the batcher; a row with a non-finite logit
// gets an error, never meaningless probabilities.
func (s *Server) runBatch(batch []*request) {
	start := time.Now()
	defer func() { s.lastBatchNs.Store(int64(time.Since(start))) }()
	s.batches.Add(1)
	s.batchSamples.Add(int64(len(batch)))
	s.prod.Emit(obs.Event{Kind: obs.KindBatch, Stage: -1, Count: int64(len(batch))})
	s.prod.Emit(obs.Event{Kind: obs.KindQueueDepth, Stage: -1, Count: s.depth.Level()})
	shape := append([]int{len(batch)}, s.cfg.InputShape...)
	x := tensor.New(shape...)
	for i, r := range batch {
		copy(x.Data[i*s.sample:(i+1)*s.sample], r.x)
	}
	y, err := s.cfg.Backend.Infer(context.Background(), x)
	if err != nil {
		for _, r := range batch {
			s.answer(r, response{err: err})
		}
		return
	}
	k := y.Shape[len(y.Shape)-1]
	logits := y.Data
	if y.DType() != tensor.F64 {
		// f32 backends return logits at the serving dtype; widen once per
		// batch for the f64 softmax/argmax below.
		logits = y.Float64s(make([]float64, 0, y.Size()))
	}
	for i, r := range batch {
		row := logits[i*k : (i+1)*k]
		if !finite(row) {
			s.answer(r, response{err: errors.New("non-finite logits")})
			continue
		}
		probs, class := softmax(row)
		s.answer(r, response{class: class, probs: probs})
	}
}

// answer settles the request's counters, then delivers exactly one
// response, so Stats already counts a request whose client has its answer.
func (s *Server) answer(r *request, resp response) {
	defer func() { r.resp <- resp }()
	s.depth.Dec()
	if resp.err != nil {
		s.failed.Add(1)
		return
	}
	s.completed.Add(1)
	ms := float64(time.Since(r.enq)) / float64(time.Millisecond)
	s.latency.Observe(ms)
	s.prod.Emit(obs.Event{Kind: obs.KindLatency, Stage: -1, Value: ms})
}

// finite reports whether every value of row is finite.
func finite(row []float64) bool {
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// softmax returns the row's probabilities and argmax, numerically stable.
func softmax(row []float64) ([]float64, int) {
	maxV, class := row[0], 0
	for i, v := range row {
		if v > maxV {
			maxV, class = v, i
		}
	}
	probs := make([]float64, len(row))
	sum := 0.0
	for i, v := range row {
		probs[i] = math.Exp(v - maxV)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs, class
}

// Shutdown gracefully drains the server: stop admitting, flush the queue,
// answer everything in flight, then return. It does not close the backend —
// the owner does that once Shutdown returns, when the batcher's last Infer
// has returned. Idempotent; ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.admitMu.Lock()
		s.draining = true
		s.admitMu.Unlock()
		close(s.quit)
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// The batcher has exited, so the producer is quiet: detach the
		// aggregator and, when this server owns the bus, close it (ending
		// any live /events streams). A shared bus stays open for its owner.
		s.busOnce.Do(func() {
			s.agg.Close()
			if s.ownBus {
				s.bus.Close()
			}
		})
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the serving-tier counters.
func (s *Server) Stats() Stats {
	qs := s.latency.Quantiles(0.5, 0.99)
	st := Stats{
		Accepted:   s.accepted.Load(),
		Rejected:   s.rejected.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		Batches:    s.batches.Load(),
		QueueDepth: s.depth.Level(),
		QueueMax:   s.depth.Max(),
		P50Ms:      qs[0],
		P99Ms:      qs[1],
		MeanMs:     s.latency.Mean(),
		Infer:      s.cfg.Backend.Stats(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(s.batchSamples.Load()) / float64(st.Batches)
	}
	return st
}

// Handler returns the HTTP API:
//
//	POST /v1/predict  {"input":[...]}   → {"class":c,"probs":[...]}
//	POST /v1/swap     {"path":"ck.gob"} → {"swapped":true,...}
//	GET  /v1/stats                      → Stats
//	GET  /metrics     → obs.Snapshot (the bus aggregator's fold)
//	GET  /events      → live SSE stream of the bus (drop-oldest per client)
//	GET  /healthz     → ok
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/swap", s.handleSwap)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		obs.ServeMetrics(w, req, s.agg)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		obs.ServeEvents(w, req, s.bus)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var in struct {
		Input []float64 `json:"input"`
	}
	if err := decodeBody(w, req, int64(s.sample)*maxJSONFloatBytes+bodySlack, &in); err != nil {
		return
	}
	if len(in.Input) != s.sample {
		http.Error(w, fmt.Sprintf("input has %d values, want %d (shape %v)", len(in.Input), s.sample, s.cfg.InputShape), http.StatusBadRequest)
		return
	}
	r := &request{x: in.Input, resp: make(chan response, 1), enq: time.Now()}
	if !s.enqueue(r) {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		http.Error(w, "overloaded: admission queue full or draining", http.StatusServiceUnavailable)
		return
	}
	select {
	case resp := <-r.resp:
		if resp.err != nil {
			http.Error(w, "inference failed: "+resp.err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"class": resp.class, "probs": resp.probs})
	case <-req.Context().Done():
		// The client is gone; the batcher still answers into the buffered
		// channel, so nothing wedges and the request counts as completed.
	}
}

// retryAfterSeconds estimates when a rejected client should retry: the
// current queue depth takes about depth/MaxBatch batches to clear, each as
// long as the last measured batch, rounded up to whole seconds (the
// header's unit) with a floor of 1 so clients never busy-retry. A
// drain-time rejection uses the same estimate — the queue it reports is the
// backlog the flush still has to answer.
func (s *Server) retryAfterSeconds() int {
	depth := s.depth.Level()
	batches := (depth + int64(s.cfg.MaxBatch) - 1) / int64(s.cfg.MaxBatch)
	return max(1, int(math.Ceil(time.Duration(batches*s.lastBatchNs.Load()).Seconds())))
}

func (s *Server) handleSwap(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var in struct {
		Path string `json:"path"`
	}
	if err := decodeBody(w, req, maxSwapBody, &in); err != nil {
		return
	}
	if in.Path == "" {
		http.Error(w, "bad request: want {\"path\":...}", http.StatusBadRequest)
		return
	}
	old, err := s.cfg.Backend.LoadCheckpoint(in.Path)
	if err != nil {
		http.Error(w, "swap failed: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, map[string]any{"swapped": true, "displaced_refs": old.InUse()})
}

func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.Stats())
}

// decodeBody decodes a JSON request body of at most limit bytes into v. On
// failure it has already answered: 413 for an oversized body, 400 for
// malformed JSON.
func decodeBody(w http.ResponseWriter, req *http.Request, limit int64, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, req.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	}
	return err
}

// writeJSON answers with v as JSON, or 500 when v does not encode (a NaN).
// A failed write means the client is gone, so its error is dropped.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}
