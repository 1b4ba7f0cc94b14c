package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/sched"
)

// TestAsyncLockstepMatchesSequential is the equivalence proof for the async
// runtime: driven as a deterministic systolic array it must reproduce the
// sequential PBTrainer's weight trajectory bit-for-bit, for every
// mitigation, including a step LR schedule (which exercises the round↔step
// alignment of the drain protocol). Weights are compared at a mid-epoch
// drain point and again at the end, and the measured per-stage staleness
// must hit exactly the analytic D_s, as on the sequential engine.
func TestAsyncLockstepMatchesSequential(t *testing.T) {
	for _, mit := range []Mitigation{None, SCD, LWPvD, LWPwD, LWPvDSCD, WeightStash, SpecTrain, {GradShrink: 0.9}} {
		seed := int64(90)
		train, _ := data.GaussianBlobs(6, 3, 80, 0, 1, 0.5, seed)
		netSeq := models.DeepMLP(6, 8, 3, 3, seed)
		netAsy := models.DeepMLP(6, 8, 3, 3, seed)
		cfg := ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = mit
		// A schedule makes the trajectory sensitive to the global step
		// count, so any drain-protocol misalignment shows up as a weight
		// difference.
		cfg.Schedule = sched.MultiStep{Base: cfg.LR, Milestones: []int{40, 90}, Gamma: 0.5}

		seq := NewPBTrainer(netSeq, cfg)
		asy := NewAsyncPBTrainer(netAsy, cfg, ModeLockstep)

		compare := func(point string) {
			t.Helper()
			ps, pa := netSeq.Params(), netAsy.Params()
			for i := range ps {
				if !ps[i].W.AllClose(pa[i].W, 0) {
					t.Fatalf("%s: async lockstep deviates from sequential at %s (%s)",
						mit.Name(), ps[i].Name, point)
				}
			}
		}

		feed := func(lo, hi int) (nSeq, nAsy int) {
			for i := lo; i < hi; i++ {
				x, y := train.Sample(i)
				x2 := x.Clone()
				nSeq += len(submit(seq, x, y))
				nAsy += len(submit(asy, x2, y))
			}
			nSeq += len(drain(seq))
			nAsy += len(drain(asy))
			return nSeq, nAsy
		}

		nSeq, nAsy := feed(0, train.Len()/2)
		if nSeq != nAsy {
			t.Fatalf("%s: first half completed %d (seq) vs %d (async)", mit.Name(), nSeq, nAsy)
		}
		compare("mid-training drain")
		feed(train.Len()/2, train.Len())
		compare("final drain")

		wantD, seqD, gotD := asy.Delays(), seq.ObservedDelays(), asy.ObservedDelays()
		for i := range wantD {
			if gotD[i] != wantD[i] || seqD[i] != wantD[i] {
				t.Fatalf("%s: stage %d observed staleness %d (lockstep) / %d (seq), want D_s %d",
					mit.Name(), i, gotD[i], seqD[i], wantD[i])
			}
		}
		asy.Close()
	}
}

// TestAsyncLockstepResultsMatch checks that per-sample losses and
// correctness flags agree with the sequential engine, matched by sample ID.
func TestAsyncLockstepResultsMatch(t *testing.T) {
	seed := int64(91)
	train, _ := data.GaussianBlobs(6, 3, 60, 0, 1, 0.5, seed)
	netSeq := models.DeepMLP(6, 8, 4, 3, seed)
	netAsy := models.DeepMLP(6, 8, 4, 3, seed)
	cfg := ScaledConfig(0.1, 0.9, 16, 1)
	seq := NewPBTrainer(netSeq, cfg)
	asy := NewAsyncPBTrainer(netAsy, cfg, ModeLockstep)
	defer asy.Close()

	bySeq := map[int]*Result{}
	byAsy := map[int]*Result{}
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		x2 := x.Clone()
		for _, r := range submit(seq, x, y) {
			bySeq[r.ID] = r
		}
		for _, r := range submit(asy, x2, y) {
			byAsy[r.ID] = r
		}
	}
	for _, r := range drain(seq) {
		bySeq[r.ID] = r
	}
	for _, r := range drain(asy) {
		byAsy[r.ID] = r
	}
	if len(bySeq) != train.Len() || len(byAsy) != train.Len() {
		t.Fatalf("completed %d (seq) vs %d (async), want %d", len(bySeq), len(byAsy), train.Len())
	}
	for id, rs := range bySeq {
		ra := byAsy[id]
		if ra == nil || ra.Loss != rs.Loss || ra.Correct != rs.Correct {
			t.Fatalf("sample %d: %+v (seq) vs %+v (async)", id, rs, ra)
		}
	}
}

// TestAsyncFreeStalenessBounded is the free-running engine's core safety
// property: with stages racing freely over bounded queues, the observed
// forward→backward update gap must still respect the analytic bound
// D_s = 2(S−1−s) at every stage (Eq. 5), enforced purely by the per-stage
// context-FIFO cap.
func TestAsyncFreeStalenessBounded(t *testing.T) {
	for _, mit := range []Mitigation{None, LWPvDSCD, WeightStash} {
		seed := int64(92)
		train, _ := data.GaussianBlobs(6, 3, 200, 0, 1, 0.5, seed)
		net := models.DeepMLP(6, 8, 5, 3, seed)
		cfg := ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = mit
		asy := NewAsyncPBTrainer(net, cfg, ModeFree)

		completed := 0
		for i := 0; i < train.Len(); i++ {
			x, y := train.Sample(i)
			completed += len(submit(asy, x, y))
		}
		completed += len(drain(asy))
		if completed != train.Len() {
			t.Fatalf("%s: completed %d of %d samples", mit.Name(), completed, train.Len())
		}
		bound, got := asy.Delays(), asy.ObservedDelays()
		for i := range bound {
			if got[i] > bound[i] {
				t.Fatalf("%s: stage %d observed staleness %d exceeds D_s=%d",
					mit.Name(), i, got[i], bound[i])
			}
		}
		if asy.Outstanding() != 0 {
			t.Fatalf("%s: outstanding %d after drain", mit.Name(), asy.Outstanding())
		}
		asy.Close()
	}
}

// TestAsyncFreeTrains checks the free-running engine actually learns: mean
// loss over the last quarter of an epoch stream must drop well below the
// first quarter's.
func TestAsyncFreeTrains(t *testing.T) {
	seed := int64(93)
	train, _ := data.GaussianBlobs(8, 4, 400, 0, 2.2, 1.0, seed)
	net := models.DeepMLP(8, 16, 4, 4, seed)
	asy := NewAsyncPBTrainer(net, ScaledConfig(0.1, 0.9, 16, 1), ModeFree)
	defer asy.Close()

	var rs []*Result
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		rs = append(rs, submit(asy, x, y)...)
	}
	rs = append(rs, drain(asy)...)
	q := len(rs) / 4
	early, late := 0.0, 0.0
	for _, r := range rs[:q] {
		early += r.Loss
	}
	for _, r := range rs[len(rs)-q:] {
		late += r.Loss
	}
	early /= float64(q)
	late /= float64(q)
	if late > 0.7*early {
		t.Fatalf("free-running engine not training: early mean loss %.4f, late %.4f", early, late)
	}
}

// TestAsyncRunEpochAgreesWithSequential runs the engine-agnostic RunEpoch
// through the factory's deterministic engines and expects identical
// epoch-level metrics and weights.
func TestAsyncRunEpochAgreesWithSequential(t *testing.T) {
	seed := int64(94)
	train, _ := data.GaussianBlobs(6, 3, 80, 0, 1, 0.5, seed)
	cfg := ScaledConfig(0.1, 0.9, 16, 1)

	type run struct {
		loss, acc float64
		weights   [][]float64
	}
	runs := map[string]run{}
	for _, kind := range []string{"seq", "lockstep", "async-lockstep"} {
		net := models.DeepMLP(6, 8, 3, 3, seed)
		e, err := NewEngine(kind, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		loss, acc, err := RunEpoch(context.Background(), e, train, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		runs[kind] = run{loss: loss, acc: acc, weights: net.SnapshotWeights()}
	}
	ref := runs["seq"]
	for kind, r := range runs {
		if r.loss != ref.loss || r.acc != ref.acc {
			t.Fatalf("%s: epoch metrics (%.6f, %.4f) differ from seq (%.6f, %.4f)",
				kind, r.loss, r.acc, ref.loss, ref.acc)
		}
		for i := range r.weights {
			for j := range r.weights[i] {
				if r.weights[i][j] != ref.weights[i][j] {
					t.Fatalf("%s: weight[%d][%d] deviates from seq", kind, i, j)
				}
			}
		}
	}
}

// TestNewEngineUnknown checks the factory rejects bad selectors.
func TestNewEngineUnknown(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	if _, err := NewEngine("warp", net, Config{LR: 0.01}); err == nil {
		t.Fatal("expected error for unknown engine kind")
	}
}

// --- lifecycle: the concurrent-engine suite applied to both async modes ---

func asyncModes() []AsyncMode { return []AsyncMode{ModeFree, ModeLockstep} }

func TestAsyncCloseIdempotent(t *testing.T) {
	for _, mode := range asyncModes() {
		net := models.DeepMLP(4, 4, 2, 2, 1)
		asy := NewAsyncPBTrainer(net, Config{LR: 0.01, Momentum: 0}, mode)
		asy.Close()
		asy.Close() // second close must be a no-op
	}
}

func TestAsyncSubmitAfterClosePanics(t *testing.T) {
	for _, mode := range asyncModes() {
		func() {
			net := models.DeepMLP(4, 4, 2, 2, 1)
			asy := NewAsyncPBTrainer(net, Config{LR: 0.01, Momentum: 0}, mode)
			asy.Close()
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: expected panic on Submit after Close", mode)
				}
			}()
			train, _ := data.GaussianBlobs(4, 2, 1, 0, 1, 0.5, 1)
			x, y := train.Sample(0)
			submit(asy, x, y)
		}()
	}
}

// TestAsyncNoGoroutineLeak closes engines (both idle and mid-flight) and
// checks the goroutine count returns to its baseline.
func TestAsyncNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, mode := range asyncModes() {
		net := models.DeepMLP(6, 8, 4, 3, 1)
		asy := NewAsyncPBTrainer(net, Config{LR: 0.01, Momentum: 0.5}, mode)
		train, _ := data.GaussianBlobs(6, 3, 4, 0, 1, 0.5, 1)
		for i := 0; i < train.Len(); i++ {
			x, y := train.Sample(i)
			submit(asy, x, y) // leave the pipeline partially filled
		}
		asy.Close()
	}
	if !settlesTo(baseline) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

// settlesTo waits briefly for the scheduler to retire exiting goroutines.
func settlesTo(baseline int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// TestAsyncDrainPartial drains a pipeline holding fewer samples than its
// depth — the fill phase — and expects every one back.
func TestAsyncDrainPartial(t *testing.T) {
	for _, mode := range asyncModes() {
		net := models.DeepMLP(6, 8, 6, 3, 1) // deeper than the 3 samples fed
		asy := NewAsyncPBTrainer(net, Config{LR: 0.01, Momentum: 0.5}, mode)
		train, _ := data.GaussianBlobs(6, 3, 3, 0, 1, 0.5, 1)
		got := 0
		for i := 0; i < train.Len(); i++ {
			x, y := train.Sample(i)
			got += len(submit(asy, x, y))
		}
		got += len(drain(asy))
		if got != train.Len() {
			t.Fatalf("%v: partial drain returned %d of %d results", mode, got, train.Len())
		}
		if asy.Outstanding() != 0 {
			t.Fatalf("%v: outstanding %d after drain", mode, asy.Outstanding())
		}
		// A second drain on the now-empty pipeline must be a cheap no-op.
		if rs := drain(asy); len(rs) != 0 {
			t.Fatalf("%v: drain of empty pipeline returned %d results", mode, len(rs))
		}
		asy.Close()
	}
}

// TestAsyncLockstepDrainBeforeSubmit checks that a Drain issued before any
// sample keeps the round counter aligned with the sequential engine: the
// empty pre-drain must issue zero rounds (like PBTrainer.Drain on an empty
// pipeline), or a subsequent scheduled run would deviate.
func TestAsyncLockstepDrainBeforeSubmit(t *testing.T) {
	seed := int64(95)
	train, _ := data.GaussianBlobs(6, 3, 60, 0, 1, 0.5, seed)
	netSeq := models.DeepMLP(6, 8, 3, 3, seed)
	netAsy := models.DeepMLP(6, 8, 3, 3, seed)
	cfg := ScaledConfig(0.1, 0.9, 16, 1)
	cfg.Schedule = sched.MultiStep{Base: cfg.LR, Milestones: []int{30, 70}, Gamma: 0.5}
	seq := NewPBTrainer(netSeq, cfg)
	asy := NewAsyncPBTrainer(netAsy, cfg, ModeLockstep)
	defer asy.Close()

	drain(seq)
	if rs := drain(asy); len(rs) != 0 || asy.Outstanding() != 0 {
		t.Fatalf("pre-feed drain returned %d results, %d outstanding", len(rs), asy.Outstanding())
	}
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		x2 := x.Clone()
		submit(seq, x, y)
		submit(asy, x2, y)
	}
	drain(seq)
	drain(asy)
	ps, pa := netSeq.Params(), netAsy.Params()
	for i := range ps {
		if !ps[i].W.AllClose(pa[i].W, 0) {
			t.Fatalf("pre-feed drain desynchronized the schedule: weights deviate at %s", ps[i].Name)
		}
	}
}

// TestAsyncDrainAfterClose pins the Drain-after-Close contract: a no-op on
// an empty pipeline, a panic (not a hang) with samples in flight.
func TestAsyncDrainAfterClose(t *testing.T) {
	for _, mode := range asyncModes() {
		asy := NewAsyncPBTrainer(models.DeepMLP(4, 4, 2, 2, 1), Config{LR: 0.01}, mode)
		asy.Close()
		if rs := drain(asy); rs != nil {
			t.Fatalf("%v: drain of closed empty engine returned %v", mode, rs)
		}

		func() {
			asy := NewAsyncPBTrainer(models.DeepMLP(6, 8, 6, 3, 1), Config{LR: 0.01}, mode)
			train, _ := data.GaussianBlobs(6, 3, 2, 0, 1, 0.5, 1)
			x, y := train.Sample(0)
			submit(asy, x, y) // in flight
			asy.Close()
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: expected panic on Drain after Close with in-flight samples", mode)
				}
			}()
			drain(asy)
		}()
	}
}

// TestAsyncSingleStage covers the S=1 degenerate pipeline, where the only
// stage is both first and last (zero delay, loss-backed immediately).
func TestAsyncSingleStage(t *testing.T) {
	for _, mode := range asyncModes() {
		train, _ := data.GaussianBlobs(4, 2, 20, 0, 1, 0.5, 7)
		netSeq := models.MLP(models.MLPConfig{In: 4, Hidden: []int{}, Classes: 2, Seed: 7})
		netAsy := models.MLP(models.MLPConfig{In: 4, Hidden: []int{}, Classes: 2, Seed: 7})
		if netSeq.NumStages() != 1 {
			t.Skipf("expected single-stage MLP, got %d stages", netSeq.NumStages())
		}
		cfg := Config{LR: 0.05, Momentum: 0.9}
		seq := NewPBTrainer(netSeq, cfg)
		asy := NewAsyncPBTrainer(netAsy, cfg, mode)
		got := 0
		for i := 0; i < train.Len(); i++ {
			x, y := train.Sample(i)
			x2 := x.Clone()
			submit(seq, x, y)
			got += len(submit(asy, x2, y))
		}
		drain(seq)
		got += len(drain(asy))
		if got != train.Len() {
			t.Fatalf("%v: single-stage pipeline completed %d of %d", mode, got, train.Len())
		}
		ps, pa := netSeq.Params(), netAsy.Params()
		for i := range ps {
			if !ps[i].W.AllClose(pa[i].W, 0) {
				t.Fatalf("%v: single-stage weights deviate at %s", mode, ps[i].Name)
			}
		}
		asy.Close()
	}
}
