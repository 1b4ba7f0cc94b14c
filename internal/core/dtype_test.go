package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// This file is the engine-level half of the f32 validation story (DESIGN.md
// §15): the f64 path stays the bit-exact oracle, and the f32 path is held to
// two standards — bit-identical to itself under every schedule that is
// deterministic at f64 (pooled≡unpooled, engine and worker-count
// invariance), and within documented relative tolerance of the f64 oracle.

// toF32 converts a freshly built f64 network in place and returns it — the
// deterministic cast twin the f32 engines train/serve.
func toF32(net *nn.Network) *nn.Network {
	net.ConvertTo(tensor.F32)
	return net
}

// relCloseF reports |a−b| ≤ tol·max(1, |a|, |b|), the same relative-error
// form the tensor-level oracle tests use.
func relCloseF(a, b, tol float64) bool {
	scale := 1.0
	if ab := math.Abs(a); ab > scale {
		scale = ab
	}
	if bb := math.Abs(b); bb > scale {
		scale = bb
	}
	return math.Abs(a-b) <= tol*scale
}

// sameBits32 requires exact float32 equality between two f32 tensors.
func sameBits32(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	gd, wd := got.Data32(), want.Data32()
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("%s: [%d] = %v, want %v (f32 determinism violated)", label, i, gd[i], wd[i])
		}
	}
}

// TestInferF32MatchesF64Oracle is the f32 inference tolerance matrix: kernel
// workers {0, 2, 4} × MLP/ResNet. Every combination must (a) agree with the
// f64 training forward within relative tolerance and (b) be bit-identical to
// the f32 serial reference — worker count and arena reuse never change f32
// arithmetic, only precision does.
func TestInferF32MatchesF64Oracle(t *testing.T) {
	const seed = 47
	// Forward-only error accumulates one rounding per reduction step; the
	// deepest reduction here (conv fan-in / dense width ≤ a few hundred)
	// keeps ~1e-4 relative headroom with a wide margin (DESIGN.md §15).
	const tol = 1e-4
	for _, m := range inferModels() {
		oracle := m.build(seed)
		x := randBatch(3, m.shape, seed+1)
		want, ctxs := oracle.Forward(x.Clone())
		for i, s := range oracle.Stages {
			s.ReleaseCtx(ctxs[i], nil)
		}

		// The f32 reference logits come from the engine at workers=0.
		ref, err := NewInferEngine([]*nn.Network{toF32(m.build(seed))}, InferConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want32 := mustInfer(t, ref, x.Clone())
		ref.Close()
		if want32.DType() != tensor.F32 {
			t.Fatalf("%s: f32 engine returned %s logits", m.name, want32.DType())
		}
		for i, v := range want32.Data32() {
			if !relCloseF(float64(v), want.Data[i], tol) {
				t.Fatalf("%s: f32 logits[%d] = %v, f64 oracle %v (tol %g)", m.name, i, v, want.Data[i], tol)
			}
		}

		for _, workers := range []int{0, 2, 4} {
			eng, err := NewInferEngine([]*nn.Network{toF32(m.build(seed))}, InferConfig{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			label := fmt.Sprintf("%s/f32/workers=%d", m.name, workers)
			// Two passes so the pooled path also covers warmed arenas;
			// f64 input is converted once at admission.
			sameBits32(t, mustInfer(t, eng, x.Clone()), want32, label)
			sameBits32(t, mustInfer(t, eng, x.Clone()), want32, label)
			eng.Close()
		}
	}
}

// TestF32PooledMatchesUnpooled duplicates the pooled≡unpooled proof at f32
// for the mitigations legal there (plain PB, spike compensation, gradient
// shrinking — the ones that never swap f64 master weights in): arenas must
// change nothing about the f32 trajectory either.
func TestF32PooledMatchesUnpooled(t *testing.T) {
	for _, mit := range []Mitigation{None, SCD, {GradShrink: 0.9}} {
		seed := int64(130)
		train, _ := data.GaussianBlobs(6, 3, 80, 0, 1, 0.5, seed)
		netP := toF32(models.DeepMLP(6, 8, 3, 3, seed))
		netU := toF32(models.DeepMLP(6, 8, 3, 3, seed))
		cfg := ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = mit
		cfg.Schedule = sched.MultiStep{Base: cfg.LR, Milestones: []int{40, 90}, Gamma: 0.5}
		cfgU := cfg
		cfgU.Unpooled = true

		pooled := NewPBTrainer(netP, cfg)
		unpooled := NewPBTrainer(netU, cfgU)
		n := train.Len()
		shape := append([]int{1}, train.Shape...)
		for i := 0; i < n; i++ {
			x := pooled.InputBuffer(shape...)
			x.SetFloat64s(0, train.Samples[i])
			x2 := unpooled.InputBuffer(shape...)
			x2.SetFloat64s(0, train.Samples[i])
			submit(pooled, x, train.Labels[i])
			submit(unpooled, x2, train.Labels[i])
		}
		drain(pooled)
		drain(unpooled)
		pp, pu := netP.Params(), netU.Params()
		for i := range pp {
			sameBits32(t, pp[i].W, pu[i].W, mit.Name()+"/"+pp[i].Name)
		}
	}
}

// TestF32EngineAndWorkerInvariance runs the deterministic-schedule engines
// over the same f32 ResNet workload at several kernel-worker budgets: every
// combination must land on weights bit-identical to the sequential serial
// f32 reference, mirroring the f64 matrix in TestPooledMatchesUnpooledResNet.
func TestF32EngineAndWorkerInvariance(t *testing.T) {
	imgs := data.CIFAR10Like(8, 24, 0, 7)
	train, _ := data.GenerateImages(imgs)
	build := func() *nn.Network { return toF32(models.ResNet(models.MiniResNet(8, 4, 8, 10, 3))) }

	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	netRef := build()
	ref := NewPBTrainer(netRef, cfg)
	feedHalves(ref, train, func(string) {})

	for _, tc := range []struct {
		kind    string
		workers int
	}{
		{"seq", 4}, {"lockstep", 0}, {"async-lockstep", 0},
		{"lockstep", 48}, {"async-lockstep", 48},
	} {
		netP := build()
		cfgW := cfg
		cfgW.Workers = tc.workers
		eng, err := NewEngine(tc.kind, netP, cfgW)
		if err != nil {
			t.Fatal(err)
		}
		feedHalves(eng, train, func(string) {})
		pp, pu := netP.Params(), netRef.Params()
		for i := range pp {
			sameBits32(t, pp[i].W, pu[i].W, tc.kind+"/f32/"+pp[i].Name)
		}
		eng.Close()
	}
}

// TestF32GatesPanicLoudly pins the f64-only guards: mixing an f32 model
// with the f64-only machinery must panic with a clear message, never
// silently no-op over nil slices.
func TestF32GatesPanicLoudly(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	train, _ := data.GaussianBlobs(4, 2, 8, 0, 1, 0.5, 9)
	net := toF32(models.DeepMLP(4, 6, 2, 2, 9))
	cfg := ScaledConfig(0.1, 0.9, 16, 1)
	cfg.Mitigation = Mitigation{LWP: true, LWPScale: 1}
	mustPanic("LWP at f32", func() {
		tr := NewPBTrainer(net, cfg)
		defer tr.Close()
		shape := append([]int{1}, train.Shape...)
		for i := 0; i < train.Len(); i++ {
			x := tr.InputBuffer(shape...)
			x.SetFloat64s(0, train.Samples[i])
			submit(tr, x, train.Labels[i])
		}
	})

	// Cluster training is f64-only and must refuse at construction.
	nets := []*nn.Network{toF32(models.DeepMLP(4, 6, 2, 2, 9))}
	if _, err := NewCluster(nets, ScaledConfig(0.1, 0.9, 16, 1), ClusterConfig{Replicas: 1, Engine: "seq"}); err == nil {
		t.Error("NewCluster accepted an f32 network")
	}
}
