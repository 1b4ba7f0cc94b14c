package train_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/train"
)

// TestWithDTypeF32Trains runs the façade at f32 end to end: the run must
// converge on the blob task (the tolerance gate — f32 rounding must not
// break learning), report an f32 network, and be bit-reproducible: two
// identical f32 Fits land on identical weights, the same determinism
// contract the f64 engines carry (DESIGN.md §15).
func TestWithDTypeF32Trains(t *testing.T) {
	trainSet, testSet, build := blobTask()
	fit := func() (train.Report, [][]float64) {
		tr := train.New(build,
			train.WithDType(tensor.F32),
			train.WithRefHyper(train.RefHyper{Eta: 0.1, Momentum: 0.9, RefBatch: 16}),
			train.WithSeed(7))
		defer tr.Close()
		rep, err := tr.Fit(context.Background(), trainSet, testSet, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Network().DType(); got != tensor.F32 {
			t.Fatalf("trained network dtype %s, want f32", got)
		}
		return rep, tr.Network().SnapshotWeights()
	}
	rep1, w1 := fit()
	rep2, w2 := fit()
	if !sameWeights(w1, w2) {
		t.Fatal("two identical f32 runs diverged (f32 determinism violated)")
	}
	if rep1.ValAcc != rep2.ValAcc {
		t.Fatalf("f32 accuracy not reproducible: %v vs %v", rep1.ValAcc, rep2.ValAcc)
	}
	// Tolerance gate against the f64 oracle: same task, same protocol, f64
	// run. Trajectories diverge sample by sample (rounding compounds through
	// ~200 updates), so the gate is task-level: the f32 run must learn the
	// separable blobs about as well as f64 does.
	tr64 := train.New(build,
		train.WithRefHyper(train.RefHyper{Eta: 0.1, Momentum: 0.9, RefBatch: 16}),
		train.WithSeed(7))
	defer tr64.Close()
	rep64, err := tr64.Fit(context.Background(), trainSet, testSet, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep1.ValAcc-rep64.ValAcc) > 0.15 {
		t.Fatalf("f32 val accuracy %v too far from f64 oracle %v", rep1.ValAcc, rep64.ValAcc)
	}
	if rep1.TrainLoss <= 0 || math.IsNaN(rep1.TrainLoss) || math.IsInf(rep1.TrainLoss, 0) {
		t.Fatalf("f32 train loss %v not finite-positive", rep1.TrainLoss)
	}
}

// TestWithDTypeValidation pins the f64-only gates at the façade: the SGDM
// reference, replicas and the weight-swapping mitigations must error out of
// Fit with actionable messages rather than panic mid-epoch.
func TestWithDTypeValidation(t *testing.T) {
	trainSet, _, build := blobTask()
	cases := []struct {
		name string
		opts []train.Option
		want string
	}{
		{"sgdm", []train.Option{train.WithDType(tensor.F32), train.WithSGDM()}, "f64 oracle"},
		{"replicas", []train.Option{train.WithDType(tensor.F32), train.WithReplicas(2, "none")}, "WithReplicas"},
		{"lwp", []train.Option{train.WithDType(tensor.F32), train.WithMitigations(core.LWPvD)}, "prediction"},
		{"stash", []train.Option{train.WithDType(tensor.F32), train.WithMitigations(core.WeightStash)}, "stashing"},
		{"baddtype", []train.Option{train.WithDType(tensor.DType(9))}, "unknown dtype"},
	}
	for _, tc := range cases {
		tr := train.New(build, tc.opts...)
		_, err := tr.Fit(context.Background(), trainSet, nil, 1)
		tr.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// SC rides the optimizer coefficients and stays available at f32.
	tr := train.New(build, train.WithDType(tensor.F32), train.WithMitigations(core.SCD),
		train.WithRefHyper(train.RefHyper{Eta: 0.1, Momentum: 0.9, RefBatch: 16}))
	defer tr.Close()
	if _, err := tr.Fit(context.Background(), trainSet, nil, 1); err != nil {
		t.Errorf("SC at f32 should train, got %v", err)
	}
}

// TestServerF32ServesAndSwaps runs the serving facade at f32: logits come
// back f32 and within tolerance of an f64 server over the same weights, and
// a checkpoint produced by an f64 training run hot-swaps into the f32
// server (the narrowing load path).
func TestServerF32ServesAndSwaps(t *testing.T) {
	trainSet, _, build := blobTask()

	// Train a few epochs at f64 and checkpoint — the canonical artifact.
	dir := t.TempDir()
	ckpt := dir + "/ck.bin"
	tr := train.New(build, train.WithRefHyper(train.RefHyper{Eta: 0.1, Momentum: 0.9, RefBatch: 16}))
	if _, err := tr.Fit(context.Background(), trainSet, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	tr.Close()

	s64, err := train.NewServer(build, train.ServerConfig{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer s64.Close()
	s32, err := train.NewServer(build, train.ServerConfig{Checkpoint: ckpt, DType: tensor.F32})
	if err != nil {
		t.Fatal(err)
	}
	defer s32.Close()

	x := tensor.New(2, 8)
	for i := range x.Data {
		x.Data[i] = float64(i%5) * 0.3
	}
	y64, err := s64.Infer(context.Background(), x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	y32, err := s32.Infer(context.Background(), x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if y32.DType() != tensor.F32 {
		t.Fatalf("f32 server returned %s logits", y32.DType())
	}
	for i, v := range y32.Data32() {
		if d := math.Abs(float64(v) - y64.Data[i]); d > 1e-4*math.Max(1, math.Abs(y64.Data[i])) {
			t.Fatalf("logits[%d]: f32 %v vs f64 %v", i, v, y64.Data[i])
		}
	}
}
