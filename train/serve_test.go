package train_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/train"
)

// TestInferSteadyStateAllocs pins the serving path's per-request allocation
// count on a default-config Server: once warm, a request allocates only a
// few small objects (its packet, the caller-owned logits), whatever the
// batch size. Every buffer
// the forward pass takes from the replica's arena must come back to it, so
// cycling batch sizes 1..8 reaches a steady state instead of growing the
// heap with each request.
func TestInferSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	build := func(seed int64) *nn.Network { return models.ResNet(models.MiniResNet(8, 2, 8, 4, seed)) }
	srv, err := train.NewServer(build, train.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const maxBatch = 8
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, maxBatch*3*8*8)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	// Inputs are built once and refilled per request so the measured
	// window counts only what the engine allocates.
	xs := make([]*tensor.Tensor, maxBatch)
	for b := range xs {
		xs[b] = tensor.New(b+1, 3, 8, 8)
	}
	i := 0
	infer := func() {
		x := xs[i%maxBatch]
		i++
		copy(x.Data, src)
		if _, err := srv.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	testing.AllocsPerRun(200, infer)
	const budget = 6 // measured 5, plus one of headroom
	if allocs := testing.AllocsPerRun(400, infer); allocs > budget {
		t.Errorf("%v allocs per request at batch sizes 1..%d, budget %v", allocs, maxBatch, budget)
	}
}
