package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// inferModel couples a Builder-shaped constructor with its input shape so the
// bit-exactness matrix covers both the plain MLP stages and the skip-carrying
// ResNet blocks.
type inferModel struct {
	name  string
	build func(seed int64) *nn.Network
	shape []int // per-sample
}

func inferModels() []inferModel {
	return []inferModel{
		{
			name:  "mlp",
			build: func(seed int64) *nn.Network { return models.DeepMLP(8, 12, 3, 4, seed) },
			shape: []int{8},
		},
		{
			name:  "resnet",
			build: func(seed int64) *nn.Network { return models.ResNet(models.MiniResNet(8, 2, 8, 4, seed)) },
			shape: []int{3, 8, 8},
		},
	}
}

// randBatch builds a [batch, shape...] input from a fixed seed.
func randBatch(batch int, shape []int, seed int64) *tensor.Tensor {
	full := append([]int{batch}, shape...)
	x := tensor.New(full...)
	rng := rand.New(rand.NewSource(seed))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// mustInfer runs one request and fails the test on error.
func mustInfer(t *testing.T, e *InferEngine, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	y, err := e.Infer(context.Background(), x)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return y
}

// sameBits requires exact float equality — the forward split must be
// bit-identical to the training forward, not merely close.
func sameBits(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: logits[%d] = %v, want %v (bit-exactness violated)", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestInferMatchesTrainingForward is the bit-exactness matrix: pooled and
// unpooled, several kernel-worker budgets, both model families — every
// combination must reproduce nn.Network.Forward (the training forward)
// exactly.
func TestInferMatchesTrainingForward(t *testing.T) {
	const seed = 41
	for _, m := range inferModels() {
		oracle := m.build(seed)
		x := randBatch(3, m.shape, seed+1)
		want, ctxs := oracle.Forward(x.Clone())
		for i, s := range oracle.Stages {
			s.ReleaseCtx(ctxs[i], nil)
		}
		for _, unpooled := range []bool{false, true} {
			for _, workers := range []int{0, 2, 4} {
				eng, err := NewInferEngine([]*nn.Network{m.build(seed)}, InferConfig{
					Workers:  workers,
					Unpooled: unpooled,
				})
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				label := fmt.Sprintf("%s/unpooled=%v/workers=%d", m.name, unpooled, workers)
				// Two passes so the pooled path also covers warmed arenas.
				sameBits(t, mustInfer(t, eng, x.Clone()), want, label)
				sameBits(t, mustInfer(t, eng, x.Clone()), want, label)
				st := eng.Stats()
				if st.Submitted != 2 || st.Completed != 2 {
					t.Fatalf("%s: stats %+v, want 2 submitted/completed", label, st)
				}
				eng.Close()
			}
		}
	}
}

// TestInferReplicasShareWeights runs a multi-replica engine and
// checks every replica (round-robin) computes identical logits from the one
// shared weight set.
func TestInferReplicasShareWeights(t *testing.T) {
	m := inferModels()[0]
	const seed = 43
	nets := []*nn.Network{m.build(seed), m.build(seed), m.build(seed)}
	eng, err := NewInferEngine(nets, InferConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	oracle := m.build(seed)
	x := randBatch(2, m.shape, seed+1)
	want, _ := oracle.Forward(x.Clone())
	for i := 0; i < 6; i++ { // two full round-robin laps
		sameBits(t, mustInfer(t, eng, x.Clone()), want, "replica lap")
	}
	if st := eng.Stats(); st.Replicas != 3 {
		t.Fatalf("Stats().Replicas = %d, want 3", st.Replicas)
	}
}

// checkpointState builds a snapshot of src's weights shaped like the given
// format version: v1 (weights + single optimizer), v2 (per-stage pipeline
// state), v3 (cluster state mirroring replica 0).
func checkpointState(t *testing.T, src *nn.Network, version int) *checkpoint.State {
	t.Helper()
	st, err := checkpoint.Capture(src, nil, 7, map[string]string{"origin": "infer_test"})
	if err != nil {
		t.Fatal(err)
	}
	st.Version = version
	switch version {
	case 1:
	case 2:
		st.Stages = make([]checkpoint.StageState, src.NumStages())
		for i := range st.Stages {
			st.Stages[i] = checkpoint.StageState{
				Velocities:  map[string][]float64{},
				PrevWeights: map[string][]float64{},
			}
		}
	case 3:
		st.Cluster = &checkpoint.ClusterState{
			Policy:   "avg",
			Interval: 1,
			Replicas: []checkpoint.ReplicaState{{Weights: st.Weights, Step: st.Step}},
		}
	default:
		t.Fatalf("unknown checkpoint version %d", version)
	}
	return st
}

// TestInferCheckpointVersions hot-loads v1, v2 and v3 snapshots through the
// forward-only restore path and checks the served logits are bit-identical to
// a network restored from the same snapshot.
func TestInferCheckpointVersions(t *testing.T) {
	const seed = 47
	for _, m := range inferModels() {
		for version := 1; version <= 3; version++ {
			// The snapshot carries weights from a different seed than the
			// engine's nets, so a failed restore cannot pass by accident.
			src := m.build(seed + int64(version)*100)
			st := checkpointState(t, src, version)
			path := filepath.Join(t.TempDir(), "ckpt.gob")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkpoint.Write(f, st); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			eng, err := NewInferEngine([]*nn.Network{m.build(seed)}, InferConfig{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			loader := m.build(seed)
			if _, err := checkpoint.LoadForward(path, loader); err != nil {
				t.Fatalf("%s v%d: LoadForward: %v", m.name, version, err)
			}
			old, err := eng.Swap(CaptureWeights(loader))
			if err != nil {
				t.Fatalf("%s v%d: Swap: %v", m.name, version, err)
			}
			if n := old.InUse(); n != 0 {
				t.Fatalf("%s v%d: displaced set has %d references with nothing in flight", m.name, version, n)
			}

			oracle := m.build(seed)
			if err := checkpoint.RestoreForward(st, oracle); err != nil {
				t.Fatal(err)
			}
			x := randBatch(2, m.shape, seed+2)
			want, _ := oracle.Forward(x.Clone())
			sameBits(t, mustInfer(t, eng, x.Clone()), want, m.name+" ckpt")
			eng.Close()
		}
	}
}

// TestInferSwapRejectsMismatch checks the layout validation: a weight set
// captured from a different architecture must be refused without disturbing
// the published set.
func TestInferSwapRejectsMismatch(t *testing.T) {
	m := inferModels()[0]
	eng, err := NewInferEngine([]*nn.Network{m.build(1)}, InferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := eng.Weights()
	other := models.DeepMLP(8, 16, 2, 4, 1) // different width/depth
	if _, err := eng.Swap(CaptureWeights(other)); err == nil {
		t.Fatal("Swap accepted a weight set from a different architecture")
	}
	if eng.Weights() != before {
		t.Fatal("rejected Swap disturbed the published weight set")
	}
}

// TestInferHotSwapUnderLoad swaps weights while concurrent clients stream
// requests over two replicas: no request may fail, every response must be
// bit-identical to one of the two published versions (a request never
// observes a torn mix), and every displaced weight set must hold zero
// references as soon as the clients are done, because Infer releases its
// pin before it returns.
func TestInferHotSwapUnderLoad(t *testing.T) {
	m := inferModels()[0]
	const (
		seedA   = 53
		seedB   = 59
		clients = 4
		perC    = 40
		swaps   = 12
	)
	nets := []*nn.Network{m.build(seedA), m.build(seedA)}
	eng, err := NewInferEngine(nets, InferConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	x := randBatch(2, m.shape, 61)
	oracleA, oracleB := m.build(seedA), m.build(seedB)
	wantA, _ := oracleA.Forward(x.Clone())
	wantB, _ := oracleB.Forward(x.Clone())
	setB := CaptureWeights(oracleB)
	setA := CaptureWeights(oracleA)

	matches := func(y, want *tensor.Tensor) bool {
		for i := range want.Data {
			if y.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	torn := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				y, err := eng.Infer(context.Background(), x.Clone())
				if err != nil {
					errs <- err
					return
				}
				if !matches(y, wantA) && !matches(y, wantB) {
					torn <- "logits match neither weight version"
					return
				}
			}
		}()
	}

	displaced := make([]*WeightSet, 0, swaps)
	for i := 0; i < swaps; i++ {
		next := setB
		if i%2 == 1 {
			next = setA
		}
		old, err := eng.Swap(next)
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		displaced = append(displaced, old)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(errs)
	close(torn)
	for err := range errs {
		t.Fatalf("request failed during hot swap: %v", err)
	}
	for msg := range torn {
		t.Fatal(msg)
	}

	// With all clients returned, every displaced set's in-flight pins are
	// already gone; only the currently published set keeps its publication
	// reference.
	current := eng.Weights()
	for i, ws := range displaced {
		if ws == current {
			continue
		}
		if n := ws.InUse(); n != 0 {
			t.Fatalf("displaced weight set %d still has %d references after every request returned", i, n)
		}
	}
	if got := current.InUse(); got != 1 {
		t.Fatalf("published set has %d references, want exactly the publication slot", got)
	}
	if st := eng.Stats(); st.Swaps != swaps || st.Completed != clients*perC {
		t.Fatalf("stats %+v, want %d swaps and %d completed", st, swaps, clients*perC)
	}
	eng.Close()
	if got := current.InUse(); got != 0 {
		t.Fatalf("Close left %d references on the published set", got)
	}
}

// TestInferClose checks the lifecycle edges: Close is idempotent, Infer
// after Close fails with ErrInferClosed, and a Close that lands while
// clients are mid-request waits them out instead of shutting the kernel
// workers under them (every request either completes or sees
// ErrInferClosed; none hangs).
func TestInferClose(t *testing.T) {
	m := inferModels()[1] // conv stages, large enough to fan out to kernel workers
	nets := []*nn.Network{m.build(1), m.build(1)}
	eng, err := NewInferEngine(nets, InferConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var wg sync.WaitGroup
	started := make(chan struct{}, clients)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := eng.Infer(context.Background(), randBatch(4, m.shape, 2)); err != nil {
					if !errors.Is(err, ErrInferClosed) {
						errs <- err
					}
					return
				}
				if i == 0 {
					started <- struct{}{}
				}
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-started
	}
	eng.Close()
	eng.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request racing Close: %v", err)
	}
	if _, err := eng.Infer(context.Background(), randBatch(1, m.shape, 2)); !errors.Is(err, ErrInferClosed) {
		t.Fatalf("Infer after Close = %v, want ErrInferClosed", err)
	}
	if st := eng.Stats(); st.Submitted != st.Completed {
		t.Fatalf("stats %+v: a request was cut off by Close", st)
	}
}
