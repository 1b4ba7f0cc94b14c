package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

// testAliasBuilds counts test-seq-alias factory invocations; the guard
// keeps the process-global registration idempotent under `go test -count=N`,
// which reruns tests in one process.
var (
	testAliasOnce   sync.Once
	testAliasBuilds atomic.Int64
)

// TestRegisterEngineExtends proves the factory is data-driven: a custom
// registration is immediately listed by EngineNames and constructible by
// NewEngine. (The registry is process-global, so the name stays registered
// for the rest of the test binary — use one nothing else claims.)
func TestRegisterEngineExtends(t *testing.T) {
	testAliasOnce.Do(func() {
		RegisterEngine("test-seq-alias", func(net *nn.Network, cfg Config) Engine {
			testAliasBuilds.Add(1)
			return NewPBTrainer(net, cfg)
		})
	})
	if !slices.Contains(EngineNames(), "test-seq-alias") {
		t.Fatalf("EngineNames() = %v, missing custom registration", EngineNames())
	}
	before := testAliasBuilds.Load()
	e, err := NewEngine("test-seq-alias", models.DeepMLP(4, 4, 2, 2, 1), Config{LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := testAliasBuilds.Load() - before; got != 1 {
		t.Fatalf("factory invoked %d times, want 1", got)
	}
	train, _ := data.GaussianBlobs(4, 2, 8, 0, 1, 0.5, 1)
	if _, _, err := RunEpoch(context.Background(), e, train, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Completed != train.Len() {
		t.Fatalf("custom engine completed %d of %d", st.Completed, train.Len())
	}
}

func TestRegisterEngineRejectsDuplicatesAndNil(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() {
		RegisterEngine("seq", func(net *nn.Network, cfg Config) Engine { return NewPBTrainer(net, cfg) })
	})
	mustPanic("empty name", func() {
		RegisterEngine("", func(net *nn.Network, cfg Config) Engine { return NewPBTrainer(net, cfg) })
	})
	mustPanic("nil factory", func() { RegisterEngine("test-nil-factory", nil) })
}

func TestEngineNamesListsBuiltins(t *testing.T) {
	names := EngineNames()
	for _, want := range []string{"seq", "lockstep", "async", "async-lockstep"} {
		if !slices.Contains(names, want) {
			t.Fatalf("EngineNames() = %v, missing %q", names, want)
		}
	}
	// "lockstep" and "async-lockstep" name one engine: the async runtime in
	// ModeLockstep, whose lifecycle suite (async_test.go) covers both.
	for _, name := range []string{"lockstep", "async-lockstep"} {
		e, err := NewEngine(name, models.DeepMLP(4, 4, 2, 2, 1), Config{LR: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := e.(*AsyncPBTrainer); !ok || a.Mode != ModeLockstep {
			t.Fatalf("NewEngine(%q) = %T, want *AsyncPBTrainer in ModeLockstep", name, e)
		}
		e.Close()
	}
}

// TestRunEpochAugmenterNilRNG is the regression test for the nil-RNG
// augmentation path: RunEpoch with a real (randomized) augmenter and no RNG
// used to crash with a bare nil dereference inside Augmenter.Apply; it now
// derives a deterministic seeded RNG, so the run completes and is
// bit-reproducible.
func TestRunEpochAugmenterNilRNG(t *testing.T) {
	imgs := data.CIFAR10Like(8, 16, 0, 3)
	train, _ := data.GenerateImages(imgs)
	aug := data.PadCropFlip{Channels: 3, Size: 8, Pad: 1}
	run := func(useAug bool) (float64, [][]float64) {
		net := models.ResNet(models.MiniResNet(8, 4, 8, 10, 5))
		e := NewPBTrainer(net, ScaledConfig(0.05, 0.9, 32, 1))
		var a data.Augmenter
		if useAug {
			a = aug
		}
		loss, _, err := RunEpoch(context.Background(), e, train, nil, a, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return loss, net.SnapshotWeights()
	}
	loss1, w1 := run(true)
	loss2, w2 := run(true)
	if loss1 != loss2 {
		t.Fatalf("nil-RNG augmented runs diverge: loss %v vs %v", loss1, loss2)
	}
	for i := range w1 {
		for j := range w1[i] {
			if w1[i][j] != w2[i][j] {
				t.Fatalf("nil-RNG augmented runs diverge at weight [%d][%d]", i, j)
			}
		}
	}
	// The fallback RNG must actually drive the augmenter: an augmented run
	// cannot coincide with the untouched-sample run.
	_, wPlain := run(false)
	same := true
	for i := range w1 {
		for j := range w1[i] {
			if w1[i][j] != wPlain[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("augmenter with derived RNG left the trajectory identical to the unaugmented run")
	}
}

// TestEngineSubmitCancelled checks every engine's Submit/Drain honor an
// already-cancelled context without admitting work or blocking.
func TestEngineSubmitCancelled(t *testing.T) {
	train, _ := data.GaussianBlobs(6, 3, 4, 0, 1, 0.5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []string{"seq", "lockstep", "async", "async-lockstep"} {
		e, err := NewEngine(kind, models.DeepMLP(6, 8, 3, 3, 1), Config{LR: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		x, y := train.Sample(0)
		if _, err := e.Submit(ctx, x, y); err == nil {
			t.Fatalf("%s: Submit with cancelled ctx succeeded", kind)
		}
		if _, err := e.Drain(ctx); err == nil {
			t.Fatalf("%s: Drain with cancelled ctx succeeded", kind)
		}
		if st := e.Stats(); st.Submitted != 0 {
			t.Fatalf("%s: cancelled Submit still admitted %d samples", kind, st.Submitted)
		}
		// The rejected engine must still drain cleanly and close leak-free.
		if rs := drain(e); len(rs) != 0 {
			t.Fatalf("%s: empty engine drained %d results", kind, len(rs))
		}
		e.Close()
	}
}
