package core

import (
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

// The "lockstep" engine is the concurrent, deterministic goroutine-per-stage
// engine selected by name. These tests drive it through the registry, the
// way cmd/pbtrain and the cluster select it, so they pin the name's contract
// whatever runtime sits behind it.

func newLockstep(t *testing.T, net *nn.Network, cfg Config) Engine {
	t.Helper()
	e, err := NewEngine("lockstep", net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// outstanding reports the samples submitted but not yet returned.
func outstanding(t *testing.T, e Engine) int {
	t.Helper()
	o, ok := e.(interface{ Outstanding() int })
	if !ok {
		t.Fatalf("%T does not report Outstanding", e)
	}
	return o.Outstanding()
}

func TestParallelMatchesSequential(t *testing.T) {
	// The goroutine-per-stage engine must produce a bit-identical weight
	// trajectory to the sequential engine: the lockstep barrier makes the
	// schedules equal and stage computations are worker-local.
	for _, mit := range []Mitigation{None, SCD, LWPvDSCD, WeightStash, SpecTrain} {
		seed := int64(80)
		train, _ := data.GaussianBlobs(6, 3, 60, 0, 1, 0.5, seed)
		netSeq := models.DeepMLP(6, 8, 3, 3, seed)
		netPar := models.DeepMLP(6, 8, 3, 3, seed)
		cfg := ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = mit

		seq := NewPBTrainer(netSeq, cfg)
		par := newLockstep(t, netPar, cfg)
		defer par.Close()

		// Results may surface on a later Submit than on seq, so they are
		// matched by sample ID.
		bySeq, byPar := map[int]*Result{}, map[int]*Result{}
		collect := func(into map[int]*Result, rs []*Result) {
			for _, r := range rs {
				into[r.ID] = r
			}
		}
		for i := 0; i < train.Len(); i++ {
			x, y := train.Sample(i)
			x2 := x.Clone()
			collect(bySeq, submit(seq, x, y))
			collect(byPar, submit(par, x2, y))
		}
		collect(bySeq, drain(seq))
		collect(byPar, drain(par))
		if len(bySeq) != train.Len() || len(byPar) != train.Len() {
			t.Fatalf("%s: completed %d (seq) vs %d (parallel), want %d",
				mit.Name(), len(bySeq), len(byPar), train.Len())
		}
		for id, rs := range bySeq {
			if rp := byPar[id]; rp == nil || rs.Loss != rp.Loss || rs.Correct != rp.Correct {
				t.Fatalf("%s: result mismatch at sample %d: %+v vs %+v", mit.Name(), id, rs, rp)
			}
		}

		ps, pp := netSeq.Params(), netPar.Params()
		for i := range ps {
			if !ps[i].W.AllClose(pp[i].W, 0) {
				t.Fatalf("%s: parallel engine deviates at %s", mit.Name(), ps[i].Name)
			}
		}
	}
}

func TestParallelObservedDelays(t *testing.T) {
	seed := int64(81)
	train, _ := data.GaussianBlobs(6, 3, 60, 0, 1, 0.5, seed)
	net := models.DeepMLP(6, 8, 4, 3, seed)
	par := newLockstep(t, net, Config{LR: 0.001, Momentum: 0.5})
	defer par.Close()
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		submit(par, x, y)
	}
	drain(par)
	want := par.Delays()
	got := par.ObservedDelays()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d observed %d, want %d", i, got[i], want[i])
		}
	}
}

func TestParallelCloseIdempotent(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	par := newLockstep(t, net, Config{LR: 0.01, Momentum: 0})
	par.Close()
	par.Close() // second close must be a no-op
}

func TestParallelStepAfterClosePanics(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	par := newLockstep(t, net, Config{LR: 0.01, Momentum: 0})
	par.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Submit after Close")
		}
	}()
	train, _ := data.GaussianBlobs(4, 2, 1, 0, 1, 0.5, 1)
	x, y := train.Sample(0)
	submit(par, x, y)
}

// TestParallelNoGoroutineLeak closes engines (idle and mid-flight) and
// checks the worker goroutines are all retired.
func TestParallelNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 2; round++ {
		net := models.DeepMLP(6, 8, 4, 3, 1)
		par := newLockstep(t, net, Config{LR: 0.01, Momentum: 0.5})
		train, _ := data.GaussianBlobs(6, 3, 4, 0, 1, 0.5, 1)
		for i := 0; i < train.Len(); i++ {
			x, y := train.Sample(i)
			submit(par, x, y) // leave the pipeline partially filled
		}
		par.Close()
	}
	if !settlesTo(baseline) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

// TestParallelDrainPartial drains a pipeline holding fewer samples than its
// depth and expects every one back.
func TestParallelDrainPartial(t *testing.T) {
	net := models.DeepMLP(6, 8, 6, 3, 1) // deeper than the 3 samples fed
	par := newLockstep(t, net, Config{LR: 0.01, Momentum: 0.5})
	defer par.Close()
	train, _ := data.GaussianBlobs(6, 3, 3, 0, 1, 0.5, 1)
	got := 0
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		got += len(submit(par, x, y))
	}
	got += len(drain(par))
	if got != train.Len() {
		t.Fatalf("partial drain returned %d of %d results", got, train.Len())
	}
	if n := outstanding(t, par); n != 0 {
		t.Fatalf("outstanding %d after drain", n)
	}
}

func TestParallelDrainEmpty(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	par := newLockstep(t, net, Config{LR: 0.01, Momentum: 0})
	defer par.Close()
	if rs := drain(par); len(rs) != 0 {
		t.Fatal("drain of empty pipeline returned results")
	}
	if outstanding(t, par) != 0 {
		t.Fatal("outstanding nonzero on fresh trainer")
	}
}
