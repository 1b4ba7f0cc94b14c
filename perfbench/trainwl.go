package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/train"
)

// trainSpec is one training workload.
type trainSpec struct {
	name  string
	build train.Builder
	data  func(nTrain, nTest int, seed int64) (trainSet, testSet *data.Dataset)
	// options returns the workload's engine settings at kernel-worker
	// budget procs.
	options  func(procs int) []train.Option
	mit      core.Mitigation // delay mitigation of training and of the update probe
	replicas int
	ckpt     bool // checkpoint every epoch
	// rate is the nominal samples/s that sizes a run from --seconds. It is a
	// constant so the same seed and seconds always train on the same data.
	rate     float64
	epochs   int
	accFloor float64 // test accuracy every run must reach
}

// fitReps is how many fresh trainers one untraced run fits. Throughput
// varies by about 15% between fresh trainers on a 2-vCPU host, so the run
// reports medians over fits and epochs.
const fitReps = 5

// windowSamples is the window of completed samples whose wall time the
// training latency metrics summarise.
const windowSamples = 32

// testSamples is the size of the test set evaluated after every epoch.
const testSamples = 512

var convAsync = trainSpec{
	name: "train-conv-async",
	build: func(seed int64) *nn.Network {
		return models.ResNet(models.MiniResNet(20, 4, 8, 10, seed))
	},
	data: func(nTrain, nTest int, seed int64) (*data.Dataset, *data.Dataset) {
		cfg := data.CIFAR10Like(8, 2*nTrain, 2*nTest, taskSeed)
		cfg.NoiseStd = 1 // the default 0.35 is learnt to 99.6% in one run, hiding quality changes
		pool, poolTest := data.GenerateImages(cfg)
		return draw(pool, nTrain, seed), draw(poolTest, nTest, seed+1)
	},
	options: func(procs int) []train.Option {
		return []train.Option{train.WithEngine("async"), train.WithKernelWorkers(procs)}
	},
	mit:      core.LWPvDSCD,
	replicas: 1,
	rate:     1400,
	epochs:   3,
	accFloor: 0.3,
}

var denseSyncGrad = trainSpec{
	name: "train-dense-syncgrad",
	build: func(seed int64) *nn.Network {
		return models.DeepMLP(64, 96, 12, 10, seed)
	},
	data: func(nTrain, nTest int, seed int64) (*data.Dataset, *data.Dataset) {
		pool, poolTest := data.GaussianBlobs(64, 10, 2*nTrain, 2*nTest, 3, 1, taskSeed)
		return draw(pool, nTrain, seed), draw(poolTest, nTest, seed+1)
	},
	options: func(procs int) []train.Option {
		return []train.Option{train.WithEngine("lockstep"), train.WithReplicas(2, "sync-grad"), train.WithKernelWorkers(procs),
			train.WithRefHyper(train.RefHyper{Eta: 0.01, Momentum: 0.9, WeightDecay: 1e-4, RefBatch: 32})}
	},
	replicas: 2,
	ckpt:     true,
	rate:     1650,
	epochs:   3,
	accFloor: 0.3,
}

// taskSeed fixes each training task (class prototypes or means). The run's
// seed draws the samples from a pool twice the size needed, the model's
// initial weights and the sample order, so seeds vary the run but not the
// task's difficulty.
const taskSeed = 1414

// draw returns n samples of pool chosen by seed, in seeded order.
func draw(pool *data.Dataset, n int, seed int64) *data.Dataset {
	d := &data.Dataset{Shape: pool.Shape, Classes: pool.Classes}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(pool.Len())[:n] {
		d.Samples = append(d.Samples, pool.Samples[i])
		d.Labels = append(d.Labels, pool.Labels[i])
	}
	return d
}

// trainSize returns the training-set size of one fit at the run's length.
func trainSize(spec trainSpec, seconds float64) int {
	n := int(seconds * spec.rate / float64(fitReps*spec.epochs))
	n -= n % spec.replicas
	return max(n, 16*spec.replicas)
}

// fitOutcome is what one fresh trainer's Fit produced.
type fitOutcome struct {
	setup     time.Duration
	rep       train.Report
	losses    []float64    // per-epoch mean training loss
	rates     []float64    // per-epoch samples per second of training time
	gapsUs    []float64    // wall time between consecutive sample completions, within epochs
	windowsMs []float64    // wall time of each window of windowSamples completions, within epochs
	saveMs    []float64    // OnEpochEnd → OnCheckpoint stall per epoch
	ckptPath  string       // last checkpoint written ("" without checkpointing)
	snap      obs.Snapshot // traced fits only
}

// fit builds the inputs and a fresh trainer (timed as set-up, including a
// warm-up fit on a slice of the data), then runs the measured Fit. A non-nil
// tracer records spans around Fit, each epoch, each completed sample and
// each checkpoint save, and attaches an obs aggregator.
func fit(ctx context.Context, spec trainSpec, c runConfig, nTrain int, tr *tracer) (fitOutcome, error) {
	var out fitOutcome
	runtime.GC() // start every fit from a collected heap, so peak memory does not depend on the previous fit's garbage
	t0 := time.Now()
	trainSet, testSet := spec.data(nTrain, testSamples, c.Seed)
	opts := append(spec.options(c.Procs), train.WithMitigations(spec.mit), train.WithSeed(c.Seed))
	nWarm := min(64*spec.replicas, nTrain)
	warm := &data.Dataset{Shape: trainSet.Shape, Classes: trainSet.Classes,
		Samples: trainSet.Samples[:nWarm], Labels: trainSet.Labels[:nWarm]}
	wt := train.New(spec.build, opts...)
	_, err := wt.Fit(ctx, warm, nil, 1)
	wt.Close()
	if err != nil {
		return out, fmt.Errorf("warm-up fit: %w", err)
	}

	var (
		fitID, epochID int
		endEpoch       = func() {}
		last, winStart time.Time
		lastEpoch      int
		winN           int
		epochEnd       time.Time
	)
	opts = append(opts,
		train.OnSampleDone(func(e train.SampleEvent) {
			now := time.Now()
			if e.Epoch != lastEpoch {
				lastEpoch, winStart, winN, last = e.Epoch, now, 0, now
			} else {
				out.gapsUs = append(out.gapsUs, float64(now.Sub(last))/1e3)
				if winN++; winN == windowSamples {
					out.windowsMs = append(out.windowsMs, float64(now.Sub(winStart))/1e6)
					winStart, winN = now, 0
				}
			}
			tr.add("core.sample", epochID, int64(e.ID), last, now)
			last = now
		}),
		train.OnEpochEnd(func(e train.EpochEvent) {
			epochEnd = time.Now()
			out.losses = append(out.losses, e.TrainLoss)
			out.rates = append(out.rates, float64(nTrain)/e.Elapsed.Seconds())
			endEpoch()
			if e.Epoch < spec.epochs {
				epochID, endEpoch = tr.begin("train.epoch", fitID, int64(e.Epoch+1))
			} else {
				endEpoch = func() {}
			}
		}),
	)
	if spec.ckpt {
		out.ckptPath = filepath.Join(c.WorkDir, spec.name+".ckpt")
		opts = append(opts, train.WithCheckpointEvery(1, out.ckptPath),
			train.OnCheckpoint(func(e train.CheckpointEvent) {
				now := time.Now()
				out.saveMs = append(out.saveMs, float64(now.Sub(epochEnd))/1e6)
				tr.add("checkpoint.save", fitID, int64(e.Epoch), epochEnd, now)
			}))
	}
	var bus *obs.Bus
	var agg *obs.Aggregator
	if tr != nil {
		bus = obs.NewBus()
		agg = obs.NewAggregator(bus)
		opts = append(opts, train.WithObserver(bus))
	}
	t := train.New(spec.build, opts...)
	defer t.Close()
	out.setup = time.Since(t0)

	var endFit func()
	fitID, endFit = tr.begin("train.Fit", 0, -1)
	epochID, endEpoch = tr.begin("train.epoch", fitID, 1)
	out.rep, err = t.Fit(ctx, trainSet, testSet, spec.epochs)
	endFit()
	if bus != nil {
		bus.Close()
		out.snap = agg.Snapshot()
		agg.Close()
	}
	if err != nil {
		return out, fmt.Errorf("fit: %w", err)
	}
	return out, nil
}

// rate is the fit's training throughput in samples per second.
func (o fitOutcome) rate() float64 {
	return float64(o.rep.Samples) / o.rep.TrainDuration.Seconds()
}

// checkFit applies the training output checks to one fit.
func checkFit(spec trainSpec, o fitOutcome, r *result) {
	for i, l := range o.losses {
		r.check(finite(l), "%s: epoch %d training loss %v is not finite", spec.name, i+1, l)
	}
	r.check(finite(o.rep.ValAcc) && o.rep.ValAcc >= spec.accFloor,
		"%s: test accuracy %.4f below the floor %.2f", spec.name, o.rep.ValAcc, spec.accFloor)
	S := o.rep.Stages
	r.check(len(o.rep.ObservedDelays) == S, "%s: %d observed delays for %d stages", spec.name, len(o.rep.ObservedDelays), S)
	for s, d := range o.rep.ObservedDelays {
		bound := 2 * (S - 1 - s)
		r.check(d <= bound, "%s: stage %d observed delay %d exceeds 2(S-1-s) = %d", spec.name, s, d, bound)
	}
}

// runTrain runs a training workload: fitReps fresh trainers untraced, or,
// with c.Trace, one untraced and one traced fit followed by the layer probes.
func runTrain(ctx context.Context, spec trainSpec, c runConfig, env envStamp) (*result, error) {
	nTrain := trainSize(spec, c.Seconds)
	r := newResult()
	if c.Trace {
		return traceTrain(ctx, spec, c, env, nTrain, r)
	}
	var setups, rates, losses, accs, windows []float64
	for i := 0; i < fitReps; i++ {
		o, err := fit(ctx, spec, c, nTrain, nil)
		if err != nil {
			return nil, err
		}
		checkFit(spec, o, r)
		setups = append(setups, o.setup.Seconds())
		rates = append(rates, o.rates...)
		losses = append(losses, o.rep.TrainLoss)
		accs = append(accs, o.rep.ValAcc)
		windows = append(windows, o.windowsMs...)
	}
	samples := fitReps * nTrain * spec.epochs
	fmt.Printf("epochs: samples/s %.1f\nfits: set-up %.3f s, loss %.4f\n", rates, setups, losses)
	r.set("setup_s", "s", median(setups), fitReps)
	r.set("throughput_per_s", "1/s", median(rates), len(rates))
	r.set("train_samples_per_s", "samples/s", median(rates), samples)
	r.setDist("p50_ms", "window_p99_ms", "ms", summarize(windows))
	r.set("train_loss", "nats", median(losses), fitReps)
	r.set("test_acc", "fraction", median(accs), fitReps*testSamples)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", "MB", rss, 1)
	return r, nil
}

// traceTrain is the traced run of a training workload.
func traceTrain(ctx context.Context, spec trainSpec, c runConfig, env envStamp, nTrain int, r *result) (*result, error) {
	plain, err := fit(ctx, spec, c, nTrain, nil)
	if err != nil {
		return nil, err
	}
	checkFit(spec, plain, r)
	tr := newTracer()
	o, err := fit(ctx, spec, c, nTrain, tr)
	if err != nil {
		return nil, err
	}
	checkFit(spec, o, r)
	r.set("obs.trace_overhead_share", "fraction", 1-o.rate()/plain.rate(), 2)

	// Layer probes on a fresh copy of the workload's model, one sample.
	const iters = 200
	trainSet, _ := spec.data(1, 0, c.Seed)
	x, labels := trainSet.Batch([]int{0})
	lp := probeLayers(spec.build(c.Seed), x, labels[0], spec.mit, true, iters, tr)
	setLayerMetrics(lp, iters, r)
	probeKernels(lp, true, 100, tr, r)

	// Engine: utilization from Report, per-stage busy time from the
	// aggregator (the async engine emits it; lockstep does not, and there the
	// probed stage compute stands in), completion gaps from OnSampleDone.
	wall := o.rep.TrainDuration.Seconds() * 1e6 // µs
	busy := make([]float64, o.rep.Stages)
	for _, st := range o.snap.Stages {
		if st.Stage < len(busy) {
			busy[st.Stage] = float64(st.BusyNs) / 1e3
		}
	}
	if sum(busy) == 0 {
		perStageUpdates := float64(o.rep.Samples) / float64(spec.replicas)
		for s := range busy {
			busy[s] = lp.stageUs[s] * perStageUpdates
		}
	}
	r.set("core.utilization", "fraction", o.rep.Utilization, o.rep.Samples)
	cores := float64(min(env.NProc, runtime.GOMAXPROCS(0)))
	r.set("core.idle_share", "fraction", 1-sum(busy)/(wall*cores), len(busy))
	r.set("core.bottleneck_share", "fraction", maxOf(busy)/wall, len(busy))
	r.set("core.queue_depth_max", "count", float64(o.snap.QueueMax), int(o.snap.Events))
	r.setDist("core.completion_gap_us_p50", "core.completion_gap_us_p99", "us", summarize(o.gapsUs))
	r.set("core.sched_overhead_share", "fraction", 1-sum(lp.stageUs)*float64(o.rep.Samples)/(wall*cores), o.rep.Samples)
	r.set("core.max_observed_delay", "count", float64(o.rep.MaxStaleness), o.rep.Stages)
	r.check(o.rep.MaxStaleness <= 2*(o.rep.Stages-1), "%s: max observed delay %d exceeds 2(S-1)", spec.name, o.rep.MaxStaleness)
	r.set("sync.syncs", "count", float64(o.rep.Syncs), 1)

	if spec.ckpt {
		r.set("checkpoint.save_ms", "ms", median(o.saveMs), len(o.saveMs))
		fi, err := os.Stat(o.ckptPath)
		if err != nil {
			return nil, err
		}
		r.set("checkpoint.bytes", "count", float64(fi.Size()), 1)
		net := spec.build(c.Seed)
		var loadErr error
		loadMs := timeMedianUs(20, "checkpoint.load", 0, -1, tr, func() {
			if _, err := checkpoint.LoadForward(o.ckptPath, net); err != nil {
				loadErr = err
			}
		}) / 1e3
		if loadErr != nil {
			return nil, fmt.Errorf("load %s: %w", o.ckptPath, loadErr)
		}
		r.set("checkpoint.load_ms", "ms", loadMs, 20)
	} else {
		r.absent("checkpoint.save_ms", "checkpoint.bytes", "checkpoint.load_ms")
	}
	r.absent("core.swap_install_ms", "core.infer_ms.b1", "core.infer_ms.b2",
		"serve.server_ms_p50", "serve.server_ms_p99", "serve.transport_ms_p50", "serve.batch_wait_ms_p50",
		"serve.mean_batch", "serve.batches", "serve.queue_max", "serve.rejected", "serve.gen_late_ms_p99")
	if err := tr.write(c.TraceOut, env); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), c.TraceOut)
	return r, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
