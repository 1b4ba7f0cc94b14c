package core

import (
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	syncpol "repro/internal/sync"
)

// BenchmarkPBStepMLP measures one pipeline step of an 11-stage MLP pipeline
// (forward + backward + update at every stage).
func BenchmarkPBStepMLP(b *testing.B) {
	train, _ := data.GaussianBlobs(16, 4, 64, 0, 2.2, 1.3, 1)
	net := models.DeepMLP(16, 16, 10, 4, 1)
	pb := NewPBTrainer(net, ScaledConfig(0.05, 0.9, 32, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := train.Sample(i % train.Len())
		pb.Push(x, y)
		pb.Step()
	}
}

// BenchmarkPBStepResNet measures one pipeline step of the 31-stage RN20
// mini pipeline — the Fig. 8 configuration.
func BenchmarkPBStepResNet(b *testing.B) {
	cfg := data.CIFAR10Like(8, 32, 0, 1)
	train, _ := data.GenerateImages(cfg)
	net := models.ResNet(models.MiniResNet(20, 4, 8, 10, 1))
	pb := NewPBTrainer(net, ScaledConfig(0.05, 0.9, 32, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := train.Sample(i % train.Len())
		pb.Push(x, y)
		pb.Step()
	}
}

// BenchmarkPBStepMitigated adds the combined mitigation (prediction swap +
// spike update) to quantify its overhead relative to plain PB.
func BenchmarkPBStepMitigated(b *testing.B) {
	train, _ := data.GaussianBlobs(16, 4, 64, 0, 2.2, 1.3, 1)
	net := models.DeepMLP(16, 16, 10, 4, 1)
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	cfg.Mitigation = LWPvDSCD
	pb := NewPBTrainer(net, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := train.Sample(i % train.Len())
		pb.Push(x, y)
		pb.Step()
	}
}

// BenchmarkSGDBatch measures the reference mini-batch step for comparison.
func BenchmarkSGDBatch(b *testing.B) {
	train, _ := data.GaussianBlobs(16, 4, 64, 0, 2.2, 1.3, 1)
	net := models.DeepMLP(16, 16, 10, 4, 1)
	sgd := NewSGDTrainer(net, Config{LR: 0.05, Momentum: 0.9}, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sgd.TrainEpoch(train, nil, nil, nil)
	}
}

// benchEngine streams b.N samples through the named PB engine on the
// 31-stage RN20-mini pipeline and reports training throughput and the
// engine's utilization measure (DESIGN.md §4 / engine table). The async
// engine must beat the deterministic engines on samples/sec while keeping its
// observed staleness within D_s per stage. busIdle attaches a metrics bus
// with no subscribers — the emit fast path (nil check + one atomic load) —
// so the _BusIdle rows pin the bus-enabled-but-unwatched overhead at ~zero
// against their plain counterparts.
func benchEngine(b *testing.B, kind string, busIdle bool) {
	b.Helper()
	imgs := data.CIFAR10Like(8, 64, 0, 1)
	train, _ := data.GenerateImages(imgs)
	net := models.ResNet(models.MiniResNet(20, 4, 8, 10, 1))
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	// Budget the machine's cores; the engine splits them between stage
	// concurrency and intra-kernel workers (results are unaffected).
	cfg.Workers = runtime.GOMAXPROCS(0)
	if busIdle {
		bus := obs.NewBus()
		defer bus.Close()
		cfg.Obs = bus
	}
	eng, err := NewEngine(kind, net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		x, y := train.Sample(i % train.Len())
		done += len(submit(eng, x, y))
	}
	done += len(drain(eng))
	b.StopTimer()
	if done != b.N {
		b.Fatalf("engine %s completed %d of %d samples", kind, done, b.N)
	}
	bound, got := eng.Delays(), eng.ObservedDelays()
	for i := range bound {
		if got[i] > bound[i] {
			b.Fatalf("engine %s: stage %d staleness %d exceeds D_s=%d", kind, i, got[i], bound[i])
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "samples/sec")
	}
	b.ReportMetric(eng.Stats().Utilization, "utilization")
}

func BenchmarkEngine_Seq(b *testing.B)          { benchEngine(b, "seq", false) }
func BenchmarkEngine_Lockstep(b *testing.B)     { benchEngine(b, "lockstep", false) }
func BenchmarkEngine_Async(b *testing.B)        { benchEngine(b, "async", false) }
func BenchmarkEngine_SeqBusIdle(b *testing.B)   { benchEngine(b, "seq", true) }
func BenchmarkEngine_AsyncBusIdle(b *testing.B) { benchEngine(b, "async", true) }

// benchCluster streams b.N samples through a replicated-pipeline cluster on
// the RN20-mini workload at a fixed total kernel-worker budget, isolating
// the replica-scaling axis (cmd/bench records the same dimension into
// BENCH_cluster.json).
func benchCluster(b *testing.B, r int, engine, policy string) {
	b.Helper()
	imgs := data.CIFAR10Like(8, 64, 0, 1)
	train, _ := data.GenerateImages(imgs)
	pol, err := syncpol.Parse(policy)
	if err != nil {
		b.Fatal(err)
	}
	nets := make([]*nn.Network, r)
	nets[0] = models.ResNet(models.MiniResNet(20, 4, 8, 10, 1))
	snap := nets[0].SnapshotWeights()
	for i := 1; i < r; i++ {
		nets[i] = models.ResNet(models.MiniResNet(20, 4, 8, 10, 1))
		nets[i].RestoreWeights(snap)
	}
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	cfg.Workers = runtime.GOMAXPROCS(0)
	cl, err := NewCluster(nets, cfg, ClusterConfig{Replicas: r, Engine: engine, Policy: pol})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	shape := append([]int{1}, train.Shape...)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		x := cl.InputBuffer(shape...)
		copy(x.Data, train.Samples[i%train.Len()])
		done += len(submit(cl, x, train.Labels[i%train.Len()]))
	}
	done += len(drain(cl))
	b.StopTimer()
	if done != b.N {
		b.Fatalf("cluster R=%d completed %d of %d samples", r, done, b.N)
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "samples/sec")
	}
}

func BenchmarkCluster_Async_R1(b *testing.B)    { benchCluster(b, 1, "async", "none") }
func BenchmarkCluster_Async_R2(b *testing.B)    { benchCluster(b, 2, "async", "none") }
func BenchmarkCluster_Async_R4(b *testing.B)    { benchCluster(b, 4, "async", "none") }
func BenchmarkCluster_AvgEvery_R2(b *testing.B) { benchCluster(b, 2, "async", "avg-every-64") }
func BenchmarkCluster_SyncGrad_R2(b *testing.B) { benchCluster(b, 2, "seq", "sync-grad") }
