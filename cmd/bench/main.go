// Command bench runs the repo's kernel and engine benchmarks outside the
// test harness and records the results as JSON, so the performance
// trajectory of the compute layer is versioned alongside the code:
//
//	go run ./cmd/bench -out .
//
// writes BENCH_kernels.json (tensor-kernel microbenchmarks: reference
// scalar vs blocked vs blocked+workers) and BENCH_engines.json (streaming
// samples/sec per engine at the machine's worker budget, including _busidle
// rows that guard the metrics-bus overhead with no subscribers attached).
// Passing -prev with an earlier BENCH_engines.json carries its "current"
// block forward as "previous", recording a before/after pair. The schema is
// documented in DESIGN.md §9. Every run also extends LINEAGE_bench.json, a
// content-addressed provenance graph linking the environment config to each
// artifact written (DESIGN.md §13).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/lineage"
	syncpol "repro/internal/sync"
	"repro/internal/tensor"
)

// record runs one benchmark body under testing.Benchmark and appends it.
func record(out *[]benchfmt.Result, name string, workers int, body func(b *testing.B)) {
	r := testing.Benchmark(body)
	res := benchfmt.Result{
		Name:        name,
		Workers:     workers,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if v, ok := r.Extra["samples/sec"]; ok {
		res.SamplesPerSec = v
	}
	*out = append(*out, res)
	fmt.Printf("%-32s workers=%-2d %12.0f ns/op %6d allocs/op", name, workers, res.NsPerOp, res.AllocsPerOp)
	if res.SamplesPerSec > 0 {
		fmt.Printf(" %10.0f samples/sec", res.SamplesPerSec)
	}
	fmt.Println()
}

// kernelBenches measures the GEMM and conv kernels: the reference scalar
// forms, the blocked serial forms (nil group), and the blocked forms on a
// full-machine worker group — the full family at f64 and again at f32
// (family names gain a "-f32" suffix; every row also carries the schema's
// dtype field). The f64 rows keep their historical names, so before/after
// comparisons against pre-dtype artifacts stay name-stable.
func kernelBenches() []benchfmt.Result {
	var out []benchfmt.Result
	par := tensor.NewParallel(runtime.GOMAXPROCS(0))
	defer par.Close()
	groups := []struct {
		tag string
		p   *tensor.Parallel
	}{{"blocked", nil}, {fmt.Sprintf("workers%d", par.Workers()), par}}

	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		dt := dt
		suffix := ""
		if dt == tensor.F32 {
			suffix = "-f32"
		}
		// record stamps no dtype; tag each row after the fact (like the
		// cluster benches do for Replicas).
		stamp := func() { out[len(out)-1].DType = dt.String() }
		mk := func(m, k, n int, seed int64) (a, b, dst *tensor.Tensor) {
			a, b, dst = tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
			fill(a, seed)
			fill(b, seed+1)
			// Operands are filled at f64 and cast, so both dtype runs
			// measure over the same value stream.
			return a.ConvertTo(dt), b.ConvertTo(dt), dst.ConvertTo(dt)
		}
		// 64³ square GEMM: the conv-backward shape class.
		a, b, dst := mk(64, 64, 64, 1)
		record(&out, "MatMul64"+suffix+"/reference", 1, func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.MatMulInto(dst, a, b)
			}
		})
		stamp()
		for _, g := range groups {
			g := g
			record(&out, "MatMul64"+suffix+"/"+g.tag, g.p.Workers(), func(bb *testing.B) {
				bb.ReportAllocs()
				for i := 0; i < bb.N; i++ {
					g.p.MatMulInto(dst, a, b)
				}
			})
			stamp()
		}
		// Row-vector a·bᵀ: the batch-size-one dense-forward shape class.
		xv, wv, yv := mk(1, 256, 256, 3)
		record(&out, "DenseFwd1x256"+suffix+"/reference", 1, func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				tensor.MatMulTransBInto(yv, xv, wv)
			}
		})
		stamp()
		for _, g := range groups {
			g := g
			record(&out, "DenseFwd1x256"+suffix+"/"+g.tag, g.p.Workers(), func(bb *testing.B) {
				bb.ReportAllocs()
				for i := 0; i < bb.N; i++ {
					g.p.MatMulTransBInto(yv, xv, wv)
				}
			})
			stamp()
		}
		// Conv forward+backward, ResNet-block geometry: scalar reference vs
		// the fused blocked path, both on an arena so only the kernels
		// differ.
		x, w := tensor.New(1, 8, 16, 16), tensor.New(8, 8, 3, 3)
		fill(x, 5)
		fill(w, 6)
		x, w = x.ConvertTo(dt), w.ConvertTo(dt)
		refAr := tensor.NewArena()
		refDw := tensor.NewDT(dt, 8, 8, 3, 3)
		record(&out, "Conv8x16x16"+suffix+"/reference", 1, func(bb *testing.B) {
			bb.ReportAllocs()
			// Carry the cols slice across iterations — a nil colsBuf grows
			// a fresh 1-element slice per pass (the old stray 1 alloc/op
			// row).
			var colsBuf []*tensor.Tensor
			for i := 0; i < bb.N; i++ {
				y, cols := tensor.Conv2DForwardArena(refAr, x, w, nil, 1, 1, colsBuf)
				dx := tensor.Conv2DBackwardArena(refAr, y, w, cols, refDw, nil, x.Shape, 1, 1)
				refAr.Put(y, dx)
				refAr.Put(cols...)
				colsBuf = cols
			}
		})
		stamp()
		for _, g := range groups {
			g := g
			ar := tensor.NewArena()
			dw := tensor.NewDT(dt, 8, 8, 3, 3)
			record(&out, "Conv8x16x16"+suffix+"/fused-"+g.tag, g.p.Workers(), func(bb *testing.B) {
				bb.ReportAllocs()
				var colsBuf []*tensor.Tensor
				for i := 0; i < bb.N; i++ {
					y, cols := g.p.ConvForward(ar, x, w, nil, 1, 1, colsBuf)
					dx := g.p.ConvBackward(ar, y, w, cols, dw, nil, x.Shape, 1, 1)
					ar.Put(y, dx)
					ar.Put(cols...)
					colsBuf = cols
				}
			})
			stamp()
		}
	}
	return out
}

func fill(t *tensor.Tensor, seed int64) {
	v := float64(seed)
	for i := range t.Data {
		v = v*1664525 + 1013904223
		if v > 1e12 {
			v = v / 1e13
		}
		t.Data[i] = v / 1e9
	}
}

// engineBenches streams samples through each PB engine on the RN20-mini
// pipeline with the machine's cores as worker budget — the same workload as
// BenchmarkEngine_* in internal/core. The _busidle rows repeat seq and async
// with a metrics bus attached but no subscribers: the overhead guard for the
// emit fast path (DESIGN.md §13), read against their plain counterparts.
func engineBenches() []benchfmt.Result {
	var out []benchfmt.Result
	specs := []struct {
		kind    string
		busIdle bool
	}{
		{"seq", false}, {"lockstep", false}, {"async", false},
		{"seq", true}, {"async", true},
	}
	for _, spec := range specs {
		spec := spec
		name := "Engine_" + spec.kind
		if spec.busIdle {
			name += "_busidle"
		}
		record(&out, name, runtime.GOMAXPROCS(0), func(bb *testing.B) {
			imgs := data.CIFAR10Like(8, 64, 0, 1)
			train, _ := data.GenerateImages(imgs)
			net := models.ResNet(models.MiniResNet(20, 4, 8, 10, 1))
			cfg := core.ScaledConfig(0.05, 0.9, 32, 1)
			cfg.Workers = runtime.GOMAXPROCS(0)
			if spec.busIdle {
				bus := obs.NewBus()
				defer bus.Close()
				cfg.Obs = bus
			}
			eng, err := core.NewEngine(spec.kind, net, cfg)
			if err != nil {
				panic(err)
			}
			defer eng.Close()
			shape := append([]int{1}, train.Shape...)
			bb.ReportAllocs()
			bb.ResetTimer()
			for i := 0; i < bb.N; i++ {
				x := eng.InputBuffer(shape...)
				copy(x.Data, train.Samples[i%train.Len()])
				if _, err := eng.Submit(nil, x, train.Labels[i%train.Len()]); err != nil {
					panic(err)
				}
			}
			if _, err := eng.Drain(nil); err != nil {
				panic(err)
			}
			bb.StopTimer()
			if s := bb.Elapsed().Seconds(); s > 0 {
				bb.ReportMetric(float64(bb.N)/s, "samples/sec")
			}
		})
	}
	return out
}

// clusterBenches streams samples through the replicated-pipeline cluster at
// R ∈ {1, 2, 4} with a FIXED total kernel-worker budget (GOMAXPROCS), so the
// replica axis is isolated from raw compute: replicas shard the stream
// round-robin and split the same budget. Free-running async replicas under
// the "none" and "avg-every-64" policies measure the throughput path;
// sync-grad (deterministic engine, barrier per update) measures the
// coordination cost.
func clusterBenches() []benchfmt.Result {
	var out []benchfmt.Result
	budget := runtime.GOMAXPROCS(0)
	specs := []struct {
		r      int
		engine string
		sync   string
	}{
		{1, "async", "none"},
		{2, "async", "none"},
		{4, "async", "none"},
		{2, "async", "avg-every-64"},
		{2, "seq", "sync-grad"},
	}
	for _, spec := range specs {
		name := fmt.Sprintf("Cluster_%s_R%d_%s", spec.engine, spec.r, spec.sync)
		record(&out, name, budget, func(bb *testing.B) {
			imgs := data.CIFAR10Like(8, 64, 0, 1)
			train, _ := data.GenerateImages(imgs)
			pol, err := syncpol.Parse(spec.sync)
			if err != nil {
				panic(err)
			}
			nets := make([]*nn.Network, spec.r)
			nets[0] = models.ResNet(models.MiniResNet(20, 4, 8, 10, 1))
			snap := nets[0].SnapshotWeights()
			for i := 1; i < spec.r; i++ {
				nets[i] = models.ResNet(models.MiniResNet(20, 4, 8, 10, 1))
				nets[i].RestoreWeights(snap)
			}
			cfg := core.ScaledConfig(0.05, 0.9, 32, 1)
			cfg.Workers = budget
			cl, err := core.NewCluster(nets, cfg, core.ClusterConfig{
				Replicas: spec.r, Engine: spec.engine, Policy: pol,
			})
			if err != nil {
				panic(err)
			}
			defer cl.Close()
			shape := append([]int{1}, train.Shape...)
			bb.ReportAllocs()
			bb.ResetTimer()
			for i := 0; i < bb.N; i++ {
				x := cl.InputBuffer(shape...)
				copy(x.Data, train.Samples[i%train.Len()])
				if _, err := cl.Submit(nil, x, train.Labels[i%train.Len()]); err != nil {
					panic(err)
				}
			}
			if _, err := cl.Drain(nil); err != nil {
				panic(err)
			}
			bb.StopTimer()
			if s := bb.Elapsed().Seconds(); s > 0 {
				bb.ReportMetric(float64(bb.N)/s, "samples/sec")
			}
		})
		out[len(out)-1].Replicas = spec.r
	}
	return out
}

func writeFile(path string, f *benchfmt.File) {
	if err := f.Write(path); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func loadPrev(path string) *benchfmt.File {
	f, err := benchfmt.LoadPrevious(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -prev %s: %v\n", path, err)
		os.Exit(1)
	}
	return f
}

// recordLineage extends LINEAGE_bench.json next to the artifacts: a config
// node for this invocation's environment, and one content-addressed artifact
// node per BENCH file written, so benchmark outputs join the same provenance
// graph that training and serve runs record (DESIGN.md §13).
func recordLineage(outDir, note string, artifacts []string) error {
	path := filepath.Join(outDir, "LINEAGE_bench.json")
	g, err := lineage.Load(path)
	if err != nil {
		return err
	}
	attrs := map[string]string{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go_version": runtime.Version(),
		"gomaxprocs": fmt.Sprintf("%d", runtime.GOMAXPROCS(0)),
	}
	if note != "" {
		attrs["note"] = note
	}
	cfgID := g.Add(lineage.KindConfig, "bench", attrs)
	for _, a := range artifacts {
		h, err := lineage.FileHash(a)
		if err != nil {
			return err
		}
		g.Add(lineage.KindArtifact, filepath.Base(a), map[string]string{"sha256": h}, cfgID)
	}
	if err := g.Write(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func main() {
	out := flag.String("out", ".", "directory for BENCH_kernels.json / BENCH_engines.json / BENCH_cluster.json")
	prev := flag.String("prev", "", "earlier BENCH_engines.json whose results become the new file's previous block")
	prevCluster := flag.String("prev-cluster", "", "earlier BENCH_cluster.json whose results become the new file's previous block")
	note := flag.String("note", "", "free-form annotation stored in the output files")
	kernelsOnly := flag.Bool("kernels-only", false, "skip the engine and cluster benchmarks")
	flag.Parse()

	var artifacts []string
	write := func(name string, f *benchfmt.File) {
		path := filepath.Join(*out, name)
		writeFile(path, f)
		artifacts = append(artifacts, path)
	}

	kf := benchfmt.New(*note)
	kf.Current = kernelBenches()
	write("BENCH_kernels.json", kf)

	if !*kernelsOnly {
		ef := benchfmt.New(*note)
		ef.Current = engineBenches()
		ef.Previous = loadPrev(*prev)
		write("BENCH_engines.json", ef)

		cf := benchfmt.New(*note)
		cf.Current = clusterBenches()
		cf.Previous = loadPrev(*prevCluster)
		write("BENCH_cluster.json", cf)
	}

	if err := recordLineage(*out, *note, artifacts); err != nil {
		fmt.Fprintf(os.Stderr, "bench: lineage: %v\n", err)
		os.Exit(1)
	}
}
