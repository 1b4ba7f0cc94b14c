package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Learning rate and momentum of the probe's optimizer; the update's cost
// does not depend on their values.
const probeLR, probeMomentum = 0.01, 0.9

// stageKind classifies stage s of net: the classifier stages are "head",
// stages holding a 4-D weight "conv", a 2-D weight "dense", other layer
// stages "norm" and parameterless non-layer stages (skip push/sum) "skip".
func stageKind(net *nn.Network, s int) string {
	st := net.Stages[s]
	if s == net.NumStages()-1 {
		return "head"
	}
	for _, p := range st.Params() {
		if len(p.W.Shape) == 4 {
			return "conv"
		}
	}
	for _, p := range st.Params() {
		if len(p.W.Shape) == 2 {
			return "dense"
		}
	}
	if ls, ok := st.(*nn.LayerStage); ok {
		for _, l := range ls.Layers {
			if _, pool := l.(*nn.GlobalAvgPool); pool {
				return "head"
			}
		}
		return "norm"
	}
	return "skip"
}

type convShape struct {
	x           []int // [1, C, H, W]
	w           *tensor.Tensor
	stride, pad int
}

type denseShape struct {
	in, out int
	w       *tensor.Tensor
}

// layerProbe is the per-sample cost of one network's stages, split by kind.
type layerProbe struct {
	fwdUs, bwdUs map[string]float64
	updateUs     float64
	stageUs      []float64 // fwd+bwd+update of each stage
	convs        []convShape
	denses       []denseShape
}

// probeLayers pushes one sample at a time through net stage by stage, the way
// the sequential engine does, timing every Forward, Backward and per-stage
// optimizer update (weight prediction plus the momentum step under mit).
// With backward false it runs forward only and releases each context, as
// the inference engine does. Each figure is the median over iters samples.
func probeLayers(net *nn.Network, x *tensor.Tensor, label int, mit core.Mitigation, backward bool, iters int, tr *tracer) layerProbe {
	const warmup = 5
	S := net.NumStages()
	kinds := make([]string, S)
	delays := core.StageDelays(S)
	ars := make([]*tensor.Arena, S)
	opts := make([]*optim.Momentum, S)
	for s := range ars {
		kinds[s] = stageKind(net, s)
		ars[s] = tensor.NewArena()
		o := optim.NewMomentum(probeLR, probeMomentum)
		if mit.SC {
			o.A, o.B = optim.SpikeCoefficients(probeMomentum, float64(delays[s]))
		}
		opts[s] = o
	}
	fwd, bwd := map[string][]float64{}, map[string][]float64{}
	var upd []float64
	stage := make([][]float64, S)
	lp := layerProbe{fwdUs: map[string]float64{}, bwdUs: map[string]float64{}, stageUs: make([]float64, S)}
	ctxs := make([]any, S)
	us := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e3 }
	for it := -warmup; it < iters; it++ {
		t := tr
		if it < 0 {
			t = nil
		}
		sid, endSample := t.begin("probe.sample", 0, int64(it))
		perF, perB := map[string]float64{}, map[string]float64{}
		perU := 0.0
		perS := make([]float64, S)
		in := ars[0].Get(x.Shape...)
		copy(in.Data, x.Data)
		p := nn.NewPacket(in)
		for s, st := range net.Stages {
			inShape := append([]int(nil), p.X.Shape...)
			t0 := time.Now()
			p, ctxs[s] = st.Forward(p, ars[s], nil)
			t1 := time.Now()
			perF[kinds[s]] += us(t0, t1)
			perS[s] += us(t0, t1)
			t.add("nn.fwd."+kinds[s], sid, int64(it), t0, t1)
			if it == 0 {
				lp.recordShapes(st, inShape, p.X.Shape)
			}
			if !backward {
				st.ReleaseCtx(ctxs[s], ars[s])
			}
		}
		if backward {
			logits := p.X
			dl := ars[S-1].Get(logits.Shape...)
			nn.SoftmaxCrossEntropy{}.LossInto(dl, logits, []int{label})
			ars[S-1].Put(logits)
			p.X = dl
			for s := S - 1; s >= 0; s-- {
				st := net.Stages[s]
				t0 := time.Now()
				p = st.Backward(p, ctxs[s], ars[s], nil)
				t1 := time.Now()
				if params := st.Params(); len(params) > 0 {
					if mit.LWP {
						for _, q := range params {
							_ = opts[s].Predict(q, mit.LWPForm, float64(delays[s]))
						}
					}
					opts[s].Step(params)
				}
				t2 := time.Now()
				perB[kinds[s]] += us(t0, t1)
				perU += us(t1, t2)
				perS[s] += us(t0, t2)
				t.add("nn.bwd."+kinds[s], sid, int64(it), t0, t1)
				t.add("optim.update", sid, int64(it), t1, t2)
			}
		}
		ars[0].Put(p.X)
		endSample()
		if it < 0 {
			continue
		}
		for _, k := range stageKinds {
			fwd[k] = append(fwd[k], perF[k])
			bwd[k] = append(bwd[k], perB[k])
		}
		upd = append(upd, perU)
		for s := range perS {
			stage[s] = append(stage[s], perS[s])
		}
	}
	for _, k := range stageKinds {
		lp.fwdUs[k], lp.bwdUs[k] = median(fwd[k]), median(bwd[k])
	}
	lp.updateUs = median(upd)
	for s := range stage {
		lp.stageUs[s] = median(stage[s])
	}
	return lp
}

// recordShapes notes the kernel shapes a stage runs: its conv from the
// stage's input and output activations, its dense layer from the weight.
func (lp *layerProbe) recordShapes(st nn.Stage, in, out []int) {
	for _, p := range st.Params() {
		w := p.W
		switch len(w.Shape) {
		case 4:
			k := w.Shape[2]
			lp.convs = append(lp.convs, convShape{
				x: []int{1, w.Shape[1], in[2], in[3]}, w: w,
				stride: in[2] / out[2], pad: (k - 1) / 2,
			})
		case 2:
			lp.denses = append(lp.denses, denseShape{in: w.Shape[1], out: w.Shape[0], w: w})
		}
	}
}

// timeMedianUs runs fn reps times and returns the median call time in µs.
func timeMedianUs(reps int, name string, parent int, key int64, tr *tracer, fn func()) float64 {
	fn() // warm the arena and caches
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		xs[i] = float64(t1.Sub(t0)) / 1e3
		tr.add(name, parent, key, t0, t1)
	}
	return median(xs)
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// probeKernels times the tensor kernels at every conv and dense shape the
// layer probe saw, on the serial kernel group, and records the per-sample
// sums. Backward kernels are skipped when backward is false.
func probeKernels(lp layerProbe, backward bool, reps int, tr *tracer, r *result) {
	var par *tensor.Parallel // serial: the engines give each stage one worker at nproc ≤ S
	rng := rand.New(rand.NewSource(1))
	ar := tensor.NewArena()
	kid, endKernels := tr.begin("probe.kernels", 0, -1)
	var convF, convB, im2col, col2im, flops float64
	for i, c := range lp.convs {
		n, ch, h, wd := c.x[0], c.x[1], c.x[2], c.x[3]
		f, k := c.w.Shape[0], c.w.Shape[2]
		oh, ow := tensor.ConvOut(h, k, c.stride, c.pad), tensor.ConvOut(wd, k, c.stride, c.pad)
		flops += float64(2 * f * ch * k * k * oh * ow)
		x := randTensor(rng, c.x...)
		var cols []*tensor.Tensor
		convF += timeMedianUs(reps, "tensor.conv_fwd", kid, int64(i), tr, func() {
			var y *tensor.Tensor
			y, cols = par.ConvForward(ar, x, c.w, nil, c.stride, c.pad, cols)
			ar.Put(y)
		})
		x3 := tensor.FromSlice(x.Data, ch, h, wd)
		colT := tensor.New(ch*k*k, oh*ow)
		im2col += timeMedianUs(reps, "tensor.im2col", kid, int64(i), tr, func() {
			par.Im2ColInto(colT, x3, k, k, c.stride, c.pad)
		})
		if !backward {
			continue
		}
		dy := randTensor(rng, n, f, oh, ow)
		dw := tensor.New(c.w.Shape...)
		convB += timeMedianUs(reps, "tensor.conv_bwd", kid, int64(i), tr, func() {
			ar.Put(par.ConvBackward(ar, dy, c.w, cols, dw, nil, c.x, c.stride, c.pad))
		})
		img := tensor.New(ch, h, wd)
		col2im += timeMedianUs(reps, "tensor.col2im", kid, int64(i), tr, func() {
			par.Col2ImInto(img, colT, ch, h, wd, k, k, c.stride, c.pad)
		})
	}
	var denseUs, denseFlops float64
	for i, d := range lp.denses {
		x := randTensor(rng, 1, d.in)
		y := tensor.New(1, d.out)
		denseUs += timeMedianUs(reps, "tensor.dense_fwd", kid, int64(i), tr, func() {
			par.MatMulTransBInto(y, x, d.w)
		})
		denseFlops += float64(2 * d.in * d.out)
	}
	endKernels()
	r.set("tensor.conv_fwd_us", "us", convF, reps)
	r.set("tensor.conv_bwd_us", "us", convB, reps)
	r.set("tensor.im2col_us", "us", im2col, reps)
	r.set("tensor.col2im_us", "us", col2im, reps)
	r.set("tensor.flops_per_sample", "count", flops+denseFlops, 1)
	r.set("tensor.dense_fwd_us", "us", denseUs, reps)
	if denseUs > 0 {
		r.set("tensor.gemm_gflops", "GFLOP/s", denseFlops/denseUs/1e3, reps)
	}
}

// setLayerMetrics records the nn and optim figures of lp.
func setLayerMetrics(lp layerProbe, iters int, r *result) {
	for _, k := range stageKinds {
		r.set("nn.fwd_us."+k, "us", lp.fwdUs[k], iters)
		r.set("nn.bwd_us."+k, "us", lp.bwdUs[k], iters)
	}
	r.set("optim.update_us", "us", lp.updateUs, iters)
}
