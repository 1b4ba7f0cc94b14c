package core

import (
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// This file holds the engine-independent per-stage compute: the forward and
// backward transformation of one sample at one stage, including the
// mitigation machinery (weight prediction, stashing, spike compensation via
// the optimizer, gradient shrinking). The sequential PBTrainer and the
// concurrent AsyncPBTrainer (free-running or lockstep) drive these same
// routines with different schedules; only the scheduling differs between
// engines, never the math.
//
// Each stage owns a tensor.Arena (nil when Config.Unpooled is set): all
// activation, gradient and im2col buffers the stage's compute needs are
// drawn from and recycled into it, so steady-state training through the
// core layers allocates nothing on the hot path (the ablation-only
// alternative normalizers still allocate small context slices — see
// DESIGN.md §7 for the scope and the ownership rules). The arena is only
// ever touched by the goroutine driving the stage.

// fwdHorizonFor returns the weight-prediction horizon and form used at the
// forward pass of stage i in an s-stage pipeline whose stage-i delay is
// delay. Zero horizon means no prediction.
func fwdHorizonFor(mit Mitigation, s, i, delay int) (float64, optim.LWPForm) {
	if mit.SpecTrain {
		// Vertical sync: predict to the sample's final update time,
		// 2(S−1)−s steps ahead of this forward pass (Appendix C).
		return float64(2*(s-1) - i), optim.LWPVelocity
	}
	if mit.LWP {
		scale := mit.LWPScale
		if scale == 0 {
			scale = 1
		}
		return scale * float64(delay), mit.LWPForm
	}
	return 0, optim.LWPVelocity
}

// bwdHorizonFor returns the prediction horizon used at the backward pass of
// stage i (SpecTrain only).
func bwdHorizonFor(mit Mitigation, i int) float64 {
	if mit.SpecTrain {
		return float64(i)
	}
	return 0
}

// forwardUnder is the single forward primitive every engine drives: it runs
// one stage's Forward, optionally under a temporarily installed read-only
// weight view (prediction or stashed weights), and hands back the output
// packet plus the stage context. The view is installed by pointer-swapping
// parameter storage and restored before returning, so the stage's parameters
// are never mutated — forward compute is a pure function of (weights, input)
// regardless of which view it reads.
func forwardUnder(s nn.Stage, params []*nn.Param, view [][]float64, p *nn.Packet, ar *tensor.Arena, par *tensor.Parallel) (*nn.Packet, any) {
	if len(view) == 0 || len(params) == 0 {
		return s.Forward(p, ar, par)
	}
	old := swapIn(params, view)
	out, ctx := s.Forward(p, ar, par)
	swapIn(params, old)
	return out, ctx
}

// stall consults the fault-injection hook (Config.StageDelay) before a stage
// transformation and sleeps out any injected straggle. Engines call it from
// the goroutine driving the stage, outside their busy-time accounting
// windows, so injected stalls read as idle time (lower utilization) rather
// than compute. Replica is reported as -1; the cluster's per-replica hook
// wrapper rewrites it (see NewCluster). The stall never touches stage state,
// so the weight trajectory is unchanged.
func (st *stageState) stall(backward bool) {
	if st.chaos == nil {
		return
	}
	p := ChaosPoint{Replica: -1, Stage: st.idx, Update: st.updates, Backward: backward}
	if d := st.chaos(p); d > 0 {
		time.Sleep(d)
	}
}

// forwardInfer is the standalone forward-only path: it runs the stage's
// Forward and immediately releases the context — no FIFO push, no gradient,
// no optimizer. Retained activations flow straight back into the stage's
// arena via Stage.ReleaseCtx, so a forward-only pipeline holds no
// per-inflight state beyond the packet itself. The inference engines
// (infer.go) drive all their compute through this.
func forwardInfer(s nn.Stage, p *nn.Packet, ar *tensor.Arena, par *tensor.Parallel) *nn.Packet {
	out, ctx := s.Forward(p, ar, par)
	s.ReleaseCtx(ctx, ar)
	return out
}

// runForward performs the stage's forward transformation for one sample
// under the mitigation's prediction/stashing rules, pushes the sample's
// context onto the stage FIFO, and returns the output packet. It touches
// only stage-local state. With a non-nil arena the input packet is consumed
// and (usually) returned as the output packet.
func (st *stageState) runForward(in *inflight, mit Mitigation, horizon float64, form optim.LWPForm) *nn.Packet {
	var usedWeights, view [][]float64
	if horizon > 0 && len(st.params) > 0 {
		view = make([][]float64, len(st.params))
		for j, p := range st.params {
			view[j] = st.opt.Predict(p, form, horizon)
		}
		if mit.WeightStash {
			usedWeights = view
		}
	} else if mit.WeightStash && len(st.params) > 0 {
		usedWeights = make([][]float64, len(st.params))
		for j, p := range st.params {
			usedWeights[j] = p.Snapshot()
		}
	}
	out, ctx := forwardUnder(st.stage, st.params, view, in.packet, st.arena, st.par)
	st.push(ctx, usedWeights, in.id)
	return out
}

// runBackward consumes the oldest pending context, performs the stage's
// backward transformation (under stashed or predicted weights when the
// mitigation asks for them), applies one weight update at learning rate lr,
// and returns the input gradient. It touches only stage-local state. With a
// non-nil arena the gradient packet is consumed and (usually) returned as
// the output packet.
func (st *stageState) runBackward(dIn *nn.Packet, mit Mitigation, bwdHorizon, lr float64) *nn.Packet {
	c := st.pop()
	var dx *nn.Packet
	switch {
	case c.stash != nil && len(st.params) > 0:
		old := swapIn(st.params, c.stash)
		dx = st.stage.Backward(dIn, c.ctx, st.arena, st.par)
		swapIn(st.params, old)
	case bwdHorizon > 0 && len(st.params) > 0:
		pred := make([][]float64, len(st.params))
		for j, p := range st.params {
			pred[j] = st.opt.Predict(p, optim.LWPVelocity, bwdHorizon)
		}
		old := swapIn(st.params, pred)
		dx = st.stage.Backward(dIn, c.ctx, st.arena, st.par)
		swapIn(st.params, old)
	default:
		dx = st.stage.Backward(dIn, c.ctx, st.arena, st.par)
	}
	gap := st.updates - c.fwdUpdates
	if gap > st.maxObserved {
		st.maxObserved = gap
	}
	if st.obs != nil {
		st.obs.Emit(obs.Event{Kind: obs.KindStaleness, Stage: st.idx, Count: int64(gap)})
	}
	if len(st.params) > 0 {
		if g := mit.GradShrink; g > 0 {
			optim.ShrinkGradients(st.params, g, float64(st.delay))
		}
		if st.reduce != nil {
			// Cross-replica gradient averaging (cluster sync-grad): blocks
			// until every peer replica's same-numbered update at this stage
			// has contributed, then all proceed with the identical mean.
			st.reduce(st.idx, st.params)
		}
		st.opt.LR = lr
		st.opt.Step(st.params)
	}
	st.updates++
	return dx
}

// runLossHead applies the network head to a just-forwarded sample at the
// last stage: it computes the loss and correctness, recycles the logits
// buffer, and reuses the packet to carry the loss gradient into the stage's
// own backward pass.
func (st *stageState) runLossHead(head nn.SoftmaxCrossEntropy, out *nn.Packet, label int) (loss float64, correct bool, grad *nn.Packet) {
	st.labelBuf[0] = label
	dl := st.arena.GetDT(out.X.DType(), out.X.Shape...)
	loss = head.LossInto(dl, out.X, st.labelBuf[:])
	correct = nn.Accuracy(out.X, st.labelBuf[:]) == 1
	st.arena.Put(out.X)
	out.X = dl
	return loss, correct, out
}
