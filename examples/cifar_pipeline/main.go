// cifar_pipeline: the paper's headline experiment in miniature.
//
// A pre-activation ResNet-20 with GroupNorm (31 pipeline stages: conv+GN+
// ReLU fused per stage, residual sum nodes as stages) trains on a synthetic
// CIFAR-10 stand-in three ways:
//
//  1. SGDM        — the mini-batch reference (no pipeline, no delay),
//  2. PB          — fine-grained pipelined backpropagation, update size 1,
//  3. PB+LWPvD+SCD — PB with the paper's combined mitigation.
//
// The expected shape (Fig. 8 / Table 1): PB alone loses accuracy to stale
// gradients; the combined mitigation recovers most of it with no tuning.
//
// The -engine flag selects the PB runtime: the sequential reference (seq),
// the concurrent engine as a deterministic systolic array (lockstep), or the
// same engine free-running (async), where every stage races ahead over
// bounded queues while staleness stays capped at D_s = 2(S−1−s) per stage.
//
// Run with: go run ./examples/cifar_pipeline [-engine async]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/models"
	"repro/internal/nn"
)

func main() {
	engine := flag.String("engine", "seq", "PB engine: "+strings.Join(core.EngineNames(), "|"))
	flag.Parse()
	if !slices.Contains(core.EngineNames(), *engine) {
		fmt.Fprintf(os.Stderr, "unknown engine %q; options: %s\n", *engine, strings.Join(core.EngineNames(), " "))
		os.Exit(2)
	}

	cfg := data.CIFAR10Like(12, 600, 200, 42)
	train, test := data.GenerateImages(cfg)
	build := func(seed int64) *nn.Network {
		return models.ResNet(models.MiniResNet(20, 4, 12, 10, seed))
	}
	fmt.Printf("ResNet-20 mini: %d pipeline stages (paper's GProp: 34), max delay %d updates, engine %s\n\n",
		build(1).NumStages(), 2*(build(1).NumStages()-1), *engine)

	methods := []exp.MethodSpec{
		exp.SGDMRef,
		{Name: "PB", Engine: *engine},
		{Name: "PB+LWPvD+SCD", Mit: exp.Table1Methods[2].Mit, Engine: *engine},
	}
	for _, m := range methods {
		r := exp.RunMethod(build, train, test, m, exp.DefaultRef, 8, nil, 1)
		fmt.Printf("%-14s final val acc %5.1f%%  (epoch curve:", m.Name, r.FinalValAcc*100)
		for _, a := range r.Curve {
			fmt.Printf(" %.0f", a*100)
		}
		fmt.Println(")")
	}
}
