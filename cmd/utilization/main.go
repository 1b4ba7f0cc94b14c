// Command utilization prints the fill-and-drain vs pipelined-backpropagation
// utilization analysis (Fig. 2, Eq. 1) for arbitrary pipeline depths and
// batch sizes, with optional schedule diagrams. With -measure it trains a
// real pipeline on every engine (seq, lockstep, async) and reports measured
// throughput and utilization instead of the analytic bounds: seq's
// utilization counts full worker-steps, while lockstep and async (the two
// modes of the concurrent engine) report measured busy time on the
// available cores.
//
// Usage:
//
//	utilization -stages 34 -batch 1
//	utilization -diagram -stages 6 -batch 2
//	utilization -measure
//	utilization -measure -cluster   # replica-scaling table too
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/schedviz"
)

func main() {
	stages := flag.Int("stages", 34, "pipeline depth S")
	batch := flag.Int("batch", 1, "update size N")
	diagram := flag.Bool("diagram", false, "print schedule diagrams")
	sweep := flag.Bool("sweep", false, "print the full sweep table")
	measure := flag.Bool("measure", false, "measure real engine throughput and utilization")
	cluster := flag.Bool("cluster", false, "with -measure: also measure replicated-pipeline (cluster) throughput per sync policy")
	flag.Parse()

	if *measure {
		exp.EngineThroughput(os.Stdout, exp.Default)
		if *cluster {
			fmt.Println()
			exp.ClusterThroughput(os.Stdout, exp.Default)
		}
		return
	}

	if *sweep {
		rows := schedviz.UtilizationTable(
			[]int{4, 16, 29, 34, 52, 70, 78, 88, 169},
			[]int{1, 8, 32, 128, 256})
		tab := metrics.NewTable("STAGES", "BATCH", "FILL&DRAIN", "EQ.1 BOUND", "PIPELINED")
		for _, r := range rows {
			tab.AddRow(r.Stages, r.Batch,
				fmt.Sprintf("%.3f", r.FillDrainUtil),
				fmt.Sprintf("%.3f", r.Bound),
				fmt.Sprintf("%.3f", r.PipelineUtil))
		}
		fmt.Print(tab.String())
		return
	}

	fd := schedviz.FillDrain(*stages, *batch, 1)
	pb := schedviz.Pipelined(*stages, 10**stages)
	fmt.Printf("S=%d, N=%d\n", *stages, *batch)
	fmt.Printf("fill&drain: steps/batch=%d, utilization=%.3f (Eq.1 bound %.3f)\n",
		schedviz.FillDrainStepsPerBatch(*batch, *stages), fd.WorkUtilization(),
		schedviz.UtilizationBound(*batch, *stages))
	fmt.Printf("pipelined backprop: utilization=%.3f (→1 as the stream grows)\n", pb.WorkUtilization())
	full, partial, idle := fd.Utilization()
	fmt.Printf("fill&drain worker-steps: %.0f%% full, %.0f%% partial, %.0f%% idle\n",
		full*100, partial*100, idle*100)

	if *diagram {
		fmt.Println("\nfill&drain schedule (F/B/X=both/.=idle):")
		fmt.Print(schedviz.FillDrain(*stages, *batch, 2).String())
		fmt.Println("\npipelined backpropagation schedule:")
		fmt.Print(schedviz.Pipelined(*stages, 4**stages).String())
	}
}
