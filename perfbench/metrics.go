package main

// metricDef names one metric of BENCHMARK.json and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user sees; every workload reports each of them
// (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// stageKinds are the nn stage kinds the layer probes split time by.
var stageKinds = []string{"conv", "norm", "dense", "skip", "head"}

// perLayer are the metrics of one traced run. A workload that never enters
// a layer reports 0 for it (README.md).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"tensor.conv_fwd_us", "us"},
		{"tensor.conv_bwd_us", "us"},
		{"tensor.im2col_us", "us"},
		{"tensor.col2im_us", "us"},
		{"tensor.flops_per_sample", "count"},
		{"tensor.dense_fwd_us", "us"},
		{"tensor.gemm_gflops", "GFLOP/s"},
	}
	for _, k := range stageKinds {
		defs = append(defs, metricDef{"nn.fwd_us." + k, "us"})
	}
	for _, k := range stageKinds {
		defs = append(defs, metricDef{"nn.bwd_us." + k, "us"})
	}
	return append(defs,
		metricDef{"optim.update_us", "us"},
		metricDef{"core.utilization", "fraction"},
		metricDef{"core.idle_share", "fraction"},
		metricDef{"core.bottleneck_share", "fraction"},
		metricDef{"core.queue_depth_max", "count"},
		metricDef{"core.completion_gap_us_p50", "us"},
		metricDef{"core.completion_gap_us_p99", "us"},
		metricDef{"core.sched_overhead_share", "fraction"},
		metricDef{"core.max_observed_delay", "count"},
		metricDef{"sync.syncs", "count"},
		metricDef{"checkpoint.save_ms", "ms"},
		metricDef{"checkpoint.bytes", "count"},
		metricDef{"checkpoint.load_ms", "ms"},
		metricDef{"core.swap_install_ms", "ms"},
		metricDef{"core.infer_ms.b1", "ms"},
		metricDef{"core.infer_ms.b2", "ms"},
		metricDef{"serve.server_ms_p50", "ms"},
		metricDef{"serve.server_ms_p99", "ms"},
		metricDef{"serve.transport_ms_p50", "ms"},
		metricDef{"serve.batch_wait_ms_p50", "ms"},
		metricDef{"serve.mean_batch", "count"},
		metricDef{"serve.batches", "count"},
		metricDef{"serve.queue_max", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.gen_late_ms_p99", "ms"},
		metricDef{"obs.trace_overhead_share", "fraction"},
	)
}()

// absent reports 0 for per-layer metrics of layers the workload never
// enters.
func (r *result) absent(names ...string) {
	for _, n := range names {
		for _, d := range perLayer {
			if d.Name == n {
				r.set(n, d.Unit, 0, 0)
			}
		}
	}
}
