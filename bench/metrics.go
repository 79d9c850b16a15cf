package main

// metricDecl declares one metric the benchmark prints. BENCHMARK.json
// carries the same names and units (the package test holds the two
// together); direction and bound live only there.
type metricDecl struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the fleet would see. Every one is
// defined, and non-zero, on every workload.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"route_qps", "1/s"},
	{"route_p50_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"allocs_per_query", "count"},
	{"resident_heap_mb", "MB"},
	{"answer_kl", "nats"},
}

// perLayer are the traced run's metrics, grouped by the layer they
// belong to. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDecl{
	{"client.requests", "count"},
	{"client.failed", "count"},
	{"client.blocks", "count"},
	{"client.block_spread", "ratio"},
	{"client.allocs_per_request", "count"},
	{"client.route_p99_ms", "ms"},

	{"gateway.proxy_self_ms", "ms"},
	{"gateway.dispatches_per_request", "count"},
	{"gateway.failovers", "count"},
	{"gateway.ring_lookup_ns", "ns"},
	{"gateway.batch_groups_per_request", "count"},

	{"server.http_self_ms", "ms"},
	{"server.hit_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.response_bytes", "B"},
	{"server.allocs_per_hit", "count"},
	{"server.batch_self_ms", "ms"},

	{"engine.route_self_ms", "ms"},
	{"engine.batch_parallel_eff", "ratio"},
	{"engine.swap_ms", "ms"},
	{"engine.set_landmarks_s", "s"},
	{"engine.new_with_modelset_s", "s"},

	{"routing.search_ms", "ms"},
	{"routing.search_self_ms", "ms"},
	{"routing.potentials_init_ms", "ms"},
	{"routing.potential_evals_per_query", "count"},
	{"routing.expansions_per_query", "count"},
	{"routing.labels_per_query", "count"},
	{"routing.pruned_potential_share", "ratio"},
	{"routing.pruned_pivot_share", "ratio"},
	{"routing.pruned_dominance_share", "ratio"},
	{"routing.arena_kb_per_query", "kB"},
	{"routing.allocs_per_search", "count"},

	{"hybrid.extend_busy_ms_per_query", "ms"},
	{"hybrid.extend_calls_per_query", "count"},
	{"hybrid.extend_convolve_us", "us"},
	{"hybrid.extend_estimate_us", "us"},
	{"hybrid.estimate_share", "ratio"},
	{"hybrid.slice_switches_per_query", "count"},
	{"hybrid.build_kb_s", "s"},
	{"hybrid.train_s", "s"},
	{"hybrid.kl_hybrid", "nats"},
	{"hybrid.kl_convolution", "nats"},

	{"hist.convolve_into_ns", "ns"},
	{"hist.convolve_products_per_call", "count"},
	{"hist.convolve_busy_ms_per_query", "ms"},

	{"ml.infer_row_ns", "ns"},
	{"ml.infer_busy_ms_per_query", "ms"},

	{"ingest.rebuild_s", "s"},
	{"ingest.trajs_per_s", "1/s"},
	{"ingest.fold_us_per_traj", "us"},
	{"ingest.rebuilds", "count"},
	{"ingest.rejected_share", "ratio"},
	{"traj.collect_us_per_traj", "us"},

	{"setup.netgen_s", "s"},
	{"setup.trajectories_s", "s"},
	{"setup.train_s", "s"},
	{"setup.landmarks_s", "s"},
	{"setup.fleet_start_s", "s"},
	{"setup.warmup_s", "s"},

	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_peak_mb", "MB"},

	{"trace.overhead_share", "ratio"},
	{"trace.search_share", "ratio"},
	{"trace.frontend_share", "ratio"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the metrics object for one mode: every declared name,
// taken from values, missing ones reading 0.
func collect(decls []metricDecl, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}
