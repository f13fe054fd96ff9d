package main

// perLayer lists every per-layer metric the traced run reports, with its
// unit and which way is better; BENCHMARK.json carries the same list and
// bench_test.go keeps the two equal. Every traced run reports every name: a
// layer the workload does not exercise reads 0. README.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = []struct{ name, unit, better string }{
	// What set-up is made of.
	{"surface.circuit_build_ms", "ms", "lower"},
	{"dem.extract_ms", "ms", "lower"},
	{"decodegraph.graph_build_ms", "ms", "lower"},
	{"decodegraph.gwt_build_ms", "ms", "lower"},
	{"decodegraph.gwt_bytes", "B", "lower"},
	{"decodegraph.gwt_build_d9_ms", "ms", "lower"},
	{"decodegraph.gwt_bytes_d9", "B", "lower"},
	{"artifact.compile_ms", "ms", "lower"},
	{"artifact.bytes", "B", "lower"},
	{"artifact.load_ms", "ms", "lower"},
	{"server.start_ms", "ms", "lower"},
	{"stream.new_us", "us", "lower"},
	{"stream.window_env_warm_ms", "ms", "lower"},
	{"proc.heap_after_setup_mb", "MB", "lower"},
	// The decoders.
	{"astrea.decode_ns_hw1-2", "ns", "lower"},
	{"astrea.decode_ns_hw3-4", "ns", "lower"},
	{"astrea.decode_ns_hw5-6", "ns", "lower"},
	{"astrea.decode_ns_hw7-8", "ns", "lower"},
	{"astrea.decode_ns_hw9-10", "ns", "lower"},
	{"astrea.decode_mean_ns", "ns", "lower"},
	{"astrea.model_mean_ns", "ns", "lower"},
	{"blossom.decode_ns", "ns", "lower"},
	{"sparsemwpm.decode_ns", "ns", "lower"},
	{"astreag.decode_ns", "ns", "lower"},
	{"unionfind.decode_ns", "ns", "lower"},
	{"decoder.allocs_per_op", "count", "lower"},
	{"dem.sample_ns", "ns", "lower"},
	{"montecarlo.run_shots_per_s", "1/s", "higher"},
	// The request path.
	{"compress.encode_ns", "ns", "lower"},
	{"compress.decode_ns", "ns", "lower"},
	{"compress.bytes_per_syndrome", "B", "lower"},
	{"wire.request_encode_ns", "ns", "lower"},
	{"wire.request_parse_ns", "ns", "lower"},
	{"wire.result_encode_ns", "ns", "lower"},
	{"wire.result_parse_ns", "ns", "lower"},
	{"client.send_ns", "ns", "lower"},
	{"server.sojourn_p50_us", "us", "lower"},
	{"server.sojourn_p99_us", "us", "lower"},
	{"svc.outside_server_p50_us", "us", "lower"},
	{"server.mean_batch", "count", "higher"},
	{"server.rejected", "count", "lower"},
	{"server.degraded", "count", "lower"},
	{"server.bytes_in_per_req", "B", "lower"},
	{"svc.rtt_over_1ms_share", "ratio", "lower"},
	{"svc.pingpong_rtt_p50_us", "us", "lower"},
	{"realtime.hist_add_ns", "ns", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	// The stream path.
	{"stream.pushrow_ns", "ns", "lower"},
	{"stream.rows_per_window", "count", "higher"},
	{"stream.empty_window_share", "ratio", "higher"},
	{"stream.forced_cut_share", "ratio", "lower"},
	{"stream.fallback_share", "ratio", "lower"},
	{"stream.budget_miss_share", "ratio", "lower"},
	{"stream.wholeshot_ns_per_round", "ns", "lower"},
	{"stream.overhead_ratio", "ratio", "lower"},
	{"client.send_rounds_ns", "ns", "lower"},
	{"server.stream_sojourn_p50_us", "us", "lower"},
	{"svc_stream.outside_server_p50_us", "us", "lower"},
	{"svc_stream.wire_vs_inproc_ratio", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// endToEndMetrics are the numbers a user of the system sees; every workload
// reports all of them, each the better quartile over the run's epochs
// (setup_s: over the repeated set-ups). Bounds live in BENCHMARK.json.
// Failures are not a metric here: the result line carries failed/attempted.
var endToEndMetrics = []struct {
	name, unit string
	higher     bool // higher is better
	of         func(epochStat) float64
}{
	{"setup_s", "s", false, nil},
	{"ops_per_s", "op/s", true, opsPerS},
	{"lat_p50_us", "us", false, latP50Us},
	{"lat_p99_us", "us", false, latP99Us},
	{"cpu_us_per_op", "us", false, cpuUsPerOp},
}
