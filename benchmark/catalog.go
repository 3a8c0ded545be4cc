package main

// metric is one named number the benchmark prints, with its unit. The
// names and units here are the ones BENCHMARK.json lists; the smoke test
// holds the two together.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of each surface sees, printed with
// -trace 0.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
}

// perLayer are the per-layer metrics, printed with -trace 1. A metric
// of a layer a workload does not cross reads 0 on that workload.
var perLayer = []metric{
	{"registry.env_new_us", "us"},
	{"replayer.session_start_us", "us"},
	{"replayer.resolve_us", "us"},
	{"replayer.action_us", "us"},
	{"replayer.steps", "count"},
	{"replayer.relaxed_ratio", "ratio"},
	{"replayer.coords_ratio", "ratio"},
	{"replayer.failed_steps", "count"},
	{"weberr.infer_ms", "ms"},
	{"weberr.plan_us", "us"},
	{"campaign.execute_ms", "ms"},
	{"campaign.replayed", "count"},
	{"campaign.pruned_ratio", "ratio"},
	{"campaign.envs_per_replay", "ratio"},
	{"distrib.distribute_ms", "ms"},
	{"distrib.first_grant_wait_ms", "ms"},
	{"distrib.shard_exec_ms", "ms"},
	{"distrib.lease_polls", "count"},
	{"distrib.lease_idle_ratio", "ratio"},
	{"distrib.image_fetches", "count"},
	{"distrib.wire_kb", "KB"},
	{"distrib.wire_ms.lease", "ms"},
	{"distrib.wire_ms.image", "ms"},
	{"distrib.wire_ms.complete", "ms"},
	{"distrib.wire_ms.heartbeat", "ms"},
	{"distrib.retries", "count"},
	{"distrib.fallback_ratio", "ratio"},
	{"image.store_images", "count"},
	{"image.store_kb", "KB"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms.replay", "ms"},
	{"jobs.run_ms.report", "ms"},
	{"jobs.run_ms.navigation-campaign", "ms"},
	{"jobs.run_ms.load-campaign", "ms"},
	{"jobs.publish_lag_ms", "ms"},
	{"jobs.retained", "count"},
	{"jobs.heap_kb_per_job", "KB"},
	{"serve.submit_us", "us"},
	{"serve.post_ms", "ms"},
	{"serve.list_ms", "ms"},
	{"serve.metrics_ms", "ms"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.stale_frame_ratio", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"max_rate_per_s", "1/s"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"fail_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.heap_end_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.attributed_ratio", "ratio"},
}
