//! Every metric name the benchmark emits, with its unit. `BENCHMARK.json`
//! lists the same names (plus direction and bound); a test holds the two
//! together.

/// End-to-end metrics, reported by an untraced run of any workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("elems_per_s", "1/s"),
    ("pass_ms_p50", "ms"),
    ("pass_ms_p75", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics that are not per program. Unit `count` means the
/// value must repeat exactly between two runs of one commit and seed.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("streamir.build_us", "us"),
    ("streamir.validate_us", "us"),
    ("streamir.shash_us", "us"),
    ("streamir.simd_nodes", "count"),
    ("streamir.simd_edges", "count"),
    ("sdf.schedule_us", "us"),
    ("sdf.steady_firings", "count"),
    ("sdf.tape_bytes", "count"),
    ("core.simdize_us", "us"),
    ("core.single_actors", "count"),
    ("core.vertical_chains", "count"),
    ("core.horizontal_groups", "count"),
    ("core.region_actors", "count"),
    ("core.simd_speedup_geomean", "ratio"),
    ("core.simd_speedup_modelled_geomean", "ratio"),
    ("core.simd_speedup_model_error", "ratio"),
    ("vm.compile_dispatch_us", "us"),
    ("vm.compile_fused_us", "us"),
    ("vm.fuse_us", "us"),
    ("vm.filters_compiled", "count"),
    ("vm.filters_treewalk", "count"),
    ("vm.kernels_fused", "count"),
    ("vm.executor_new_us", "us"),
    ("vm.init_us", "us"),
    ("vm.firings_per_pass", "count"),
    ("vm.ns_per_firing", "ns"),
    ("vm.share_filter", "share"),
    ("vm.share_splitjoin", "share"),
    ("vm.share_hsplitjoin", "share"),
    ("vm.share_sink", "share"),
    ("vm.tape_elems_per_pass", "count"),
    ("vm.ns_per_tape_elem", "ns"),
    ("vm.fused_over_dispatch_geomean", "ratio"),
    ("vm.fused_over_dispatch_scalar_geomean", "ratio"),
    ("vm.bytecode_over_treewalk_geomean", "ratio"),
    ("vm.ns_per_modelled_cycle_geomean", "ns"),
    ("vm.model_error_spread", "ratio"),
    ("multicore.plan_us", "us"),
    ("multicore.cut_edges", "count"),
    ("multicore.fissioned", "count"),
    ("multicore.modelled_speedup_geomean", "ratio"),
    ("multicore.model_error_geomean", "ratio"),
    ("runtime.threaded_over_seq_geomean", "ratio"),
    ("runtime.launch_ms", "ms"),
    ("runtime.ring_elems_per_pass", "count"),
    ("runtime.stalls_per_iter", "1/iter"),
    ("runtime.stall_ns_share", "share"),
    ("runtime.batched_firings_share", "share"),
    ("service.submit_us_p50", "us"),
    ("service.feed_us_p50", "us"),
    ("service.close_wait_ms_p50", "ms"),
    ("service.session_ms_p50", "ms"),
    ("service.session_ms_p99", "ms"),
    ("service.sessions_per_s", "1/s"),
    ("service.cache_hit_rate", "share"),
    ("service.compilations", "count"),
    ("service.refusals", "count"),
    ("pdf.set_param_us_p50", "us"),
    ("pdf.reconfigs", "count"),
    ("pdf.scache_hit_rate", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.trace_coverage_share", "share"),
    ("bench.oracle_s", "s"),
    ("bench.stream_copy_gbs", "GB/s"),
    ("bench.stream_triad_gbs", "GB/s"),
    ("bench.tape_bandwidth_share", "share"),
];

/// The three rows every suite program gets (`prog.<Name>.<row>`, ns).
pub const PROG_ROWS: [&str; 3] = [
    "scalar_ns_per_iter",
    "simd_ns_per_iter",
    "threaded_ns_per_iter",
];

pub fn prog_metric(program: &str, row: &str) -> String {
    format!("prog.{program}.{row}")
}

/// Every end-to-end name with its unit, in emission order.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

/// Every per-layer name with its unit, in emission order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for b in macross_benchsuite::all() {
        for row in PROG_ROWS {
            all.push((prog_metric(b.name, row), "ns"));
        }
    }
    all
}
