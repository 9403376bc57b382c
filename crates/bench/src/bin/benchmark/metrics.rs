//! The metric names this benchmark prints. `/BENCHMARK.json` lists the
//! same names, units and directions; a unit test keeps the two in step.
//! A later issue claims a gain by these names only.

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Measured with tracing off; every workload reports all six.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "max_stretch",
        unit: "ratio",
        better: "lower",
        bound: 0.001,
    },
];

/// `(name, unit, better)` of every per-layer metric, `<layer>.<metric>`
/// with the crates/modules as layers. A traced run prints all of them;
/// a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str, &str); 70] = [
    // The parts of `setup_s`.
    ("workload.gen_s", "s", "lower"),
    ("sched.build_s", "s", "lower"),
    ("sim.warmup_s", "s", "lower"),
    ("serve.recover_s", "s", "lower"),
    ("serve.recover_cmds_per_s", "1/s", "higher"),
    // dfrs_sim: exact simulated counts, then the engine's own time
    // (pass wall minus the scheduler spans).
    ("sim.events", "count", "lower"),
    ("sim.sched_calls", "count", "lower"),
    ("sim.peak_live_jobs", "count", "lower"),
    ("sim.peak_resident_jobs", "count", "lower"),
    ("sim.migrations", "count", "lower"),
    ("sim.preemptions", "count", "lower"),
    ("sim.mean_stretch", "ratio", "lower"),
    ("sim.makespan_s", "s", "lower"),
    ("sim.engine_self_s", "s", "lower"),
    ("sim.engine_self_share", "ratio", "lower"),
    ("sim.engine_self_us_per_event", "us", "lower"),
    // dfrs_sched: the `Scheduler::on_event` spans.
    ("sched.busy_s", "s", "lower"),
    ("sched.share", "ratio", "lower"),
    ("sched.decision_mean_us", "us", "lower"),
    ("sched.decision_p50_us", "us", "lower"),
    ("sched.decision_p99_us", "us", "lower"),
    ("sched.decision_max_us", "us", "lower"),
    ("sched.jobs_in_system_p50", "count", "lower"),
    // dfrs_sched::sharded: coordinator span minus the inner spans.
    ("sharded.outer_busy_s", "s", "lower"),
    ("sharded.inner_busy_s", "s", "lower"),
    ("sharded.coord_self_s", "s", "lower"),
    ("sharded.coord_self_share", "ratio", "lower"),
    ("sharded.coord_self_us_per_event", "us", "lower"),
    ("sharded.inner_calls", "count", "lower"),
    ("sharded.shard_imbalance_ratio", "ratio", "lower"),
    // dfrs_packing: exact counters, then the replay of captured sets.
    ("packing.searches", "count", "lower"),
    ("packing.packs", "count", "lower"),
    ("packing.packs_per_search", "ratio", "lower"),
    ("packing.memo_search_hits", "count", "higher"),
    ("packing.memo_hit_ratio", "ratio", "higher"),
    ("packing.memo_packs_saved", "count", "higher"),
    ("packing.replay_sets", "count", "higher"),
    ("packing.replay_jobs_p50", "count", "lower"),
    ("packing.alloc_p50_us", "us", "lower"),
    ("packing.alloc_p99_us", "us", "lower"),
    ("packing.searches_per_alloc", "ratio", "lower"),
    ("packing.search_p50_us", "us", "lower"),
    ("packing.search_p99_us", "us", "lower"),
    ("packing.search_warm_p50_us", "us", "lower"),
    ("packing.pack_p50_us", "us", "lower"),
    ("packing.drf_search_p50_us", "us", "lower"),
    ("packing.drf_search_p99_us", "us", "lower"),
    ("packing.vecpack3_p50_us", "us", "lower"),
    // dfrs_core::pool and dfrs_core::json.
    ("pool.workers", "count", "higher"),
    ("pool.scope_roundtrip_us", "us", "lower"),
    ("json.parse_us_per_line", "us", "lower"),
    ("json.render_us_per_event", "us", "lower"),
    // dfrs_serve: the `handle_batch` and response-rendering spans, the
    // daemon without a journal, then the journal alone.
    ("serve.busy_s", "s", "lower"),
    ("serve.share", "ratio", "lower"),
    ("json.render_share", "ratio", "lower"),
    ("serve.apply_us_per_cmd", "us", "lower"),
    ("serve.stats_us", "us", "lower"),
    ("serve.snapshot_ms", "ms", "lower"),
    ("serve.snapshot_bytes", "count", "lower"),
    ("serve.response_events", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("journal.enqueue_us_per_cmd", "us", "lower"),
    ("journal.commit_never_us_per_batch", "us", "lower"),
    ("journal.commit_always_us_per_batch", "us", "lower"),
    ("journal.fsync_share", "ratio", "lower"),
    ("journal.bytes_per_cmd", "count", "lower"),
    // The tracing itself, and the host.
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans_recorded", "count", "lower"),
    ("host.spin_ms_p50", "ms", "lower"),
    ("host.spin_ms_spread", "ratio", "lower"),
];
