//! Metric catalogs and the result line.

use crate::spans::num;

/// End-to-end metrics, `(name, unit)`; printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("throughput_medges_s", "Medges/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`; printed by every traced run. A
/// layer that does not run on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.builder.build_s", "s"),
    ("graph.builder.cpu_util", "ratio"),
    ("graph.builder.dedup_ratio", "ratio"),
    ("graph.builder.peak_rss_mib", "MiB"),
    ("graph.builder.speedup_vs_1t", "ratio"),
    ("core.cpu.solve_s", "s"),
    ("core.cpu.cpu_util", "ratio"),
    ("core.cpu.iterations", "count"),
    ("core.cpu.two_phase_share", "ratio"),
    ("core.cpu.vs_serial_kruskal", "ratio"),
    ("core.cpu.peak_rss_mib", "MiB"),
    ("core.cpu.speedup_vs_1t", "ratio"),
    ("core.cpu.populate_s", "s"),
    ("core.cpu.phase1_s", "s"),
    ("core.cpu.phase2_s", "s"),
    ("core.filter.plan_s", "s"),
    ("core.verify.verify_s", "s"),
    ("core.verify.peak_rss_mib", "MiB"),
    ("core.verify.speedup_vs_1t", "ratio"),
    ("core.serial.kruskal_s", "s"),
    ("baselines.pbbs.serial_s", "s"),
    ("core.dynamic.apply_batch_s", "s"),
    ("core.dynamic.cuts_per_batch", "count"),
    ("core.dynamic.swaps_per_batch", "count"),
    ("core.dynamic.links_per_batch", "count"),
    ("core.dynamic.replacement_ratio", "ratio"),
    ("core.dynamic.candidates_per_cut", "count"),
    ("core.dynamic.tree_churn_per_batch", "count"),
    ("core.dynamic.speedup_vs_rebuild", "ratio"),
    ("core.sharded.wall_s", "s"),
    ("core.sharded.solve_s", "s"),
    ("core.sharded.merge_s", "s"),
    ("core.sharded.survivor_ratio", "ratio"),
    ("core.sharded.merge_rounds", "count"),
    ("core.sharded.spill_mb", "MB"),
    ("core.sharded.cpu_util", "ratio"),
    ("core.sharded.peak_rss_mib", "MiB"),
    ("core.sharded.speedup_vs_1t", "ratio"),
    ("core.sharded.vs_monolith", "ratio"),
    ("gpu_sim.simulated_ms", "ms"),
    ("gpu_sim.launches", "count"),
    ("gpu_sim.wall_s", "s"),
    ("bench.traced_op_s", "s"),
    ("bench.overhead_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.check_s", "s"),
    ("fail_ratio", "ratio"),
];

/// Values for one catalog, in catalog order.
#[derive(Debug, Clone)]
pub struct Sheet {
    rows: Vec<(&'static str, &'static str, f64)>,
}

impl Sheet {
    /// Every metric of `catalog`, each at 0 until set.
    pub fn new(catalog: &[(&'static str, &'static str)]) -> Self {
        Self {
            rows: catalog.iter().map(|&(n, u)| (n, u, 0.0)).collect(),
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    /// If `name` is not in the catalog: a typo must not drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let row = self
            .rows
            .iter_mut()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        row.2 = if value.is_finite() { value } else { 0.0 };
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .rows
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// The result line: correctness verdict, operation counts and metrics.
pub fn result_line(attempted: u64, failed: u64, sheet: &Sheet) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        sheet.to_json()
    )
}
