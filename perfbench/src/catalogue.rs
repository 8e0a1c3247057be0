//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, in the order they are printed. `BENCHMARK.json` lists the
//! same names; a test keeps the two in step.

use crate::report::{Metric, Report};

/// The workloads, by `--workload` name.
pub const WORKLOADS: [&str; 2] = ["explore_check", "routed_failover"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("outage_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// never enters reports 0 there — no work, no time.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("sim.explorer.plain_s", "s"),
    ("sim.explorer.reduced_s", "s"),
    ("sim.explorer.runs", "count"),
    ("sim.explorer.pruned", "count"),
    ("sim.checkpoint.overhead_frac", "ratio"),
    ("epistemic.build_s", "s"),
    ("epistemic.valid_s", "s"),
    ("epistemic.points_per_s", "1/s"),
    ("epistemic.table_bytes", "bytes"),
    ("par.steals", "count"),
    ("serve.wire.encode_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.cache.key_us", "us"),
    ("serve.hit.rtt_us", "us"),
    ("serve.hit.server_us", "us"),
    ("serve.hit.transport_us", "us"),
    ("serve.miss.rtt_us", "us"),
    ("serve.miss.queue_wait_ms", "ms"),
    ("serve.miss.compute_ms", "ms"),
    ("serve.miss.overhead_us", "us"),
    ("core.harness.run_cell_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.pool.deepest_queue", "count"),
    ("router.hop_us", "us"),
    ("serve.ring.shard_for_ns", "ns"),
    ("detector.detect_ms", "ms"),
    ("detector.readmit_ms", "ms"),
    ("detector.false_suspicions", "count"),
    ("router.failovers", "count"),
    ("router.proactive_failovers", "count"),
    ("gen.lag_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Puts `report`'s metrics in catalogue order with catalogue units,
/// filling layers the workload never entered with 0. A metric the
/// catalogue does not list, or one given twice, is an output-check
/// failure.
#[must_use]
pub fn complete(mut report: Report, trace: bool) -> Report {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for m in &report.metrics {
        let listed = names.iter().any(|(n, u)| *n == m.name && *u == m.unit);
        let count = report.metrics.iter().filter(|o| o.name == m.name).count();
        if !listed || count > 1 {
            report.mismatches.push(format!(
                "metric {} [{}] is not in the catalogue once",
                m.name, m.unit
            ));
        }
    }
    report.metrics = names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: report.get(name).unwrap_or(0.0),
            unit,
        })
        .collect();
    report
}
