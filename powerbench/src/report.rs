//! Metric records, the canonical metric lists, and the result line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (iterations, deliveries, ...).
    pub samples: u64,
}

impl Metric {
    /// A metric with its sample count.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }

    /// A count: its own single sample.
    pub fn count(name: &'static str, value: u64) -> Metric {
        Metric::new(name, value as f64, "count", 1)
    }
}

/// Everything one benchmark invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host-time end-to-end metrics, in reference seconds.
    pub end_to_end: Vec<Metric>,
    /// The same host-time figures in raw host seconds, and the
    /// calibration kernel's time.
    pub host: Vec<Metric>,
    /// Exact end-to-end metrics (simulated time, counts): identical for
    /// a seed on every iteration, traced or not.
    pub exact: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Operations the benchmark issued or awaited.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Hash of the workload's outputs; repeats for a seed.
    pub digest: u64,
    /// Workload iterations run (including the warm-up).
    pub iterations: usize,
}

impl Outcome {
    /// Look a metric up in any block.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.host)
            .chain(&self.exact)
            .chain(&self.layers)
            .find(|m| m.name == name)
    }
}

/// End-to-end metrics every workload reports in an untraced run, with
/// their units: the `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_node_s_per_s", "node-s/s"),
    ("peak_rss_mb", "MiB"),
];

/// Exact end-to-end metrics, reported on the workloads they apply to
/// and 0 elsewhere (with 0 samples).
pub const EXACT: &[(&str, &str)] = &[
    ("cap_latency_us_p50", "us"),
    ("cap_latency_us_p99", "us"),
    ("sample_age_us_p50", "us"),
    ("sample_age_us_p99", "us"),
    ("failed_frac", "ratio"),
    ("energy_kj", "kJ"),
    ("makespan_s", "s"),
    ("over_budget_frac", "ratio"),
];

/// Per-layer metrics of a traced run. A layer a workload does not
/// exercise reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim-core.events", "count"),
    ("sim-core.ns_per_event", "ns"),
    ("sim-core.slice_ms_p50", "ms"),
    ("sim-core.slice_ms_p99", "ms"),
    ("sim-core.pending_peak", "count"),
    ("flux.overlay.delivered", "count"),
    ("flux.overlay.per_hop_ns", "ns"),
    ("flux.overlay.fault_drops", "count"),
    ("flux.overlay.congestion_drops", "count"),
    ("flux.overlay.reparents", "count"),
    ("flux.overlay.queue_delay_us_mean", "us"),
    ("flux.rpc.timeouts", "count"),
    ("flux.rpc.retries", "count"),
    ("flux.rpc.drops", "count"),
    ("flux.rpc.pending_end", "count"),
    ("flux.membership.epoch", "count"),
    ("flux.state.appended", "count"),
    ("flux.state.snapshots", "count"),
    ("flux.shard.windows", "count"),
    ("flux.shard.boundary_msgs", "count"),
    ("flux.shard.busy_s_max", "s"),
    ("flux.shard.wait_frac", "ratio"),
    ("flux.shard.event_imbalance", "ratio"),
    ("flux.shard.root_share", "ratio"),
    ("flux.exec.jobs_failed", "count"),
    ("power-monitor.deltas_delivered", "count"),
    ("power-monitor.deltas_shed", "count"),
    ("power-monitor.poll_useful_frac", "ratio"),
    ("power-monitor.poll_rtt_us_p50", "us"),
    ("power-monitor.poll_rtt_us_p99", "us"),
    ("power-monitor.subscribe_us_p99", "us"),
    ("power-monitor.reduction_us_p50", "us"),
    ("power-monitor.relay_ns_per_delivery", "ns"),
    ("power-monitor.root_egress_per_delta", "ratio"),
    ("power-manager.cap_updates", "count"),
    ("power-manager.cap_failures", "count"),
    ("power-manager.fpp_epochs", "count"),
    ("power-manager.fpp_epoch_ns", "ns"),
    ("fft.welch_ns", "ns"),
    ("fft.period_ns", "ns"),
    ("variorum.node_power_json_ns", "ns"),
    ("hw-models.read_sensors_ns", "ns"),
    ("hw-models.tick_ns", "ns"),
    ("layers.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("host.setup_s", "s"),
    ("host.sim_node_s_per_s", "node-s/s"),
    ("host.calibration_ms", "ms"),
];

/// Fill `list` from `found`, in canonical order, with 0 for absent
/// metrics. Panics if a found metric is not in the list or carries a
/// different unit: the printed names and units are a contract.
pub fn canonical(list: &[(&'static str, &'static str)], found: &[Metric]) -> Vec<Metric> {
    for m in found {
        let known = list.iter().find(|(n, _)| *n == m.name);
        assert!(
            known.is_some_and(|(_, u)| *u == m.unit),
            "metric {} ({}) is not in the canonical list",
            m.name,
            m.unit
        );
    }
    list.iter()
        .map(|&(name, unit)| {
            found
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric::new(name, 0.0, unit, 0))
        })
        .collect()
}

/// The machine-readable result: one JSON object on one line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            // `{:?}` is the shortest round-trip form: every digit as
            // measured, and valid JSON for finite values.
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// One human-readable line per metric: name, value, unit, samples.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("# {title}\n");
    for m in metrics {
        let _ = writeln!(
            out,
            "#   {:<38} {:>16} {:<9} n={}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
    }
    out
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            10,
            0,
            &[Metric::new("setup_s", 0.5, "s", 3), Metric::count("x", 7)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"x\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn canonical_fills_absent_metrics_with_zero() {
        let got = canonical(EXACT, &[Metric::new("energy_kj", 3.0, "kJ", 5)]);
        assert_eq!(got.len(), EXACT.len());
        assert_eq!(got[5].value, 3.0);
        assert_eq!(got[0].samples, 0);
    }

    #[test]
    fn names_are_unique_across_lists() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(EXACT)
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
