//! The benchmark's metrics by name, and the record one run prints.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two equal.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Every workload reports every one; what
/// `latency_*` times on each workload is in the README.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("reports_per_s", "1/s", "higher"),
    m("latency_p50_us", "us", "lower"),
    m("latency_p90_us", "us", "lower"),
    m("delivered_frac", "frac", "higher"),
];

/// Single layers, measured from outside. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("packet.encode_ns_per_report", "ns", "lower"),
    m("packet.decode_stream_ns_per_report", "ns", "lower"),
    m("packet.decode_datagram_ns_per_report", "ns", "lower"),
    m("packet.wire_bytes_per_report", "B", "lower"),
    m("packet.decode_errors", "count", "lower"),
    m("net.client.cpu_us_per_report", "us", "lower"),
    m("net.client.gen_late_p99_us", "us", "lower"),
    m("net.intake.cpu_us_per_report", "us", "lower"),
    m("net.intake.runq_wait_us_per_report", "us", "lower"),
    m("net.intake.only_reports_per_s", "1/s", "higher"),
    m("net.intake.reports_per_datagram", "count", "higher"),
    m("net.intake.kernel_drop_frac", "frac", "lower"),
    m("net.intake.idle_wakeups", "count", "lower"),
    m("net.queue.depth_p50", "count", "lower"),
    m("net.queue.depth_p99", "count", "lower"),
    m("net.queue.shed_frac", "frac", "lower"),
    m("net.queue.push_timeouts", "count", "lower"),
    m("net.pump.cpu_us_per_report", "us", "lower"),
    m("net.pump.runq_wait_us_per_report", "us", "lower"),
    m("net.pump.reports_per_batch", "count", "higher"),
    m("net.pump.ingest_p50_ns", "ns", "lower"),
    m("net.pump.ingest_p99_ns", "ns", "lower"),
    m("net.pump.shard_imbalance", "ratio", "lower"),
    m("net.pump.worker_restarts", "count", "lower"),
    m("net.other.cpu_us_per_report", "us", "lower"),
    m("core.verify.ns_per_report", "ns", "lower"),
    m("core.verify.scan_ns_per_report", "ns", "lower"),
    m("core.fastpath.hit_ratio", "ratio", "higher"),
    m("core.server.gap_detect_p50_us", "us", "lower"),
    m("core.server.gap_detect_p99_us", "us", "lower"),
    m("core.robust.ns_per_report", "ns", "lower"),
    m("core.robust.duplicates", "count", "lower"),
    m("core.robust.graced", "count", "lower"),
    m("core.robust.quarantined", "count", "lower"),
    m("core.robust.shed", "count", "lower"),
    m("core.robust.confirmed_alarms", "count", "higher"),
    m("core.robust.false_alarms", "count", "lower"),
    m("core.localize.ns_per_failure", "ns", "lower"),
    m("core.localize.localized_frac", "frac", "higher"),
    m("core.incremental.update_p50_us", "us", "lower"),
    m("core.snapshot.publish_p50_us", "us", "lower"),
    m("core.snapshot.publishes", "count", "higher"),
    m("core.snapshot.reclaims", "count", "higher"),
    m("core.snapshot.clone_fallbacks", "count", "lower"),
    m(
        "core.snapshot.reader_quiescent_reports_per_s",
        "1/s",
        "higher",
    ),
    m("core.path_table.build_s", "s", "lower"),
    m("core.path_table.pairs", "count", "lower"),
    m("core.path_table.paths", "count", "lower"),
    m("backend.size_metric", "count", "lower"),
    m("proc.cpu_us_per_report", "us", "lower"),
    m("proc.ctx_switches_per_kreport", "count", "lower"),
    m("proc.tracing_overhead_frac", "frac", "lower"),
    m("proc.peak_rss_mb", "MB", "lower"),
];

/// The six workloads, in the order a full run takes them.
pub const WORKLOADS: &[&str] = &[
    "tcp_sat",
    "tcp_sat_robust",
    "udp_paced",
    "verify_inproc",
    "churn_bdd",
    "churn_atoms",
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reports (or verdicts, or updates) checked against the oracle.
    pub attempted: u64,
    /// Those that disagreed with it, plus reports the accounting lost and
    /// missed or false suspects.
    pub failed: u64,
    pub metrics: Metrics,
    /// Everything else worth keeping: configuration, window quartiles,
    /// sample counts, flags.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// The contract's result line: every metric of the chosen list, each
    /// with its unit.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics = defs.iter().map(|d| {
            let value = self.metrics.get(d.name).unwrap_or(0.0);
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Json) -> Vec<(String, String, String)> {
        list.as_array()
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        assert_eq!(names(doc.get("end_to_end").unwrap()), own(END_TO_END));
        assert_eq!(names(doc.get("per_layer").unwrap()), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metrics.set("setup_s", 0.25);
        let doc = Json::parse(&o.result_line(END_TO_END)).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), END_TO_END.len());
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
    }
}
