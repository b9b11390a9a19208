//! Metric definitions (the single source `BENCHMARK.json` is checked
//! against), JSON helpers, and the `compare` report.

use crate::stats::{judge, median, spread, worsening, Better, Verdict};
use serde_json::Value;

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Regression bound as a share of the base median (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the deployment sees. Every one is
/// defined, and never zero, on every workload.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("records_per_s", "1/s", Higher, 0.25),
    e2e("bucket_p50_us", "us", Lower, 0.25),
    e2e("bucket_p90_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("rss_bytes_per_record", "B/record", Lower, 0.10),
];

/// Per-layer metrics: spans, probes, counts. Names are the crates'.
pub const PER_LAYER: [MetricDef; 98] = [
    // --- spans: ns-clock sums taken by the driver around each call --------
    layer("ran.step.busy_s", "s", Lower),
    layer("ran.apply_control.busy_s", "s", Lower),
    layer("mobiflow.extract.busy_s", "s", Lower),
    layer("e2.agent_push.busy_s", "s", Lower),
    layer("e2.agent_report.busy_s", "s", Lower),
    layer("e2.agent_control.busy_s", "s", Lower),
    layer("ric.pump_ingest.busy_s", "s", Lower),
    layer("ric.pump_relay.busy_s", "s", Lower),
    layer("ric.pump_ack.busy_s", "s", Lower),
    layer("ric.pump_self.busy_s", "s", Lower),
    layer("mobiwatch.handler.busy_s", "s", Lower),
    layer("analyzer.handler.busy_s", "s", Lower),
    layer("mitigator.handler.busy_s", "s", Lower),
    layer("mitigator.clock_tick.busy_s", "s", Lower),
    layer("drive.pace_wait_s", "s", Higher),
    layer("drive.other_s", "s", Lower),
    layer("drive.traced_wall_s", "s", Lower),
    layer("drive.closure_frac", "ratio", Higher),
    layer("trace_overhead_frac", "ratio", Lower),
    // --- probes: bulk-timed on a sample of the workload's own stream ------
    layer("mobiflow.codec.encode_ns_per_record", "ns", Lower),
    layer("mobiflow.codec.decode_ns_per_record", "ns", Lower),
    layer("e2.kpm.encode_ns_per_record", "ns", Lower),
    layer("e2.kpm.decode_ns_per_record", "ns", Lower),
    layer("e2.e2ap.encode_ns_per_pdu", "ns", Lower),
    layer("e2.e2ap.decode_ns_per_pdu", "ns", Lower),
    layer("e2.wire.bytes_per_record", "B/record", Lower),
    layer("mobiflow.sdl.set_ns_per_record", "ns", Lower),
    layer("e2.transport.inproc_ns_per_frame", "ns", Lower),
    layer("e2.transport.tcp_ns_per_frame", "ns", Lower),
    layer("mobiwatch.process_ns_per_record", "ns", Lower),
    layer("dl.score.batched_ns_per_window", "ns", Lower),
    layer("dl.score.per_window_ns", "ns", Lower),
    layer("analyzer.analyze_ns_per_alert", "ns", Lower),
    layer("control.policy.decide_ns", "ns", Lower),
    layer("control.action.encode_ns", "ns", Lower),
    layer("control.action.decode_ns", "ns", Lower),
    layer("obs.flight.record_ns_per_event", "ns", Lower),
    // --- counts and ratios --------------------------------------------------
    layer("drive.buckets", "count", Higher),
    layer("drive.agent_rounds", "count", Higher),
    layer("drive.us_per_agent_round", "us", Lower),
    layer("drive.records_per_indication", "count", Higher),
    layer("drive.host_slowdown", "ratio", Lower),
    layer("drive.calib_kernel_slowdown", "ratio", Lower),
    layer("drive.calib_slices", "count", Higher),
    layer("drive.pool_warm_ups", "count", Lower),
    layer("drive.pool_wait_s", "s", Lower),
    layer("drive.raw_records_per_s", "1/s", Higher),
    layer("drive.raw_bucket_p50_us", "us", Lower),
    layer("drive.raw_bucket_p90_us", "us", Lower),
    layer("drive.bucket_p95_us", "us", Lower),
    layer("drive.tail_percentile", "ratio", Higher),
    layer("drive.bucket_tail_us", "us", Lower),
    layer("drive.bucket_max_us", "us", Lower),
    layer("drive.incident_buckets", "count", Higher),
    layer("drive.incident_p50_us", "us", Lower),
    layer("drive.incident_p90_us", "us", Lower),
    layer("drive.late_ratio", "ratio", Lower),
    layer("drive.start_late_p99_us", "us", Lower),
    layer("drive.backlog_max_buckets", "count", Lower),
    layer("drive.achieved_over_offered", "ratio", Higher),
    layer("drive.failed_ratio", "ratio", Lower),
    layer("drive.virtual_s", "s", Lower),
    layer("e2.records_pushed", "count", Higher),
    layer("e2.indications_sent", "count", Lower),
    layer("e2.egress_dropped", "count", Lower),
    layer("ric.pdus", "count", Lower),
    layer("ric.records_delivered", "count", Lower),
    layer("ric.delivery_amplification", "ratio", Lower),
    layer("ric.conns_scanned_per_pump", "count", Lower),
    layer("ric.controls_sent", "count", Higher),
    layer("ric.controls_acked", "count", Higher),
    layer("ric.controls_broadcast", "count", Higher),
    layer("ric.controls_unroutable", "count", Lower),
    layer("ric.egress_dropped", "count", Lower),
    layer("ric.router_unrouted", "count", Lower),
    layer("ric.authz_denied", "count", Lower),
    layer("mobiflow.sdl.entries", "count", Lower),
    layer("mobiwatch.windows_scored", "count", Higher),
    layer("mobiwatch.flagged", "count", Lower),
    layer("mobiwatch.alerts", "count", Lower),
    layer("analyzer.findings", "count", Lower),
    layer("mitigator.actions_issued", "count", Lower),
    layer("mitigator.actions_acked", "count", Higher),
    layer("mitigator.supervised", "count", Lower),
    layer("mitigator.actions_on_benign", "count", Lower),
    layer("ran.ues_spawned", "count", Higher),
    layer("ran.ues_stuck_live", "count", Lower),
    layer("ran.attack_conns_planned", "count", Higher),
    layer("ran.attack_conns_blocked", "count", Higher),
    layer("ran.benign_conns_rejected", "count", Lower),
    layer("obs.incidents", "count", Higher),
    layer("obs.incidents_dropped", "count", Lower),
    layer("mem.rss_mid_mb", "MB", Lower),
    layer("mem.rss_end_mb", "MB", Lower),
    layer("mem.peak_rss_mb", "MB", Lower),
    layer("check.reference_windows_compared", "count", Higher),
    layer("check.wiring_windows_compared", "count", Higher),
    layer("check.failed", "count", Lower),
];

/// Named values in definition order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Looks `name` up in `metrics`.
pub fn value_of(metrics: &Metrics, name: &str) -> Option<f64> {
    metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// `{"name": {"value": v, "unit": u}, ...}` for every definition, in
/// definition order.
///
/// # Panics
/// If a defined metric has no value — the contract is that one command
/// prints *every* metric.
pub fn metrics_json(defs: &[MetricDef], metrics: &Metrics) -> Value {
    Value::Object(
        defs.iter()
            .map(|def| {
                let value = value_of(metrics, def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
                (def.name.to_string(), serde_json::json!({ "value": value, "unit": def.unit }))
            })
            .collect(),
    )
}

/// Indented rendering of a JSON value (the vendored `serde_json` only
/// renders compact).
pub fn pretty(value: &Value) -> String {
    fn go(v: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match v {
            Value::Array(items)
                if !items.is_empty()
                    && items.iter().any(|i| i.as_object().is_some() || i.as_array().is_some()) =>
            {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Value::Object(entries)
                if entries
                    .iter()
                    .any(|(_, e)| e.as_object().is_some() || e.as_array().is_some()) =>
            {
                out.push_str("{\n");
                for (i, (k, e)) in entries.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Value::String(k.clone()).to_string());
                    out.push_str(": ");
                    go(e, depth + 1, out);
                    out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            leaf => out.push_str(&leaf.to_string()),
        }
    }
    let mut out = String::new();
    go(value, 0, &mut out);
    out.push('\n');
    out
}

/// The values of `metric` on `workload` across a result set's runs.
fn runs_of(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Value::as_array)
        .map(|runs| {
            runs.iter()
                .filter_map(|run| run.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
                .collect()
        })
        .unwrap_or_default()
}

/// Applies the bounds to two result sets: one row per workload x end-to-end
/// metric, every ratio with its base. Returns the report and the number of
/// `worse` rows.
pub fn compare(base: &Value, change: &Value, workloads: &[&str]) -> (String, usize) {
    let mut out = String::new();
    let comparable = |set: &Value| set.get("comparable").and_then(Value::as_bool) != Some(false);
    if !comparable(base) || !comparable(change) {
        out.push_str("note: a set was produced with --quick; its metrics are not comparable\n");
    }
    out.push_str(&format!(
        "{:<10} {:<22} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  {}\n",
        "workload",
        "metric",
        "base median",
        "change median",
        "worse by",
        "bound",
        "spread A",
        "spread B",
        "verdict"
    ));
    let mut worse = 0;
    for workload in workloads {
        for def in &END_TO_END {
            let a = runs_of(base, workload, def.name);
            let b = runs_of(change, workload, def.name);
            if a.is_empty() || b.is_empty() {
                out.push_str(&format!("{workload:<10} {:<22} (missing in a set)\n", def.name));
                continue;
            }
            let verdict = judge(&a, &b, def.better, def.bound);
            worse += usize::from(verdict == Verdict::Worse);
            let pct = |v: Option<f64>| v.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            out.push_str(&format!(
                "{workload:<10} {:<22} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}% {:>8} {:>8}  {} ({} vs {} runs, {})\n",
                def.name,
                median(&a),
                median(&b),
                worsening(median(&a), median(&b), def.better) * 100.0,
                def.bound * 100.0,
                pct(spread(&a)),
                pct(spread(&b)),
                verdict.label(),
                a.len(),
                b.len(),
                def.unit,
            ));
        }
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"), m.get("bound").and_then(Value::as_f64))
                })
                .collect()
        };
        let defined =
            |defs: &[MetricDef], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                defs.iter()
                    .map(|d| {
                        let better = if d.better == Higher { "higher" } else { "lower" };
                        (d.name.into(), d.unit.into(), better.into(), bounded.then_some(d.bound))
                    })
                    .collect()
            };
        assert_eq!(listed("end_to_end"), defined(&END_TO_END, true));
        assert_eq!(listed("per_layer"), defined(&PER_LAYER, false));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name").to_string())
            .collect();
        let ours: Vec<String> =
            crate::workloads::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn compare_flags_a_regression_and_passes_identical_sets() {
        let set = |rps: [f64; 3]| {
            let runs: Vec<Value> = rps
                .iter()
                .map(|v| {
                    let metrics: Metrics = END_TO_END
                        .iter()
                        .map(|d| (d.name, if d.name == "records_per_s" { *v } else { 1.0 }))
                        .collect();
                    serde_json::json!({ "end_to_end": metrics_json(&END_TO_END, &metrics) })
                })
                .collect();
            serde_json::json!({ "workloads": { "steady": { "runs": runs } } })
        };
        let base = set([100.0, 101.0, 99.0]);
        let (text, worse) = compare(&base, &base, &["steady"]);
        assert_eq!(worse, 0, "{text}");
        let (text, worse) = compare(&base, &set([60.0, 61.0, 59.0]), &["steady"]);
        assert_eq!(worse, 1, "{text}");
        assert!(text.contains("worse"), "{text}");
    }
}
