//! Exposition: Prometheus text format and JSON snapshots.
//!
//! Both renderers work off a [`Snapshot`], so one consistent point-in-time
//! view backs `metrics.prom` and `metrics.json`. The JSON is hand-rolled
//! (the crate is dependency-free) and flat: one object per metric with its
//! labels and either a scalar value or the histogram summary.

use crate::metrics::{MetricSample, SampleValue, Snapshot};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Escapes a Prometheus label value: backslash, double quote, newline.
fn escape_prom_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes a JSON string body: the one escaper behind every hand-rolled
/// JSON document in the crate.
pub(crate) fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            other => out.push(other),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_prom_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_prom_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn sample_kind(sample: &MetricSample) -> &'static str {
    match sample.value {
        SampleValue::Counter(_) => "counter",
        SampleValue::Gauge(_) => "gauge",
        SampleValue::Histogram(_) => "histogram",
    }
}

impl Snapshot {
    /// Renders the snapshot in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for sample in &self.samples {
            if last_name != Some(sample.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", sample.name, sample_kind(sample));
                last_name = Some(sample.name.as_str());
            }
            match &sample.value {
                SampleValue::Counter(v) => {
                    let _ =
                        writeln!(out, "{}{} {v}", sample.name, label_block(&sample.labels, None));
                }
                SampleValue::Gauge(v) => {
                    let _ =
                        writeln!(out, "{}{} {v}", sample.name, label_block(&sample.labels, None));
                }
                SampleValue::Histogram(h) => {
                    // OpenMetrics-style exemplar on the bucket that owns
                    // the exemplified sample, linking the quantile back to
                    // its incident trace id.
                    let exemplar_le = h.exemplar.and_then(|(value, _)| {
                        h.buckets.iter().map(|(le, _)| *le).find(|le| *le >= value)
                    });
                    for (le, cum) in &h.buckets {
                        let suffix = match (h.exemplar, exemplar_le) {
                            (Some((value, trace)), Some(owner)) if owner == *le => {
                                format!(" # {{trace_id=\"{trace}\"}} {value}")
                            }
                            _ => String::new(),
                        };
                        let le = if *le == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            le.to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}{suffix}",
                            sample.name,
                            label_block(&sample.labels, Some(("le", &le))),
                        );
                    }
                    let block = label_block(&sample.labels, None);
                    let _ = writeln!(out, "{}_sum{block} {}", sample.name, h.sum);
                    let _ = writeln!(out, "{}_count{block} {}", sample.name, h.count);
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON document:
    /// `{"metrics": [{"name": ..., "labels": {...}, "type": ..., ...}]}`.
    fn render_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[\n");
        for (i, sample) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let labels = sample
                .labels
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"labels\":{{{labels}}},\"type\":\"{}\"",
                escape_json(&sample.name),
                sample_kind(sample),
            );
            match &sample.value {
                SampleValue::Counter(v) => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                SampleValue::Gauge(v) => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                SampleValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.3},\
                         \"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3}",
                        h.count, h.sum, h.max, h.mean, h.p50, h.p90, h.p99,
                    );
                    if let Some((value, trace)) = h.exemplar {
                        let _ = write!(
                            out,
                            ",\"exemplar\":{{\"value\":{value},\"trace_id\":{trace}}}",
                        );
                    }
                }
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes `<stem>.prom` and `<stem>.json` under `dir` (created if
    /// missing); returns both paths. Each file lands via temp-file +
    /// rename, so a concurrent reader (CI artifact scrape, a scraper
    /// polling mid-run) never observes a partially written exposition.
    pub fn write_files(&self, dir: &Path, stem: &str) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let prom = dir.join(format!("{stem}.prom"));
        let json = dir.join(format!("{stem}.json"));
        atomic_write(&prom, &self.render_prometheus())?;
        atomic_write(&json, &self.render_json())?;
        Ok((prom, json))
    }
}

/// Writes `contents` to `path` by writing a sibling `<path>.tmp` and
/// renaming it over the target — atomic on POSIX, so readers see either
/// the old file or the new one, never a torn write.
pub(crate) fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use crate::metrics::MetricsRegistry;

    #[test]
    fn prometheus_rendering_covers_all_types() {
        let registry = MetricsRegistry::default();
        registry.counter("xsec_test_total", &[("agent", "gnb-1")]).add(3);
        registry.gauge("xsec_test_depth", &[]).add(-2);
        let h = registry.histogram_with("xsec_test_latency_us", &[], &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5_000);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE xsec_test_total counter"));
        assert!(text.contains("xsec_test_total{agent=\"gnb-1\"} 3"));
        assert!(text.contains("xsec_test_depth -2"));
        assert!(text.contains("xsec_test_latency_us_bucket{le=\"10\"} 1"));
        assert!(text.contains("xsec_test_latency_us_bucket{le=\"100\"} 2"));
        assert!(text.contains("xsec_test_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("xsec_test_latency_us_sum 5055"));
        assert!(text.contains("xsec_test_latency_us_count 3"));
        // One TYPE line per metric name.
        assert_eq!(text.matches("# TYPE xsec_test_latency_us").count(), 1);
    }

    #[test]
    fn prometheus_label_escaping() {
        let registry = MetricsRegistry::default();
        registry.counter("m", &[("k", "a\"b\\c\nd")]).inc();
        let text = registry.render_prometheus();
        assert!(text.contains(r#"m{k="a\"b\\c\nd"} 1"#), "got: {text}");
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let registry = MetricsRegistry::default();
        registry.counter("m", &[("k", "quote\"backslash\\tab\t")]).inc();
        registry.histogram_with("h_us", &[], &[100]).observe(40);
        let json = registry.snapshot().render_json();
        assert!(json.contains(r#""k":"quote\"backslash\\tab\t""#), "got: {json}");
        assert!(json.contains(r#""name":"h_us","labels":{},"type":"histogram","count":1"#));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON dependency).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn write_files_round_trips() {
        let dir = std::env::temp_dir().join("xsec-obs-test-export");
        let registry = MetricsRegistry::default();
        registry.counter("m", &[]).inc();
        let (prom, json) = registry.snapshot().write_files(&dir, "metrics").unwrap();
        assert!(std::fs::read_to_string(&prom).unwrap().contains("m 1"));
        assert!(std::fs::read_to_string(json).unwrap().contains("\"name\":\"m\""));
        // The atomic write must not leave its temp file behind.
        let mut tmp = prom.into_os_string();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists(), "temp file left behind");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn exemplars_render_in_both_expositions() {
        let registry = MetricsRegistry::default();
        let h = registry.histogram_with("h_us", &[], &[10, 100]);
        h.observe(5);
        h.observe_with_exemplar(40, 7);
        let text = registry.render_prometheus();
        assert!(
            text.contains("h_us_bucket{le=\"100\"} 2 # {trace_id=\"7\"} 40"),
            "exemplar missing from its owning bucket: {text}"
        );
        // Only the owning bucket carries the exemplar.
        assert_eq!(text.matches("trace_id").count(), 1);
        let json = registry.snapshot().render_json();
        assert!(json.contains("\"exemplar\":{\"value\":40,\"trace_id\":7}"), "got: {json}");
    }
}
