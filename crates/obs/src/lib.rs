//! # xsec-obs
//!
//! The observability substrate for the 6G-XSec pipeline: one metrics
//! registry and one flight recorder that every stage — E2 ingest, indication
//! pump, MobiWatch inference, LLM analysis, mitigation delivery, RAN
//! enforcement — records into, so a single snapshot explains where the
//! detection→control budget went.
//!
//! ## Pieces
//!
//! * [`MetricsRegistry`] — lock-cheap [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s with p50/p90/p99/max estimates. Handles
//!   are `Arc`s over atomics; the hot path never takes a lock.
//! * [`FlightRecorder`] — per-record causal trace ids and the bounded
//!   incident store behind `incidents.jsonl`.
//! * Exposition — [`Snapshot::render_prometheus`],
//!   [`Snapshot::render_json`], and [`Snapshot::write_files`] dump
//!   `metrics.prom` / `metrics.json` per run.
//! * [`Obs`] — the pair of them, cloned cheaply into every component.
//!
//! ## Example
//!
//! ```
//! use xsec_obs::Obs;
//!
//! let obs = Obs::new();
//! let decoded = obs.counter("xsec_e2_pdus_total", &[]);
//! let latency = obs.histogram("xsec_e2_decode_latency_us", &[]);
//! let start = std::time::Instant::now();
//! decoded.inc(); // ... decode work ...
//! latency.observe_duration(start.elapsed());
//! assert_eq!(latency.count(), 1);
//! assert!(obs.metrics.render_prometheus().contains("xsec_e2_pdus_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod flight;
mod metrics;

pub use flight::{
    DenialRecord, FlightEvent, FlightRecorder, FlightRing, Incident, TraceCtx, TraceStage,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, MetricSample, MetricsRegistry, SampleValue,
    Snapshot,
};

/// The combined observability handle: a metrics registry and the causal
/// flight recorder. Cloning shares both.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// The metrics registry.
    pub metrics: MetricsRegistry,
    /// The causal incident flight recorder.
    pub recorder: FlightRecorder,
}

impl Obs {
    /// A fresh handle with an empty registry and recorder.
    pub fn new() -> Self {
        Obs::default()
    }

    /// Shorthand for [`MetricsRegistry::counter`].
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.metrics.counter(name, labels)
    }

    /// Shorthand for [`MetricsRegistry::gauge`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.metrics.gauge(name, labels)
    }

    /// Shorthand for [`MetricsRegistry::histogram`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.metrics.histogram(name, labels)
    }

    /// Shorthand for [`MetricsRegistry::snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }
}
