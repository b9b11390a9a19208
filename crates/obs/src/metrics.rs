//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with quantile estimation.
//!
//! Design constraints, in order:
//!
//! 1. **Lock-cheap hot path.** Handles ([`Counter`], [`Gauge`],
//!    [`Histogram`]) are `Arc`s over atomics; recording a sample is a few
//!    `fetch_add`s and never takes a lock. The registry's mutex guards only
//!    registration (get-or-create), which components do once at
//!    construction.
//! 2. **Deterministic exposition.** Metrics live in a `BTreeMap` keyed by
//!    `(name, labels)`, so snapshots and the Prometheus rendering are
//!    stably ordered run to run.
//! 3. **No dependencies.** Pure `std`, so every crate in the workspace can
//!    afford the import.
//!
//! Naming scheme (see DESIGN.md "Observability"): `xsec_<crate>_<name>`,
//! with `_total` for counters and `_us` for microsecond latencies.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration as StdDuration;

/// Default histogram buckets for microsecond latencies: roughly
/// logarithmic from 1 µs to 10 s, bracketing the O-RAN near-RT window
/// (10 ms – 1 s) with fine resolution on both sides. Values above the last
/// bound land in the implicit `+Inf` bucket.
const LATENCY_BUCKETS_US: [u64; 22] = [
    1,
    2,
    5,
    10,
    25,
    50,
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
];

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    /// Metric name (`xsec_<crate>_<name>` by convention).
    name: String,
    /// Label pairs, sorted by key.
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds (possibly negative) `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Ascending upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<u64>,
    /// One per bound, plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Latest exemplar pair; a zero trace id means "none yet".
    exemplar_value: AtomicU64,
    exemplar_trace: AtomicU64,
}

/// A fixed-bucket histogram over `u64` samples (microseconds by
/// convention), with p50/p90/p99/max estimation.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplar_value: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }))
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        let core = &self.0;
        let idx = core.bounds.partition_point(|b| *b < value);
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in microseconds.
    pub fn observe_duration(&self, d: StdDuration) {
        self.observe(d.as_micros() as u64);
    }

    /// Records one sample and, when `trace` is a real trace id (non-zero),
    /// remembers `(value, trace)` as the series' exemplar — the hook that
    /// links a latency quantile back to a causal incident trace.
    pub fn observe_with_exemplar(&self, value: u64, trace: u64) {
        self.observe(value);
        if trace != 0 {
            self.0.exemplar_value.store(value, Ordering::Relaxed);
            self.0.exemplar_trace.store(trace, Ordering::Relaxed);
        }
    }

    /// Records a wall-clock duration with a trace-id exemplar.
    pub fn observe_duration_with_exemplar(&self, d: StdDuration, trace: u64) {
        self.observe_with_exemplar(d.as_micros() as u64, trace);
    }

    /// The latest `(value, trace_id)` exemplar, if any sample carried one.
    pub fn exemplar(&self) -> Option<(u64, u64)> {
        let trace = self.0.exemplar_trace.load(Ordering::Relaxed);
        if trace == 0 {
            return None;
        }
        Some((self.0.exemplar_value.load(Ordering::Relaxed), trace))
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (exact, not bucket-estimated).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation inside the owning bucket — the standard
    /// `histogram_quantile` estimate. Unlike Prometheus, the estimate is
    /// clamped to the exact observed max, so a high quantile never reports
    /// a value no sample reached. Returns 0 when empty.
    fn quantile(&self, q: f64) -> f64 {
        quantile_from_cumulative(&self.cumulative_buckets(), self.max(), q)
    }

    /// Cumulative `(upper_bound, count ≤ bound)` pairs; the final entry is
    /// the `+Inf` bucket reported as `(u64::MAX, total)`.
    fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let core = &self.0;
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(core.buckets.len());
        for (i, bucket) in core.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            let le = core.bounds.get(i).copied().unwrap_or(u64::MAX);
            out.push((le, cum));
        }
        out
    }
}

/// The `q`-quantile of a histogram given as cumulative `(le, count ≤ le)`
/// pairs (the [`Histogram::cumulative_buckets`] shape) and its exact max.
fn quantile_from_cumulative(buckets: &[(u64, u64)], max: u64, q: f64) -> f64 {
    let total = buckets.last().map_or(0, |(_, cum)| *cum);
    if total == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let (mut lower, mut below) = (0u64, 0u64);
    for &(le, cum) in buckets {
        if cum > below && cum >= rank {
            // Overflow bucket: the exact max bounds it above.
            let upper = if le == u64::MAX { max.max(lower) } else { le };
            let frac = (rank - below) as f64 / (cum - below) as f64;
            let estimate = lower as f64 + frac * (upper - lower) as f64;
            return estimate.min(max as f64);
        }
        (lower, below) = (le, cum);
    }
    max as f64
}

#[derive(Debug, Clone)]
enum MetricHandle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl MetricHandle {
    fn kind(&self) -> &'static str {
        match self {
            MetricHandle::Counter(_) => "counter",
            MetricHandle::Gauge(_) => "gauge",
            MetricHandle::Histogram(_) => "histogram",
        }
    }
}

/// The registry: get-or-create metric handles, snapshot everything.
///
/// Cloning shares the underlying store — components hold clones and
/// register their own metrics.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<MetricKey, MetricHandle>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "MetricsRegistry({n} metrics)")
    }
}

impl MetricsRegistry {
    fn get_or_insert(&self, key: MetricKey, make: impl FnOnce() -> MetricHandle) -> MetricHandle {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        metrics.entry(key).or_insert_with(make).clone()
    }

    /// Gets or creates a counter.
    ///
    /// # Panics
    /// Panics if the same `(name, labels)` was registered as another type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(MetricKey::new(name, labels), || {
            MetricHandle::Counter(Counter::default())
        }) {
            MetricHandle::Counter(c) => c,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Gets or creates a gauge.
    ///
    /// # Panics
    /// Panics if the same `(name, labels)` was registered as another type.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(MetricKey::new(name, labels), || {
            MetricHandle::Gauge(Gauge::default())
        }) {
            MetricHandle::Gauge(g) => g,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Gets or creates a histogram with the default latency buckets.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, labels, &LATENCY_BUCKETS_US)
    }

    /// Gets or creates a histogram with explicit bucket bounds (used on
    /// first registration; later calls return the existing histogram).
    ///
    /// # Panics
    /// Panics if the same `(name, labels)` was registered as another type.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Histogram {
        match self.get_or_insert(MetricKey::new(name, labels), || {
            MetricHandle::Histogram(Histogram::new(bounds))
        }) {
            MetricHandle::Histogram(h) => h,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// A point-in-time copy of every metric, stably ordered by key.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let samples = metrics
            .iter()
            .map(|(key, handle)| MetricSample {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match handle {
                    MetricHandle::Counter(c) => SampleValue::Counter(c.get()),
                    MetricHandle::Gauge(g) => SampleValue::Gauge(g.get()),
                    MetricHandle::Histogram(h) => SampleValue::Histogram(HistogramSummary {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        mean: h.mean(),
                        p50: h.quantile(0.50),
                        p90: h.quantile(0.90),
                        p99: h.quantile(0.99),
                        buckets: h.cumulative_buckets(),
                        exemplar: h.exemplar(),
                    }),
                },
            })
            .collect();
        Snapshot { samples }
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// Quantile summary of one histogram at snapshot time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Cumulative `(le, count)` pairs, `+Inf` reported as `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
    /// Latest `(value, trace_id)` exemplar, when a sample carried one.
    pub exemplar: Option<(u64, u64)>,
}

/// One metric's snapshot value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// One `(name, labels)` entry of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: SampleValue,
}

/// A point-in-time copy of a registry, ready for exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every metric, ordered by `(name, labels)`.
    pub samples: Vec<MetricSample>,
}

impl Snapshot {
    /// The counter with this exact name, summed across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                SampleValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Every histogram whose name matches, with its labels.
    pub fn histograms(&self, name: &str) -> Vec<(&MetricSample, &HistogramSummary)> {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                SampleValue::Histogram(h) => Some((s, h)),
                _ => None,
            })
            .collect()
    }

    /// Every histogram with this name folded into one summary, as if all
    /// label sets had recorded into a single series (same bucket bounds
    /// assumed). Quantiles are re-estimated from the summed buckets; the
    /// exemplar is dropped. Zeroed when nothing matches.
    pub fn histogram_merged(&self, name: &str) -> HistogramSummary {
        let mut merged = HistogramSummary::default();
        for (_, h) in self.histograms(name) {
            merged.count += h.count;
            merged.sum += h.sum;
            merged.max = merged.max.max(h.max);
            if merged.buckets.is_empty() {
                merged.buckets = h.buckets.clone();
            } else {
                for (slot, (_, cum)) in merged.buckets.iter_mut().zip(&h.buckets) {
                    slot.1 += cum;
                }
            }
        }
        if merged.count > 0 {
            merged.mean = merged.sum as f64 / merged.count as f64;
        }
        merged.p50 = quantile_from_cumulative(&merged.buckets, merged.max, 0.50);
        merged.p90 = quantile_from_cumulative(&merged.buckets, merged.max, 0.90);
        merged.p99 = quantile_from_cumulative(&merged.buckets, merged.max, 0.99);
        merged
    }

    /// Total sample count across every histogram with this name.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms(name).iter().map(|(_, h)| h.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let registry = MetricsRegistry::default();
        let c = registry.counter("xsec_test_total", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same identity → same handle.
        assert_eq!(registry.counter("xsec_test_total", &[]).get(), 5);
        let g = registry.gauge("xsec_test_depth", &[("q", "main")]);
        g.add(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        assert_eq!(registry.metrics.lock().unwrap().len(), 2);
    }

    #[test]
    fn label_order_does_not_split_identity() {
        let registry = MetricsRegistry::default();
        let a = registry.counter("m", &[("a", "1"), ("b", "2")]);
        a.inc();
        let b = registry.counter("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(b.get(), 1);
        assert_eq!(registry.metrics.lock().unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let registry = MetricsRegistry::default();
        registry.counter("m", &[]);
        registry.gauge("m", &[]);
    }

    #[test]
    fn histogram_exact_bucket_quantile() {
        // 5 samples ≤ 50, 5 samples in (50, 100]: the median lands exactly
        // on the first bucket's cumulative count → exactly its upper bound.
        let h = Histogram::new(&[50, 100]);
        for _ in 0..5 {
            h.observe(30);
        }
        for _ in 0..5 {
            h.observe(80);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 80);
    }

    #[test]
    fn histogram_interpolated_quantile() {
        // All 10 samples in the (50, 100] bucket. p50 → rank 5 of 10 →
        // halfway through the bucket: 50 + 0.5·(100-50) = 75.
        let h = Histogram::new(&[50, 100]);
        for _ in 0..9 {
            h.observe(60);
        }
        h.observe(95);
        assert_eq!(h.quantile(0.5), 75.0);
        // p99 → rank 10 → the bucket's upper bound (100), clamped to the
        // exact max so the estimate never exceeds any observed sample.
        assert_eq!(h.quantile(0.99), 95.0);
        // First bucket interpolates from 0 (clamped to the max, 60).
        let h = Histogram::new(&[100]);
        h.observe(10);
        h.observe(60);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(1.0), 60.0);
    }

    #[test]
    fn histogram_overflow_bucket_uses_exact_max() {
        let h = Histogram::new(&[10]);
        h.observe(1_000);
        h.observe(4_000);
        assert_eq!(h.max(), 4_000);
        // Both samples overflow; quantiles interpolate between the last
        // bound and the exact max.
        assert!(h.quantile(0.99) <= 4_000.0);
        assert!(h.quantile(0.99) > 10.0);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets, vec![(10, 0), (u64::MAX, 2)]);
    }

    #[test]
    fn exemplar_links_quantiles_to_traces() {
        let h = Histogram::new(&[100]);
        h.observe(10);
        assert_eq!(h.exemplar(), None);
        h.observe_with_exemplar(40, 0); // untraced sample: no exemplar
        assert_eq!(h.exemplar(), None);
        h.observe_with_exemplar(55, 7);
        assert_eq!(h.exemplar(), Some((55, 7)));
        assert_eq!(h.count(), 3, "exemplar observes still count as samples");
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new(&LATENCY_BUCKETS_US);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn concurrent_counters_and_histograms_do_not_drop_samples() {
        let registry = MetricsRegistry::default();
        let mut handles = Vec::new();
        for t in 0..8 {
            let registry = registry.clone();
            handles.push(std::thread::spawn(move || {
                // Half the threads race on one shared counter identity,
                // all race registration of per-thread metrics.
                let shared = registry.counter("xsec_test_shared_total", &[]);
                let own = registry.counter("xsec_test_thread_total", &[("t", &t.to_string())]);
                let h = registry.histogram("xsec_test_latency_us", &[]);
                for i in 0..1_000u64 {
                    shared.inc();
                    own.inc();
                    h.observe(i % 97 + 1);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter_total("xsec_test_shared_total"), 8_000);
        assert_eq!(snapshot.counter_total("xsec_test_thread_total"), 8_000);
        assert_eq!(snapshot.histogram_count("xsec_test_latency_us"), 8_000);
    }

    #[test]
    fn merged_histogram_equals_one_series_with_every_sample() {
        let registry = MetricsRegistry::default();
        let whole = registry.histogram("whole_us", &[]);
        for (label, samples) in [("a", [3u64, 40, 700]), ("b", [9, 9, 12_000])] {
            let part = registry.histogram("parts_us", &[("agent", label)]);
            for v in samples {
                part.observe(v);
                whole.observe(v);
            }
        }
        let snapshot = registry.snapshot();
        let merged = snapshot.histogram_merged("parts_us");
        let (_, single) = snapshot.histograms("whole_us")[0];
        assert_eq!(&merged, single);
        assert_eq!(snapshot.histogram_merged("absent_us").count, 0);
    }

    #[test]
    fn snapshot_is_stably_ordered() {
        let registry = MetricsRegistry::default();
        registry.counter("b_metric", &[]).inc();
        registry.counter("a_metric", &[("z", "1")]).inc();
        registry.counter("a_metric", &[("a", "1")]).inc();
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a_metric", "a_metric", "b_metric"]);
    }
}
