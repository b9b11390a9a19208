//! Streaming soak: a million distinct UEs through the deployed stack under
//! a flat memory ceiling.
//!
//! A multi-cell [`StreamingScenario`] (mobility, churn, periodic
//! registration storms) feeds a [`ScaleDeployment`] with one agent per
//! cell, run by [`ScaleDeployment::drive`] like every other deployment: E2
//! agents, the platform, the detector's per-UE pool, the LLM analyzer and
//! the mitigator see every record. The feed is open loop: Control Requests
//! travel to the agents and are acked, but nothing applies them, so the
//! stream does not depend on what the RIC decides. The run demonstrates
//! the memory story end to end:
//!
//! * the generator's slab + backpressure keep live UE state bounded by
//!   `max_live`, not by the population size;
//! * the detector's eviction-on-release path keeps per-UE window state
//!   bounded by the open-connection count (`xsec_mobiwatch_tracked_keys`);
//! * peak RSS (`VmHWM`) stays under a hard ceiling, with every bounded
//!   queue and log on the live path in it.
//!
//! Quick mode (`--quick`) streams 100k UEs; the full run streams 1M, both
//! under a 512 MB ceiling. Results go to stdout,
//! `target/experiments/soak.txt`, and `BENCH_soak.json` (consumed by CI),
//! all written before the gate is checked, so a failed run leaves its
//! evidence; a failed gate then exits non-zero.

use serde_json::{json, Value};
use sixg_xsec::{Pipeline, PipelineConfig, RanFeed, ScaleDeployment, TrainingConfig};
use std::time::Instant;
use xsec_bench::{quick_mode, save_report};
use xsec_control::ControlAction;
use xsec_mobiflow::{extract_from_events, extract_from_events_at, UeMobiFlow};
use xsec_obs::{Gauge, Obs, SampleValue};
use xsec_ran::{StormConfig, StreamConfig, StreamingScenario};
use xsec_types::{Duration, Timestamp};

/// Peak resident set size (kB) from `/proc/self/status`, if readable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The soak deployment shape. `total_ues` is the only knob that scales with
/// the target — everything resident is bounded by `max_live`.
fn soak_config(total_ues: u64) -> StreamConfig {
    StreamConfig {
        seed: 0x50AC,
        cells: 4,
        total_ues,
        mean_inter_arrival: Duration::from_micros(400),
        mobility_fraction: 0.05,
        max_handovers: 1,
        storm: Some(StormConfig { period: Duration::from_secs(5), burst: 128 }),
        max_live: 2_048,
        ..StreamConfig::default()
    }
}

/// The soak's RAN: the engine stepped once per report bucket, open loop.
/// It keeps the peak of the detector's tracked-keys gauge.
struct Soak {
    engine: StreamingScenario,
    cursor: u64,
    detector: &'static str,
    tracked: Gauge,
    peak_tracked: i64,
}

impl RanFeed for Soak {
    fn attach_obs(&mut self, obs: &Obs) {
        self.tracked = obs.gauge("xsec_mobiwatch_tracked_keys", &[("detector", self.detector)]);
    }

    fn fill(&mut self, bucket_end: Timestamp, bucket: &mut Vec<UeMobiFlow>) -> bool {
        let chunk = extract_from_events_at(&self.engine.step(bucket_end), self.cursor);
        self.cursor += chunk.records.len() as u64;
        bucket.extend(chunk.records);
        !self.engine.done()
    }

    fn end_bucket(&mut self, _at: Timestamp, _enforced: &[(Timestamp, ControlAction)]) {
        self.peak_tracked = self.peak_tracked.max(self.tracked.get());
    }
}

fn main() {
    let quick = quick_mode();
    let target: u64 = if quick { 100_000 } else { 1_000_000 };
    let ceiling_mb: u64 = 512;
    let pipeline_config = PipelineConfig {
        training: TrainingConfig {
            autoencoder_epochs: 10,
            lstm_epochs: 2,
            autoencoder_hidden: vec![48, 12],
            lstm_hidden: 24,
            ..TrainingConfig::default()
        },
        // Any nonzero value deploys the per-UE pool.
        scoring_shards: 1,
        ..PipelineConfig::paper(7)
    };
    let period = Duration::from_millis(u64::from(pipeline_config.report_period_ms));

    // Train on a small benign run of the *same* streaming deployment,
    // stepped at the report period `drive` steps the live stream at, so the
    // detector models the distribution it will patrol.
    eprintln!("soak: training on a streaming benign sample");
    let mut trainer = StreamingScenario::new(StreamConfig { seed: 7, ..soak_config(2_000) });
    let mut training_events = Vec::new();
    let mut deadline = Timestamp::ZERO;
    while !trainer.done() {
        deadline += period;
        training_events.extend(trainer.step(deadline));
    }
    let pipeline = Pipeline::train_on(&pipeline_config, &extract_from_events(&training_events));
    drop(training_events);

    eprintln!("soak: streaming {target} UEs (quick={quick})");
    let config = soak_config(target);
    let mut d = ScaleDeployment::new(&pipeline, config.cells);
    let mut feed = Soak {
        engine: StreamingScenario::new(config.clone()),
        cursor: 0,
        detector: pipeline_config.detector.label(),
        tracked: Gauge::default(),
        peak_tracked: 0,
    };
    let start = Instant::now();
    let outcome = d.drive(&mut feed);
    let wall = start.elapsed().as_secs_f64();
    let stats = feed.engine.stats();
    let peak_tracked = feed.peak_tracked;
    let (issued, acked) = (outcome.mitigation.issued, outcome.mitigation.acked);
    // Every drop site's counter, the platform's and the agents' egress
    // queues (`xsec_ric_egress_dropped_total`, `xsec_e2_egress_dropped_total`)
    // among them: each nonzero series by name and labels.
    let dropped_by_site: Vec<(String, u64)> = outcome.metrics.samples.iter()
        .filter(|s| s.name.starts_with("xsec_") && s.name.ends_with("_dropped_total"))
        .filter_map(|s| match s.value {
            SampleValue::Counter(n) if n > 0 => {
                let labels: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                Some((format!("{}{{{}}}", s.name, labels.join(",")), n))
            }
            _ => None,
        })
        .collect();
    let dropped: u64 = dropped_by_site.iter().map(|(_, n)| n).sum();

    let rss_kb = peak_rss_kb().unwrap_or(0);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let recorder = &d.obs().recorder;
    let incidents = recorder.incidents().len();
    let records_per_sec = outcome.records as f64 / wall;
    let report = json!({
        "quick": quick,
        "cores": cores,
        "target_ues": target,
        "ues_streamed": stats.spawned,
        "ues_completed": stats.completed,
        "handovers": stats.handovers,
        "storms": stats.storms,
        "peak_live": stats.peak_live,
        "slab_slots": stats.slab_slots,
        "peak_tracked_ues": peak_tracked,
        "records": outcome.records,
        "flagged_windows": outcome.flagged_windows,
        "alerts": outcome.alerts,
        "controls_issued": issued,
        "controls_acked": acked,
        "dropped": dropped,
        "dropped_by_site": Value::Object(
            dropped_by_site.iter().map(|(series, n)| (series.clone(), json!(n))).collect(),
        ),
        "incidents": incidents,
        "incidents_dropped": recorder.dropped_incidents(),
        "peak_rss_kb": rss_kb,
        "rss_ceiling_mb": ceiling_mb,
        "wall_secs": wall,
        "records_per_sec": records_per_sec,
    });
    std::fs::write("BENCH_soak.json", serde_json::to_string(&report).expect("serializes"))
        .expect("write BENCH_soak.json");

    let text = format!(
        "Streaming soak\n==============\n\n\
         {} UEs streamed ({} handovers, {} storms), {} records scored\n\
         peak live {} / slab {} slots / detector tracked {peak_tracked} UEs\n\
         {} flagged windows, {} alerts, {incidents} incident traces\n\
         {issued} controls issued, {acked} acked, {dropped} dropped\n\
         peak RSS {:.1} MB (ceiling {ceiling_mb} MB), {wall:.1}s wall, {records_per_sec:.0} records/s\n\n\
         Wrote BENCH_soak.json\n",
        stats.spawned,
        stats.handovers,
        stats.storms,
        outcome.records,
        stats.peak_live,
        stats.slab_slots,
        outcome.flagged_windows,
        outcome.alerts,
        rss_kb as f64 / 1024.0,
    );
    print!("{text}");
    save_report("soak", &text);
    xsec_bench::save_incidents(recorder, "soak_incidents");

    // The soak gate: the full population streamed through the stack, the
    // stream drained, every control acked, nothing dropped, and nothing
    // resident past its bound.
    assert!(stats.spawned >= target, "streamed {} of {target} UEs", stats.spawned);
    assert_eq!(stats.completed, stats.spawned, "stream did not drain");
    assert!(outcome.records as u64 > stats.spawned, "detection saw fewer records than UEs");
    assert_eq!(acked, issued, "{issued} controls issued, {acked} acked");
    assert_eq!(dropped, 0, "the stack dropped {dropped} items: {dropped_by_site:?}");
    let storm_burst = config.storm.as_ref().map_or(0, |s| s.burst);
    // Slab slots are the generator's true high-water of concurrent UEs:
    // bounded by the backpressure ceiling (plus one storm burst, which
    // spawns past it by design), never by the population size.
    assert!(
        stats.slab_slots <= (config.max_live + storm_burst) * 2,
        "slab grew past the backpressure ceiling: {} slots for max_live {}",
        stats.slab_slots,
        config.max_live
    );
    assert!(
        peak_tracked <= ((config.max_live + storm_burst) * 4) as i64,
        "detector tracked {peak_tracked} UEs — eviction is leaking"
    );
    if rss_kb > 0 {
        assert!(
            rss_kb < ceiling_mb * 1024,
            "peak RSS {rss_kb} kB blew the {ceiling_mb} MB soak ceiling"
        );
    }
}
