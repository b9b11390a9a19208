//! Streaming soak: a million distinct UEs through detection under a flat
//! memory ceiling.
//!
//! Drives a [`StreamingScenario`] (multi-cell, mobility, churn, periodic
//! registration storms) one virtual bucket at a time, extracts MOBIFLOW
//! telemetry incrementally, and scores every record through the per-UE
//! [`MobiWatch::per_ue`] pool — draining the shared state after each
//! bucket so nothing accumulates with stream length. The run demonstrates
//! the subsystem's memory story end to end:
//!
//! * the generator's slab + backpressure keep live UE state bounded by
//!   `max_live`, not by the population size;
//! * the detector's eviction-on-release path keeps per-UE window state
//!   bounded by the open-connection count;
//! * peak RSS (`VmHWM`) stays under a hard ceiling that does not scale
//!   with the number of UEs streamed.
//!
//! Quick mode (`--quick` / `XSEC_BENCH_QUICK=1`) streams 100k UEs; the full
//! run streams 1M, both under a 512 MB ceiling. Results go to stdout,
//! `target/experiments/soak.txt`, and `BENCH_soak.json` (consumed by CI).

use serde_json::json;
use sixg_xsec::mobiwatch::{MobiWatch, MobiWatchConfig};
use sixg_xsec::smo::{Smo, TrainingConfig};
use std::time::Instant;
use xsec_bench::{quick_mode, save_report};
use xsec_mobiflow::{extract_from_events, extract_from_events_at};
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

fn main() {
    let obs = xsec_obs::Obs::new();
    let quick = quick_mode();
    let target: u64 = if quick { 100_000 } else { 1_000_000 };
    let ceiling_mb: u64 = 512;
    let shards = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1);

    // Train on a small benign run of the *same* streaming deployment, so
    // the detector models the distribution it will patrol.
    eprintln!("soak: training on a streaming benign sample");
    let mut trainer = StreamingScenario::new(StreamConfig {
        seed: 7,
        ..soak_config(2_000)
    });
    let mut training_events = Vec::new();
    let mut deadline = Timestamp::ZERO + Duration::from_millis(500);
    while !trainer.done() {
        training_events.extend(trainer.step(deadline));
        deadline += Duration::from_millis(500);
    }
    let models = Smo::train(
        &TrainingConfig {
            autoencoder_epochs: 10,
            lstm_epochs: 2,
            autoencoder_hidden: vec![48, 12],
            lstm_hidden: 24,
            ..TrainingConfig::default()
        },
        &extract_from_events(&training_events),
    )
    .expect("training succeeds");
    drop(training_events);

    eprintln!("soak: streaming {target} UEs ({shards} shards, quick={quick})");
    let mut engine = StreamingScenario::new(soak_config(target));
    let (mut pool, state) = MobiWatch::per_ue(models, MobiWatchConfig::default(), shards);
    // The soak has no E2 agent, so the driver is the ingest stage: it
    // begins each record's trace and logs the ingest span; the pool logs
    // inference/alert spans into the same recorder.
    pool.attach_obs(&obs);
    let ring = obs.recorder.ring();

    let start = Instant::now();
    let bucket = Duration::from_millis(500);
    let mut deadline = Timestamp::ZERO + bucket;
    let mut records_total: u64 = 0;
    let mut flagged: u64 = 0;
    let mut alerts: u64 = 0;
    let mut peak_tracked = 0usize;
    let mut last_log = Instant::now();
    while !engine.done() {
        let events = engine.step(deadline);
        deadline += bucket;
        if events.is_empty() {
            continue;
        }
        let stream = extract_from_events_at(&events, records_total);
        for chunk in stream.records.chunks(256) {
            for r in chunk {
                let trace = obs.recorder.begin_trace(r.msg_id);
                ring.record(xsec_obs::FlightEvent {
                    trace,
                    stage: xsec_obs::TraceStage::Ingest,
                    at_us: r.timestamp.as_micros(),
                    a: u64::from(r.du_ue_id),
                    b: r.msg_id,
                });
            }
            pool.process_batch(chunk);
        }
        records_total += stream.records.len() as u64;
        peak_tracked = peak_tracked.max(pool.tracked_ues());
        // Drain the shared state: a soak must not accumulate per-record
        // output, only counters.
        {
            let mut s = state.lock();
            flagged += s.scores.iter().filter(|(_, _, f)| *f).count() as u64;
            alerts += s.alerts.len() as u64;
            s.scores.clear();
            s.alerts.clear();
        }
        if last_log.elapsed().as_secs() >= 10 {
            last_log = Instant::now();
            let st = engine.stats();
            eprintln!(
                "soak: {}/{} UEs, {} records, live {}, rss {} kB",
                st.spawned,
                target,
                records_total,
                st.live,
                peak_rss_kb().unwrap_or(0)
            );
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    drop(pool);

    let rss_kb = peak_rss_kb().unwrap_or(0);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // The soak gate: the full population streamed through detection, the
    // stream drained, and nothing resident scaled with the population.
    assert!(stats.spawned >= target, "streamed {} of {target} UEs", stats.spawned);
    assert_eq!(stats.completed, stats.spawned, "stream did not drain");
    assert!(records_total > stats.spawned, "detection saw fewer records than UEs");
    let config = soak_config(target);
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
        peak_tracked <= (config.max_live + storm_burst) * 4,
        "detector tracked {peak_tracked} UEs — eviction is leaking"
    );
    if rss_kb > 0 {
        assert!(
            rss_kb < ceiling_mb * 1024,
            "peak RSS {rss_kb} kB blew the {ceiling_mb} MB soak ceiling"
        );
    }

    let incidents = obs.recorder.incidents().len();
    let report = json!({
        "quick": quick,
        "cores": cores,
        "shards": shards,
        "target_ues": target,
        "ues_streamed": stats.spawned,
        "ues_completed": stats.completed,
        "handovers": stats.handovers,
        "storms": stats.storms,
        "peak_live": stats.peak_live,
        "slab_slots": stats.slab_slots,
        "peak_tracked_ues": peak_tracked,
        "records": records_total,
        "flagged_windows": flagged,
        "alerts": alerts,
        "incidents": incidents,
        "incidents_dropped": obs.recorder.dropped_incidents(),
        "peak_rss_kb": rss_kb,
        "rss_ceiling_mb": ceiling_mb,
        "wall_secs": wall,
        "records_per_sec": records_total as f64 / wall,
    });
    std::fs::write("BENCH_soak.json", serde_json::to_string(&report).expect("serializes"))
        .expect("write BENCH_soak.json");

    let text = format!(
        "Streaming soak\n==============\n\n\
         {} UEs streamed ({} handovers, {} storms), {} records scored\n\
         peak live {} / slab {} slots / detector tracked {} UEs\n\
         {} flagged windows, {} alerts, {incidents} incident traces\n\
         peak RSS {:.1} MB (ceiling {} MB), {:.1}s wall, {:.0} records/s\n\n\
         Wrote BENCH_soak.json\n",
        stats.spawned,
        stats.handovers,
        stats.storms,
        records_total,
        stats.peak_live,
        stats.slab_slots,
        peak_tracked,
        flagged,
        alerts,
        rss_kb as f64 / 1024.0,
        ceiling_mb,
        wall,
        records_total as f64 / wall,
    );
    print!("{text}");
    save_report("soak", &text);
    xsec_bench::save_incidents(&obs.recorder, "soak_incidents");
}
