//! One workload, one process: set up, drive, measure, check.
//!
//! The parent (`suite`) runs this in a fresh child process per pass so
//! `VmHWM` and set-up are per workload, and so a hang can be killed.

use crate::calib::Calibrator;
use crate::drive::{drive, peak_rss_bytes, replay_bucket, DriveOutcome, HostCare, Span};
use crate::pagepool::PagePool;
use crate::probes;
use crate::report::{metrics_json, value_of, Metrics, END_TO_END, PER_LAYER};
use crate::stack::{inproc_links, tcp_links, Stack, TELEMETRY_SUBSCRIPTIONS};
use crate::stats::{
    closure_frac, highest_supported_percentile, median, median_segment_rate, percentile, sorted,
};
use crate::workloads::{report_period, Link, Pacing, Workload};
use serde_json::{json, Value};
use sixg_xsec::mobiwatch::MobiWatchConfig;
use sixg_xsec::{MobiWatch, Pipeline, ScaleDeployment};
use std::fmt::Write as _;
use std::time::Instant;
use xsec_e2::E2Transport;
use xsec_mobiflow::{extract_from_events, TelemetryStream};
use xsec_ran::StreamingScenario;
use xsec_types::{Duration, Timestamp};

/// Seed of the training sample and of model initialisation. Fixed: the
/// detector is part of the deployment, not of the input, so every `--seed`
/// patrols its own traffic with the same models and set-up does the same
/// work on every run.
const TRAINING_SEED: u64 = 0x7EA1_5EED;

/// Segments the timed section is cut into for `records_per_s`.
const RATE_SEGMENTS: usize = 32;

/// Benign UEs in the input the wiring check replays through both wirings.
const WIRING_CHECK_UES: u64 = 6_000;

/// Score drift tolerated between the stack and the detector alone.
const SCORE_TOLERANCE: f32 = 1e-4;

/// What the parent asked this child to do.
#[derive(Debug, Clone, Copy)]
pub struct ChildSpec {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Requested run length; scales the UE count.
    pub seconds: u64,
    /// Extra input scale (`--quick` uses 1/20).
    pub scale: f64,
    /// Traced pass (per-layer metrics) or untraced (end-to-end).
    pub traced: bool,
    /// Set-ups to time; `setup_s` is their median.
    pub setups: usize,
}

/// One output check.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// FNV-1a over everything written to it: a digest of a digest, so two
/// processes can compare a 24 MB detection listing by one number.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Drains a benign run of the workload's own deployment into the training
/// sample, so the detector models the distribution it will patrol.
fn training_stream(workload: &Workload, scale: f64) -> TelemetryStream {
    // A reduced (`--quick`) run trains on a quarter of the sample so the
    // whole suite stays within seconds.
    let ues = if scale < 1.0 { workload.training_ues / 4 } else { workload.training_ues };
    let mut trainer = StreamingScenario::new(workload.stream_config(TRAINING_SEED, ues));
    let mut events = Vec::new();
    let step = Duration::from_millis(500);
    let mut deadline = Timestamp::ZERO + step;
    while !trainer.done() {
        events.extend(trainer.step(deadline));
        deadline += step;
    }
    extract_from_events(&events)
}

/// Runs the child and returns its result document.
pub fn run(spec: ChildSpec) -> Value {
    match spec.workload.link {
        Link::InProc => measure(spec, inproc_links),
        Link::Tcp => measure(spec, tcp_links),
    }
}

fn measure<T: E2Transport + 'static>(spec: ChildSpec, links: fn(usize) -> Vec<(T, T)>) -> Value {
    let w = spec.workload;
    // --- set-up: training sample, train, deploy, E2 handshake --------------
    let repeats = spec.setups.max(1);
    let mut setup_s = Vec::with_capacity(repeats);
    let mut deployed = None;
    for _ in 0..repeats {
        drop(deployed.take());
        let start = Instant::now();
        let pipeline =
            Pipeline::train_on(&w.pipeline_config(TRAINING_SEED), &training_stream(w, spec.scale));
        let stack = Stack::deploy(&pipeline, links(w.cells), w.quarantine_ttl, spec.traced);
        setup_s.push(start.elapsed().as_secs_f64());
        deployed = Some((pipeline, stack));
    }
    let (pipeline, mut stack) = deployed.expect("at least one set-up");

    // --- the timed section ---------------------------------------------------
    let total_ues = w.total_ues(spec.seconds, spec.scale);
    let (mut engine, attack_conns) = w.engine(spec.seed, total_ues);
    let mut calib = Calibrator::new();
    let mut pool = PagePool::start();
    let care = HostCare { calib: &mut calib, pool: pool.as_mut() };
    let out = drive(w, &mut engine, &mut stack, total_ues, spec.traced, Some(care));
    let peak_rss = peak_rss_bytes();
    let (pool_warm_ups, pool_wait_s) =
        pool.as_ref().map_or((0, 0.0), |p| (p.warm_ups(), p.seconds()));
    drop(pool);

    // --- digests, counts, checks ---------------------------------------------
    let mut detections = Fnv::new();
    let windows = stack.write_detections(&mut detections);
    let mut incidents = Fnv::new();
    let _ = incidents.write_str(&stack.incidents_digest());

    let service = sorted(out.buckets.iter().map(|b| b.service_us).collect());
    let mut layers = counts(spec, &stack, &mut engine, &out, &service, attack_conns, peak_rss);
    let mut checks = basic_checks(spec, &stack, &out, &layers);
    if w.replays_from_seed() {
        let (check, compared) = reference_detection(spec, &pipeline, &stack, out.buckets.len());
        layers.push(("check.reference_windows_compared", compared as f64));
        checks.push(check);
        let (check, compared) = wiring_matches_product(spec, &pipeline);
        layers.push(("check.wiring_windows_compared", compared as f64));
        checks.push(check);
    } else {
        layers.push(("check.reference_windows_compared", 0.0));
        layers.push(("check.wiring_windows_compared", 0.0));
    }

    // --- end-to-end metrics ----------------------------------------------------
    // Time metrics are wall clock divided by the host's measured slowdown
    // (see `calib`); the wall-clock values themselves are `drive.raw_*`.
    let slowdown = calib.host_slowdown();
    let per_bucket: Vec<(u64, f64)> = out.buckets.iter().map(|b| (b.records, b.wall_s)).collect();
    let raw_rate = median_segment_rate(&per_bucket, RATE_SEGMENTS);
    // An open loop's rate is set by the schedule, not by the host's speed.
    let rate = match w.pacing {
        Pacing::Closed => raw_rate * slowdown,
        Pacing::Open { .. } => raw_rate,
    };
    let (raw_p50, raw_p90) = (percentile(&service, 0.5), percentile(&service, 0.9));
    let mid_records = out.records.saturating_sub(out.rss_mid.1).max(1);
    let end_to_end: Metrics = vec![
        ("setup_s", median(&setup_s)),
        ("records_per_s", rate),
        ("bucket_p50_us", raw_p50 / slowdown),
        ("bucket_p90_us", raw_p90 / slowdown),
        ("peak_rss_mb", peak_rss as f64 / 1e6),
        (
            "rss_bytes_per_record",
            out.rss_end.saturating_sub(out.rss_mid.0) as f64 / mid_records as f64,
        ),
    ];
    // The percentile rule: the highest percentile with ten samples beyond it.
    let tail = highest_supported_percentile(service.len()).unwrap_or(0.5).min(0.99);
    layers.extend([
        ("drive.host_slowdown", slowdown),
        ("drive.calib_kernel_slowdown", calib.kernel_slowdown()),
        ("drive.calib_slices", calib.slices() as f64),
        ("drive.pool_warm_ups", pool_warm_ups as f64),
        ("drive.pool_wait_s", pool_wait_s),
        ("drive.raw_records_per_s", raw_rate),
        ("drive.raw_bucket_p50_us", raw_p50),
        ("drive.raw_bucket_p90_us", raw_p90),
        ("drive.bucket_p95_us", percentile(&service, 0.95)),
        ("drive.tail_percentile", tail),
        ("drive.bucket_tail_us", percentile(&service, tail)),
    ]);

    // --- per-layer: spans and probes (traced pass only) ----------------------
    if spec.traced {
        layers.extend(span_metrics(&stack, &out));
        let closure = value_of(&layers, "drive.closure_frac").unwrap_or(0.0);
        checks.push(Check {
            name: "span_closure",
            ok: closure >= 0.9,
            detail: format!("top-level spans cover {:.1}% of the traced wall", closure * 100.0),
        });
        let sample = probe_sample(spec);
        let per_indication = out.records as f64 / (out.buckets.len() * w.cells).max(1) as f64;
        layers.extend(probes::run(&pipeline, &sample, per_indication));
    }

    let failed_checks = checks.iter().filter(|c| !c.ok).count();
    layers.push(("check.failed", failed_checks as f64));
    let attempted = out.records * TELEMETRY_SUBSCRIPTIONS as u64 + out.pump.controls_sent;
    let failed = failed_ops(&stack, &out);
    layers.push(("drive.failed_ratio", failed as f64 / attempted.max(1) as f64));

    let mut doc = json!({
        "workload": w.name,
        "host_slowdown": slowdown,
        "kernel_slowdown": calib.kernel_slowdown(),
        "seed": spec.seed,
        "seconds": spec.seconds,
        "scale": spec.scale,
        "traced": spec.traced,
        "total_ues": total_ues,
        "records": out.records,
        "buckets": out.buckets.len(),
        "wall_s": out.wall_s,
        "stopped_on": if out.hit_hard_stop { "virtual_hard_stop" } else { "ue_count" },
        "attempted": attempted.max(1),
        "failed": failed,
        "correct": failed_checks == 0 && failed == 0,
        "detections_digest": format!("{:016x}", detections.0),
        "detection_windows": windows,
        "incidents_digest": format!("{:016x}", incidents.0),
        "end_to_end": metrics_json(&END_TO_END, &end_to_end),
        "checks": checks.iter().map(|c| json!({ "name": c.name, "ok": c.ok, "detail": c.detail.clone() })).collect::<Vec<Value>>(),
    });
    if spec.traced {
        // The parent fills this in once it has both passes of the seed.
        layers.push(("trace_overhead_frac", 0.0));
        if let Value::Object(entries) = &mut doc {
            entries.push(("per_layer".to_string(), metrics_json(&PER_LAYER, &layers)));
        }
    }
    doc
}

/// Operations that did not complete: deliveries missing, controls unacked,
/// frames dropped on either egress, `poll`/`pump` errors.
fn failed_ops<T: E2Transport>(stack: &Stack<T>, out: &DriveOutcome) -> u64 {
    let expected = out.records * TELEMETRY_SUBSCRIPTIONS as u64;
    let undelivered = expected.abs_diff(out.pump.records_delivered);
    let unacked = out.pump.controls_sent.saturating_sub(stack.platform.controls_acked());
    let agent_drops: u64 = stack.agents.iter().map(|a| a.egress_dropped()).sum();
    undelivered
        + unacked
        + stack.platform.controls_failed()
        + stack.platform.egress_dropped()
        + agent_drops
        + out.errors
        + out.controls_undecodable
}

fn basic_checks<T: E2Transport>(
    spec: ChildSpec,
    stack: &Stack<T>,
    out: &DriveOutcome,
    layers: &Metrics,
) -> Vec<Check> {
    let w = spec.workload;
    let get = |name: &str| value_of(layers, name).unwrap_or(0.0);
    let mut checks = vec![
        Check {
            name: "stopped_on_ue_count",
            ok: !out.hit_hard_stop,
            detail: format!(
                "virtual time reached {:.1} s",
                out.virtual_end.as_micros() as f64 / 1e6
            ),
        },
        Check {
            name: "no_poll_or_pump_error",
            ok: out.errors == 0,
            detail: format!("{} errors", out.errors),
        },
        Check {
            name: "every_record_delivered_once_per_subscription",
            ok: out.pump.records_delivered == out.records * TELEMETRY_SUBSCRIPTIONS as u64
                && get("e2.records_pushed") as u64 == out.records,
            detail: format!("{} pushed, {} delivered", out.records, out.pump.records_delivered),
        },
        Check {
            name: "every_control_acked",
            ok: stack.platform.controls_acked() == out.pump.controls_sent
                && stack.platform.controls_failed() == 0
                && get("mitigator.actions_issued") == get("mitigator.actions_acked"),
            detail: format!(
                "{} sent, {} acked; mitigator issued {} acked {}",
                out.pump.controls_sent,
                stack.platform.controls_acked(),
                get("mitigator.actions_issued"),
                get("mitigator.actions_acked")
            ),
        },
        Check {
            name: "no_egress_drop",
            ok: get("e2.egress_dropped") == 0.0 && get("ric.egress_dropped") == 0.0,
            detail: format!(
                "agent {} / RIC {}",
                get("e2.egress_dropped"),
                get("ric.egress_dropped")
            ),
        },
    ];
    if w.flood.is_some() {
        let wanted = (10.0 * spec.seconds as f64 * spec.scale).floor();
        checks.push(Check {
            name: "flood_yields_incident_buckets",
            ok: get("drive.incident_buckets") >= wanted.max(1.0),
            detail: format!("{} incident buckets, {wanted} wanted", get("drive.incident_buckets")),
        });
    }
    if let Pacing::Open { .. } = w.pacing {
        checks.push(Check {
            name: "no_backlog_at_end",
            ok: out.backlog_end <= 1,
            detail: format!(
                "{} buckets due but not started at the end (max {})",
                out.backlog_end, out.backlog_max
            ),
        });
        checks.push(Check {
            name: "kept_up_with_offered_load",
            ok: get("drive.achieved_over_offered") >= 0.99,
            detail: format!("achieved / offered = {:.4}", get("drive.achieved_over_offered")),
        });
    }
    checks
}

/// Counts and ratios from public accessors and registry counters.
fn counts<T: E2Transport>(
    spec: ChildSpec,
    stack: &Stack<T>,
    engine: &mut StreamingScenario,
    out: &DriveOutcome,
    service: &[f64],
    attack_conns: u64,
    peak_rss: u64,
) -> Metrics {
    let w = spec.workload;
    let snap = stack.obs.snapshot();
    let buckets = out.buckets.len().max(1);
    let incident =
        sorted(out.buckets.iter().filter(|b| b.incident).map(|b| b.service_us).collect());
    let start_late = sorted(out.buckets.iter().map(|b| b.start_late_us).collect());
    let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
    let late = out.buckets.iter().filter(|b| b.late).count();
    let achieved_over_offered = match w.pacing {
        Pacing::Closed => 1.0,
        Pacing::Open { .. } => {
            out.records as f64 / out.wall_s / out.offered_records_per_s.max(1e-9)
        }
    };

    let (scored, flagged, alerts) = {
        let state = stack.watch.lock();
        (state.scores.len(), state.scores.iter().filter(|s| s.2).count(), state.alerts.len())
    };
    let mitigation = stack.mitigator.lock().summary();
    let stats = engine.stats();
    let mut gnb_dropped = 0u64;
    let mut gnb_rejected = 0u64;
    for cell in 0..w.cells {
        let g = engine.gnb_stats(cell);
        gnb_dropped += g.mitigation_dropped + g.blacklist_dropped;
        gnb_rejected += g.rejected;
    }
    let attack_blocked = attack_conns.saturating_sub(out.attack_setups_seen);
    // Every action on a workload without attackers is a false positive.
    let on_benign = if w.flood.is_some() { 0 } else { mitigation.issued };

    vec![
        ("drive.buckets", out.buckets.len() as f64),
        ("drive.agent_rounds", (out.buckets.len() * w.cells) as f64),
        ("drive.records_per_indication", out.records as f64 / (buckets * w.cells) as f64),
        ("drive.bucket_max_us", service.last().copied().unwrap_or(0.0)),
        ("drive.incident_buckets", incident.len() as f64),
        ("drive.incident_p50_us", pct(&incident, 0.5)),
        ("drive.incident_p90_us", pct(&incident, 0.9)),
        ("drive.late_ratio", late as f64 / buckets as f64),
        ("drive.start_late_p99_us", pct(&start_late, 0.99)),
        ("drive.backlog_max_buckets", out.backlog_max as f64),
        ("drive.achieved_over_offered", achieved_over_offered),
        ("drive.virtual_s", out.virtual_end.as_micros() as f64 / 1e6),
        ("e2.records_pushed", snap.counter_total("xsec_e2_records_pushed_total") as f64),
        ("e2.indications_sent", snap.counter_total("xsec_e2_indications_sent_total") as f64),
        ("e2.egress_dropped", stack.agents.iter().map(|a| a.egress_dropped()).sum::<u64>() as f64),
        ("ric.pdus", out.pump.pdus as f64),
        ("ric.records_delivered", out.pump.records_delivered as f64),
        (
            "ric.delivery_amplification",
            out.pump.records_delivered as f64 / out.records.max(1) as f64,
        ),
        ("ric.conns_scanned_per_pump", out.pump.conns_scanned as f64 / out.pumps.max(1) as f64),
        ("ric.controls_sent", out.pump.controls_sent as f64),
        ("ric.controls_acked", stack.platform.controls_acked() as f64),
        ("ric.controls_broadcast", stack.platform.controls_broadcast() as f64),
        ("ric.controls_unroutable", stack.platform.controls_unroutable() as f64),
        ("ric.egress_dropped", stack.platform.egress_dropped() as f64),
        ("ric.router_unrouted", snap.counter_total("xsec_router_unrouted_total") as f64),
        ("ric.authz_denied", snap.counter_total("xsec_authz_denied_total") as f64),
        ("mobiflow.sdl.entries", stack.platform.sdl().len("mobiflow") as f64),
        ("mobiwatch.windows_scored", scored as f64),
        ("mobiwatch.flagged", flagged as f64),
        ("mobiwatch.alerts", alerts as f64),
        ("analyzer.findings", stack.analyzer.lock().findings.len() as f64),
        ("mitigator.actions_issued", mitigation.issued as f64),
        ("mitigator.actions_acked", mitigation.acked as f64),
        ("mitigator.supervised", mitigation.supervised as f64),
        ("mitigator.actions_on_benign", on_benign as f64),
        ("ran.ues_spawned", stats.spawned as f64),
        ("ran.ues_stuck_live", stats.live as f64),
        ("ran.attack_conns_planned", attack_conns as f64),
        ("ran.attack_conns_blocked", attack_blocked as f64),
        (
            "ran.benign_conns_rejected",
            (gnb_dropped + gnb_rejected).saturating_sub(attack_blocked) as f64,
        ),
        ("obs.incidents", stack.obs.recorder.incidents().len() as f64),
        ("obs.incidents_dropped", stack.obs.recorder.dropped_incidents() as f64),
        ("mem.rss_mid_mb", out.rss_mid.0 as f64 / 1e6),
        ("mem.rss_end_mb", out.rss_end as f64 / 1e6),
        ("mem.peak_rss_mb", peak_rss as f64 / 1e6),
    ]
}

/// Span sums, handler clocks, and the closure of the two.
fn span_metrics<T: E2Transport>(stack: &Stack<T>, out: &DriveOutcome) -> Metrics {
    let s = |span| out.spans.seconds(span);
    let clocks = stack.clocks.clone().unwrap_or_default();
    let pumps = s(Span::PumpIngest) + s(Span::PumpRelay) + s(Span::PumpAck);
    let handlers =
        clocks.mobiwatch.total_s() + clocks.analyzer.total_s() + clocks.mitigator.total_s();
    let pump_self = (pumps - handlers).max(0.0);
    let spans_total = out.spans.total_seconds();
    let rounds = (out.buckets.len() * stack.agents.len()).max(1) as f64;
    vec![
        ("ran.step.busy_s", s(Span::RanStep)),
        ("ran.apply_control.busy_s", s(Span::ApplyControl)),
        ("mobiflow.extract.busy_s", s(Span::Extract)),
        ("e2.agent_push.busy_s", s(Span::AgentPush)),
        ("e2.agent_report.busy_s", s(Span::AgentReport)),
        ("e2.agent_control.busy_s", s(Span::AgentControl)),
        ("ric.pump_ingest.busy_s", s(Span::PumpIngest)),
        ("ric.pump_relay.busy_s", s(Span::PumpRelay)),
        ("ric.pump_ack.busy_s", s(Span::PumpAck)),
        ("ric.pump_self.busy_s", pump_self),
        ("mobiwatch.handler.busy_s", clocks.mobiwatch.total_s()),
        ("analyzer.handler.busy_s", clocks.analyzer.total_s()),
        ("mitigator.handler.busy_s", clocks.mitigator.total_s()),
        ("mitigator.clock_tick.busy_s", clocks.mitigator.records_s()),
        ("drive.pace_wait_s", s(Span::PaceWait)),
        ("drive.other_s", (out.wall_s - spans_total).max(0.0)),
        ("drive.traced_wall_s", out.wall_s),
        ("drive.closure_frac", closure_frac(spans_total, out.wall_s)),
        (
            "drive.us_per_agent_round",
            (s(Span::AgentReport) + s(Span::AgentControl) + pump_self) * 1e6 / rounds,
        ),
    ]
}

/// The first [`probes::SAMPLE_RECORDS`] records of the workload's stream.
fn probe_sample(spec: ChildSpec) -> TelemetryStream {
    let w = spec.workload;
    let total_ues = w.total_ues(spec.seconds, spec.scale);
    let (mut engine, _) = w.engine(spec.seed, total_ues);
    let mut bucket_end = Timestamp::ZERO + report_period();
    let mut cursor = 0u64;
    let mut sample = TelemetryStream::default();
    while sample.len() < probes::SAMPLE_RECORDS
        && engine.stats().spawned < total_ues
        && bucket_end <= w.hard_stop(total_ues)
    {
        let chunk = replay_bucket(&mut engine, bucket_end, &mut cursor);
        sample.records.extend(chunk.records);
        sample.labels.extend(chunk.labels);
        bucket_end += report_period();
    }
    sample.records.truncate(probes::SAMPLE_RECORDS);
    sample.labels.truncate(probes::SAMPLE_RECORDS);
    sample
}

/// Replayable workloads only (`steady`): regenerates the delivered record
/// sequence from the seed, feeds it straight into
/// `MobiWatch::process_record`, and compares every window with what the
/// whole stack recorded.
fn reference_detection<T: E2Transport>(
    spec: ChildSpec,
    pipeline: &Pipeline,
    stack: &Stack<T>,
    buckets: usize,
) -> (Check, usize) {
    let w = spec.workload;
    let config = pipeline.config();
    let (mut watch, reference) = MobiWatch::new(
        pipeline.models().clone(),
        MobiWatchConfig {
            detector: config.detector,
            precision: config.precision,
            ..MobiWatchConfig::default()
        },
    );
    let (mut engine, _) = w.engine(spec.seed, w.total_ues(spec.seconds, spec.scale));
    let mut bucket_end = Timestamp::ZERO + report_period();
    let mut cursor = 0u64;
    let mut compared = 0usize;
    let mut mismatch = None;
    let stacked = stack.watch.lock();
    for _ in 0..buckets {
        let mut chunk = replay_bucket(&mut engine, bucket_end, &mut cursor);
        chunk.records.sort_by_key(|r| r.cell.0);
        for record in &chunk.records {
            watch.process_record(record);
        }
        // Compare and drain per bucket so the reference never holds more
        // than one bucket of scores.
        let mut state = reference.lock();
        for (index, score, flagged) in state.scores.drain(..) {
            match stacked.scores.get(compared) {
                Some((i, s, f))
                    if *i == index && *f == flagged && (s - score).abs() <= SCORE_TOLERANCE => {}
                other if mismatch.is_none() => {
                    mismatch = Some(format!(
                        "window {compared}: reference ({index}, {score}, {flagged}) vs stack {other:?}"
                    ));
                }
                _ => {}
            }
            compared += 1;
        }
        state.alerts.clear();
        bucket_end += report_period();
    }
    if mismatch.is_none() && compared != stacked.scores.len() {
        mismatch =
            Some(format!("reference scored {compared} windows, stack {}", stacked.scores.len()));
    }
    let ok = mismatch.is_none();
    let detail = mismatch.unwrap_or_else(|| {
        format!("{compared} windows equal (flags exact, scores within {SCORE_TOLERANCE})")
    });
    (Check { name: "detections_equal_detector_alone", ok, detail }, compared)
}

/// Replayable workloads only (`steady`): the same small input through this
/// benchmark's wiring and through `ScaleDeployment` must give byte-identical
/// detection and incident digests — the benchmark measures the product's
/// deployment, not a look-alike.
fn wiring_matches_product(spec: ChildSpec, pipeline: &Pipeline) -> (Check, usize) {
    let w = spec.workload;
    let ues = WIRING_CHECK_UES.min(w.total_ues(spec.seconds, spec.scale));

    let (mut engine, _) = w.engine(spec.seed, ues);
    let mut ours = Stack::deploy(pipeline, inproc_links(w.cells), w.quarantine_ttl, false);
    let out = drive(w, &mut engine, &mut ours, ues, false, None);

    let (mut engine, _) = w.engine(spec.seed, ues);
    let mut product = ScaleDeployment::new(pipeline, w.cells);
    engine.attach_recorder(&product.obs().recorder);
    let mut bucket_end = Timestamp::ZERO + product.period();
    let mut cursor = 0u64;
    for _ in 0..out.buckets.len() {
        for record in replay_bucket(&mut engine, bucket_end, &mut cursor).records {
            product.push_record(record);
        }
        product.step(bucket_end);
        bucket_end += product.period();
    }

    let windows = ours.watch.lock().scores.len();
    let same_detections = ours.detections_digest() == product.detections_digest();
    let same_incidents = ours.incidents_digest() == product.incidents_digest();
    let check = Check {
        name: "wiring_matches_scale_deployment",
        ok: same_detections && same_incidents && windows > 0,
        detail: format!(
            "{windows} windows, {} incident traces over {} buckets: detections {}, incidents {}",
            ours.obs.recorder.incidents().len(),
            out.buckets.len(),
            if same_detections { "identical" } else { "DIFFER" },
            if same_incidents { "identical" } else { "DIFFER" },
        ),
    };
    (check, windows)
}
