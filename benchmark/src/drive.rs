//! The drive loop: one report bucket at a time through the whole stack.
//!
//! Per bucket, in the order `ScaleDeployment::step` uses:
//!
//! ```text
//! engine.step -> extract -> push_record* -> poll* -> pump -> pump -> poll*
//!   -> (apply_control*) -> pump
//! ```
//!
//! The traced run wraps each of those calls in a [`Span`]; the untraced run
//! reads the clock twice per bucket (service time) and nothing else.

use crate::calib::Calibrator;
use crate::pagepool::PagePool;
use crate::stack::Stack;
use crate::stats::backlog_after;
use crate::workloads::{report_period, Pacing, Workload, GRACE_BUCKETS, REPORT_PERIOD_MS};
use std::time::{Duration as Wall, Instant};
use xsec_control::ControlAction;
use xsec_e2::E2Transport;
use xsec_mobiflow::{extract_from_events_at, TelemetryStream};
use xsec_proto::MessageKind;
use xsec_ran::StreamingScenario;
use xsec_ric::PumpStats;
use xsec_types::Timestamp;

/// The driver's top-level spans. Each is one public call (or one loop of
/// the same call) into a layer; names are the crates'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `StreamingScenario::step`.
    RanStep,
    /// `extract_from_events_at`.
    Extract,
    /// `RicAgent::push_record`, once per record.
    AgentPush,
    /// First `RicAgent::poll` of the bucket: KPM + E2AP encode, frame, send.
    AgentReport,
    /// First `RicPlatform::pump`: receive, decode, SDL, telemetry handlers.
    PumpIngest,
    /// Second pump: alert -> analyzer -> mitigator relays, control ship.
    PumpRelay,
    /// Second `RicAgent::poll`: control receive + ack, and payload decode.
    AgentControl,
    /// `StreamingScenario::apply_control`.
    ApplyControl,
    /// Third pump: ack relay.
    PumpAck,
    /// Open loop only: spinning until the bucket is due.
    PaceWait,
}

/// Number of [`Span`] variants.
const SPAN_COUNT: usize = Span::PaceWait as usize + 1;

/// Busy-time sums per span. Disabled, every method is a branch and no
/// clock read.
#[derive(Debug, Clone)]
pub struct Spans {
    on: bool,
    ns: [u64; SPAN_COUNT],
}

impl Spans {
    fn new(on: bool) -> Self {
        Spans { on, ns: [0; SPAN_COUNT] }
    }

    /// Opens a chain of adjacent spans.
    fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes `span` at the current instant, which also opens the next one.
    fn lap(&mut self, span: Span, since: &mut Option<Instant>) {
        if let Some(t0) = since {
            let now = Instant::now();
            self.ns[span as usize] += now.duration_since(*t0).as_nanos() as u64;
            *t0 = now;
        }
    }

    /// Seconds accumulated in `span`.
    pub fn seconds(&self, span: Span) -> f64 {
        self.ns[span as usize] as f64 / 1e9
    }

    /// Seconds accumulated across every span.
    pub fn total_seconds(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// One bucket's timing.
#[derive(Debug, Clone, Copy)]
pub struct BucketTime {
    /// Records the bucket carried.
    pub records: u64,
    /// Wall time from the previous bucket's completion to this one's:
    /// generation, any pacing wait, and service.
    pub wall_s: f64,
    /// Closed loop: first `push_record` to the last pump's return. Open
    /// loop: due time to the last pump's return.
    pub service_us: f64,
    /// Open loop: how long after its due time the bucket started.
    pub start_late_us: f64,
    /// At least one Control Request reached an agent in this bucket.
    pub incident: bool,
    /// Open loop: the bucket completed after the next one was due.
    pub late: bool,
}

/// Everything the timed section produced.
#[derive(Debug)]
pub struct DriveOutcome {
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// Records pushed into agents.
    pub records: u64,
    /// Per-bucket timings, in order.
    pub buckets: Vec<BucketTime>,
    /// Sum of every pump's [`PumpStats`].
    pub pump: PumpStats,
    /// `pump` calls made.
    pub pumps: u64,
    /// `poll` + `pump` calls that returned `Err`.
    pub errors: u64,
    /// Control Requests decoded off the agents' inboxes.
    pub controls_received: u64,
    /// Control payloads that failed to decode.
    pub controls_undecodable: u64,
    /// Attack-labelled `RRCSetupRequest`s that reached telemetry.
    pub attack_setups_seen: u64,
    /// Resident set (bytes) and records pushed when a quarter of the UEs
    /// had spawned.
    pub rss_mid: (u64, u64),
    /// Resident set (bytes) after the last bucket.
    pub rss_end: u64,
    /// Open loop: most buckets ever due but not yet started.
    pub backlog_max: u64,
    /// Open loop: buckets due but not started when the last one finished.
    pub backlog_end: u64,
    /// Open loop: records offered per wall second by the schedule.
    pub offered_records_per_s: f64,
    /// Virtual time the run reached.
    pub virtual_end: Timestamp,
    /// The run ended on the virtual-time hard stop, not on the UE count.
    pub hit_hard_stop: bool,
    /// Per-span busy time (all zero when untraced).
    pub spans: Spans,
}

/// Current resident set size in bytes (`VmRSS`), 0 if unreadable.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:") * 1024
}

/// Peak resident set size in bytes (`VmHWM`), 0 if unreadable.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:") * 1024
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// One bucket of telemetry outside the timed loop: steps `engine` to
/// `bucket_end`, extracts the records with ids continuing from `cursor`, and
/// advances `cursor`. The output checks and the probe sample replay a
/// workload's stream with this.
pub fn replay_bucket(
    engine: &mut StreamingScenario,
    bucket_end: Timestamp,
    cursor: &mut u64,
) -> TelemetryStream {
    let chunk = extract_from_events_at(&engine.step(bucket_end), *cursor);
    *cursor += chunk.records.len() as u64;
    chunk
}

fn add(total: &mut PumpStats, one: PumpStats) {
    total.pdus += one.pdus;
    total.records_delivered += one.records_delivered;
    total.messages_delivered += one.messages_delivered;
    total.controls_sent += one.controls_sent;
    total.conns_scanned += one.conns_scanned;
}

/// Service time between two slices of the calibration kernel (a slice is
/// ~20 us: under 2 % of the run, and thousands of slices in ten seconds).
const SLICE_EVERY_US: f64 = 1_500.0;

/// What a measured run does about the host between buckets, outside every
/// timing: slices of the calibration kernel, and the pool of backed pages.
pub struct HostCare<'a> {
    /// Measures how disturbed the host was.
    pub calib: &'a mut Calibrator,
    /// Keeps fresh pages cheap; `None` if the helper could not start.
    pub pool: Option<&'a mut PagePool>,
}

/// Drives `engine` through `stack` until `total_ues` have spawned plus the
/// grace buckets, or the virtual-time hard stop.
pub fn drive<T: E2Transport + 'static>(
    workload: &Workload,
    engine: &mut StreamingScenario,
    stack: &mut Stack<T>,
    total_ues: u64,
    traced: bool,
    mut care: Option<HostCare<'_>>,
) -> DriveOutcome {
    // Enforcement spans must land in the deployment's incident traces.
    engine.attach_recorder(&stack.obs.recorder);
    let period = report_period();
    let hard_stop = workload.hard_stop(total_ues);
    let interval = match workload.pacing {
        Pacing::Closed => None,
        Pacing::Open { k } => Some(Wall::from_secs_f64(REPORT_PERIOD_MS as f64 / 1e3 / k)),
    };
    let agents = stack.agents.len();

    let mut out = DriveOutcome {
        wall_s: 0.0,
        records: 0,
        buckets: Vec::new(),
        pump: PumpStats::default(),
        pumps: 0,
        errors: 0,
        controls_received: 0,
        controls_undecodable: 0,
        attack_setups_seen: 0,
        rss_mid: (0, 0),
        rss_end: 0,
        backlog_max: 0,
        backlog_end: 0,
        offered_records_per_s: 0.0,
        virtual_end: Timestamp::ZERO,
        hit_hard_stop: false,
        spans: Spans::new(traced),
    };

    let mut bucket_end = Timestamp::ZERO + period;
    let mut cursor = 0u64;
    let mut grace = 0u64;
    let mut index = 0u64;
    let mut actions: Vec<ControlAction> = Vec::new();
    let t0 = Instant::now();
    let mut previous = t0;
    let mut since_slice_us = 0.0f64;
    let mut cared = Wall::ZERO;
    while grace < GRACE_BUCKETS {
        if bucket_end > hard_stop {
            out.hit_hard_stop = true;
            break;
        }
        // --- generate: the RAN and the agent's extraction hook -----------
        let mut lap = out.spans.start();
        let events = engine.step(bucket_end);
        out.spans.lap(Span::RanStep, &mut lap);
        let mut chunk = extract_from_events_at(&events, cursor);
        out.spans.lap(Span::Extract, &mut lap);
        cursor += chunk.records.len() as u64;
        if workload.flood.is_some() {
            out.attack_setups_seen += chunk
                .iter()
                .filter(|(r, l)| l.is_attack() && r.msg == MessageKind::RrcSetupRequest)
                .count() as u64;
        }
        // Cell-major order (stable per cell), as `ScaleDeployment` flushes:
        // delivered order is then independent of the agent count.
        chunk.records.sort_by_key(|r| r.cell.0);

        // --- open loop: wait for the bucket's due time -------------------
        let mut due = None;
        if let Some(interval) = interval {
            let due_at = t0 + interval.mul_f64((index + 1) as f64);
            let mut lap = out.spans.start();
            while Instant::now() < due_at {
                std::hint::spin_loop();
            }
            out.spans.lap(Span::PaceWait, &mut lap);
            due = Some(due_at);
        }

        // --- serve: telemetry in, controls out, acks back ----------------
        let started = Instant::now();
        let mut lap = out.spans.on.then_some(started);
        let bucket_records = chunk.records.len() as u64;
        out.records += bucket_records;
        for record in chunk.records {
            let agent = (record.cell.0.saturating_sub(1) as usize) % agents;
            stack.agents[agent].push_record(record);
        }
        out.spans.lap(Span::AgentPush, &mut lap);
        for agent in &mut stack.agents {
            out.errors += u64::from(agent.poll(bucket_end).is_err());
        }
        out.spans.lap(Span::AgentReport, &mut lap);
        for span in [Span::PumpIngest, Span::PumpRelay] {
            match stack.platform.pump() {
                Ok(stats) => add(&mut out.pump, stats),
                Err(_) => out.errors += 1,
            }
            out.pumps += 1;
            out.spans.lap(span, &mut lap);
        }
        for agent in &mut stack.agents {
            out.errors += u64::from(agent.poll(bucket_end).is_err());
            for payload in agent.take_control_requests() {
                match ControlAction::decode(&payload) {
                    Ok(action) => actions.push(action),
                    Err(_) => out.controls_undecodable += 1,
                }
            }
        }
        out.spans.lap(Span::AgentControl, &mut lap);
        let incident = !actions.is_empty();
        out.controls_received += actions.len() as u64;
        if workload.enforce {
            for action in &actions {
                engine.apply_control(bucket_end, action);
            }
            out.spans.lap(Span::ApplyControl, &mut lap);
        }
        actions.clear();
        match stack.platform.pump() {
            Ok(stats) => add(&mut out.pump, stats),
            Err(_) => out.errors += 1,
        }
        out.pumps += 1;
        out.spans.lap(Span::PumpAck, &mut lap);
        let finished = Instant::now();

        // --- account ------------------------------------------------------
        let mut time = BucketTime {
            records: bucket_records,
            wall_s: finished.duration_since(previous).as_secs_f64(),
            service_us: finished.duration_since(due.unwrap_or(started)).as_secs_f64() * 1e6,
            start_late_us: 0.0,
            incident,
            late: false,
        };
        if let (Some(due), Some(interval)) = (due, interval) {
            time.start_late_us = started.duration_since(due).as_secs_f64() * 1e6;
            time.late = finished > due + interval;
            out.backlog_end = backlog_after(index, finished.duration_since(t0), interval);
            out.backlog_max = out.backlog_max.max(out.backlog_end);
        }
        out.buckets.push(time);
        previous = finished;
        // --- host care: top up the page pool, and a slice of the fixed kernel
        // per few ms served -------------------------------------------------
        if let Some(care) = care.as_mut() {
            let begun = Instant::now();
            if let Some(pool) = care.pool.as_deref_mut() {
                pool.top_up();
            }
            since_slice_us += time.service_us;
            if since_slice_us >= SLICE_EVERY_US {
                since_slice_us = 0.0;
                care.calib.slice();
            }
            // Closed loop: host care is taken out of the clock. Open loop:
            // it ran in the idle time before the next due time.
            if interval.is_none() {
                previous = Instant::now();
                cared += previous.duration_since(begun);
            }
        }

        let spawned = engine.stats().spawned;
        if out.rss_mid.0 == 0 && spawned >= total_ues / 4 {
            out.rss_mid = (rss_bytes(), out.records);
        }
        if spawned >= total_ues {
            grace += 1;
        }
        out.virtual_end = bucket_end;
        bucket_end += period;
        index += 1;
    }
    out.wall_s = (t0.elapsed() - cared).as_secs_f64();
    out.rss_end = rss_bytes();
    if let Some(interval) = interval {
        out.offered_records_per_s = out.records as f64 / (interval.as_secs_f64() * index as f64);
    }
    out
}
