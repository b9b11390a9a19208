//! Streaming scenario engine: millions of UEs through a flat-memory RAN.
//!
//! [`Scenario::populate`] provisions every subscriber and schedules every
//! session up front — fine for hundreds of sessions, hopeless for a million.
//! [`StreamingScenario`] instead *generates* the population lazily: UEs are
//! provisioned the moment they arrive, retire when their session ends (the
//! simulator recycles their slab slot), and the engine prunes every piece of
//! per-UE bookkeeping at retirement. Peak memory tracks the number of
//! *concurrently live* UEs, never the total streamed.
//!
//! The engine also owns the mobility workload family:
//!
//! * **Handover** — a slice of UEs carries `hops_left > 0`; when such a UE
//!   retires in cell A the engine re-provisions the same subscriber in cell
//!   B, hands it the TMSI it was last issued, and removes it from A. The
//!   target AMF resolves the stale TMSI and reallocates a fresh one at SMC
//!   completion — inter-cell handover with TMSI reallocation.
//! * **Registration storms** — periodic bursts of simultaneous arrivals in
//!   one cell ([`StormConfig`]).
//! * **Attacker hooks** — `xsec-attacks` installs adversarial UEs in any
//!   cell at any virtual time ([`StreamingScenario::add_ue_at`]), including
//!   populations that migrate between cells mid-run.
//!
//! Determinism: all engine-level draws (arrival gaps, device models, cell
//! placement, mobility plans) come from one named [`RngStreams`] stream;
//! per-UE randomness is keyed by each cell's monotone arrival sequence. The
//! same config replays byte-identically regardless of how slab slots were
//! recycled.
//!
//! Cell-id layout: cell *index* `i` serves [`CellId`]`(i + 1)` and owns the
//! DU connection range `(i << CELL_SHIFT) | 1 ..`, so `du_ue_id` stays
//! globally unique across the deployment and control actions that only name
//! a connection can still be routed to the right cell.

use crate::amf::SubscriberRecord;
use crate::device::DeviceModel;
use crate::sim::{RanSimulator, SimConfig};
use crate::ue::{BenignUe, SessionPlan, UeBehavior};
use crate::RanEvent;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use xsec_control::{ControlAction, MitigationAction};
use xsec_netsim::{ChannelConfig, RngStreams};
use xsec_proto::{L3Message, NasMessage};
use xsec_types::{CellId, Duration, Plmn, Supi, Timestamp, Tmsi, TrafficClass, UeId};

/// Bits of `du_ue_id` above this shift encode the owning cell index.
const CELL_SHIFT: u32 = 24;

/// Recovers the owning cell index from a DU connection id.
fn cell_of_conn(conn: u32) -> usize {
    (conn >> CELL_SHIFT) as usize
}

/// Periodic registration-storm injection.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Virtual time between storms.
    pub period: Duration,
    /// Simultaneous registrations per storm.
    pub burst: usize,
}

/// Streaming-scenario parameters.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Master seed (engine stream + every per-cell simulator).
    pub seed: u64,
    /// Number of cells in the deployment.
    pub cells: usize,
    /// Distinct benign subscribers to stream end to end.
    pub total_ues: u64,
    /// Mean inter-arrival time between benign session starts.
    pub mean_inter_arrival: Duration,
    /// Relative weights over [`DeviceModel::ALL`].
    pub device_mix: [u32; DeviceModel::COUNT],
    /// Fraction of arrivals presenting a cached TMSI.
    pub warm_start_fraction: f64,
    /// Fraction of UEs that hand over to another cell after their first
    /// session instead of disappearing.
    pub mobility_fraction: f64,
    /// Maximum handovers a mobile UE performs.
    pub max_handovers: u32,
    /// Optional periodic registration storms.
    pub storm: Option<StormConfig>,
    /// Per-cell AMF TMSI retention cap (see `AmfConfig::tmsi_retention`).
    pub tmsi_retention: usize,
    /// Backpressure: arrivals stall while this many UEs are live. This is
    /// the engine's memory ceiling knob — peak slab size never exceeds it
    /// (plus in-flight handovers).
    pub max_live: usize,
    /// Air-interface profile shared by every cell.
    pub channel: ChannelConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            seed: 1,
            cells: 4,
            total_ues: 2_000,
            mean_inter_arrival: Duration::from_millis(2),
            device_mix: [18, 18, 16, 16, 32],
            warm_start_fraction: 0.35,
            mobility_fraction: 0.15,
            max_handovers: 2,
            storm: None,
            tmsi_retention: 4_096,
            max_live: 512,
            channel: ChannelConfig::ideal(),
        }
    }
}

/// What the engine remembers about one live benign session — pruned the
/// moment the UE retires, so the map size is bounded by `max_live`.
#[derive(Debug, Clone)]
struct SessionInfo {
    msin: u64,
    key: u64,
    model: DeviceModel,
    /// Handovers still to perform after the current session ends.
    hops_left: u32,
    /// The TMSI the network last issued (learned from RegistrationAccept).
    tmsi: Option<Tmsi>,
}

/// Aggregate counters for reports and soak gates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Distinct benign subscribers spawned so far.
    pub spawned: u64,
    /// Benign subscribers whose final session ended (no hops left).
    pub completed: u64,
    /// Inter-cell handovers performed.
    pub handovers: u64,
    /// Registration storms fired.
    pub storms: u64,
    /// Currently live UE state machines across all cells.
    pub live: usize,
    /// High-water mark of `live`.
    pub peak_live: usize,
    /// Sum of per-cell slab capacities (allocated slots, live or free).
    pub slab_slots: usize,
}

/// The lazy, multi-cell scenario generator.
pub struct StreamingScenario {
    config: StreamConfig,
    cells: Vec<RanSimulator>,
    rng: StdRng,
    clock: Timestamp,
    next_arrival: Timestamp,
    next_storm: Option<Timestamp>,
    sessions: HashMap<(usize, UeId), SessionInfo>,
    stats: StreamStats,
}

impl StreamingScenario {
    /// Builds the engine: one simulator per cell, no UEs yet.
    pub fn new(config: StreamConfig) -> Self {
        assert!(config.cells >= 1, "need at least one cell");
        assert!(
            config.cells <= (u32::MAX >> CELL_SHIFT) as usize,
            "cell index must fit above CELL_SHIFT"
        );
        let cells = (0..config.cells)
            .map(|i| {
                let mut sim = SimConfig {
                    seed: config.seed.wrapping_add(i as u64),
                    channel: config.channel.clone(),
                    // Streaming runs are open-ended; the driver bounds time.
                    horizon: Duration::from_secs(u64::MAX / 2_000_000),
                    capture_trace: false,
                    ..SimConfig::default()
                };
                sim.gnb.cell = CellId(i as u32 + 1);
                sim.gnb.first_conn = ((i as u32) << CELL_SHIFT) | 1;
                sim.amf.tmsi_retention = Some(config.tmsi_retention);
                RanSimulator::new(sim)
            })
            .collect();
        let rng = RngStreams::new(config.seed).stream("stream-engine");
        let next_storm = config.storm.as_ref().map(|s| Timestamp::ZERO + s.period);
        StreamingScenario {
            config,
            cells,
            rng,
            clock: Timestamp::ZERO,
            next_arrival: Timestamp::ZERO,
            next_storm,
            sessions: HashMap::new(),
            stats: StreamStats::default(),
        }
    }

    /// Live UEs across all cells.
    pub fn live(&self) -> usize {
        self.cells.iter().map(RanSimulator::live_ues).sum()
    }

    /// Current counters. `live`/`peak_live`/`slab_slots` are refreshed on
    /// read.
    pub fn stats(&mut self) -> StreamStats {
        self.stats.live = self.live();
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        self.stats.slab_slots = self.cells.iter().map(RanSimulator::slab_capacity).sum();
        self.stats.clone()
    }

    /// Whether the stream has fully drained: the benign budget is spent and
    /// every cell's event queue is empty (no session, handover, or attacker
    /// activity still in flight).
    pub fn done(&self) -> bool {
        self.stats.spawned >= self.config.total_ues
            && self.cells.iter().all(RanSimulator::is_idle)
    }

    // --- attacker hooks -----------------------------------------------------

    /// Provisions a subscriber in one cell's core.
    pub fn add_subscriber_at(&mut self, cell: usize, record: SubscriberRecord) {
        self.cells[cell].add_subscriber(record);
    }

    /// Installs a UE behavior in one cell, powering on at `at`. Attack
    /// crates use this to drop adversarial (or migrating) UEs into the
    /// stream; the engine does not track them in its session map.
    pub fn add_ue_at(
        &mut self,
        cell: usize,
        behavior: Box<dyn UeBehavior>,
        label: TrafficClass,
        at: Timestamp,
    ) -> UeId {
        self.cells[cell].add_ue(behavior, label, at)
    }

    /// Per-cell gNB counters (admission, rejections, mitigation drops).
    pub fn gnb_stats(&self, cell: usize) -> crate::gnb::GnbStats {
        self.cells[cell].gnb_stats()
    }

    /// Re-homes every cell's enforcement flight recording into `recorder`
    /// so traced control actions land Enforce spans in the shared incident
    /// store. Broadcast actions record once per cell; incident export
    /// dedup absorbs the duplicates.
    pub fn attach_recorder(&mut self, recorder: &xsec_obs::FlightRecorder) {
        for cell in &mut self.cells {
            cell.attach_recorder(recorder);
        }
    }

    // --- control routing ----------------------------------------------------

    /// Routes one RIC control action to the cell(s) it concerns.
    ///
    /// Connection-scoped actions carry the owning cell in their `du_ue_id`
    /// high bits; `QuarantineCell` names its cell outright. `BlacklistRnti`
    /// and `RateLimitCause` arrive without cell attribution (the E2 control
    /// payload has no cell TLV) and C-RNTIs are *not* unique across cells,
    /// so both are enforced deployment-wide — the conservative reading a
    /// real near-RT RIC takes when the scope is ambiguous.
    pub fn apply_control(&mut self, now: Timestamp, control: &ControlAction) {
        match &control.action {
            MitigationAction::ReleaseUe { conn, .. }
            | MitigationAction::ForceReauth { conn } => {
                let cell = cell_of_conn(*conn);
                if let Some(sim) = self.cells.get_mut(cell) {
                    sim.apply_control(now, control);
                }
            }
            MitigationAction::QuarantineCell { cell } => {
                let idx = cell.0.saturating_sub(1) as usize;
                if let Some(sim) = self.cells.get_mut(idx) {
                    sim.apply_control(now, control);
                }
            }
            MitigationAction::BlacklistRnti { .. } | MitigationAction::RateLimitCause { .. } => {
                for sim in &mut self.cells {
                    sim.apply_control(now, control);
                }
            }
        }
    }

    // --- generation ---------------------------------------------------------

    /// Advances every cell to `deadline`, spawning due arrivals first and
    /// performing due handovers after, and returns the merged event stream
    /// (sorted by timestamp; ties resolve in cell order, deterministically).
    pub fn step(&mut self, deadline: Timestamp) -> Vec<RanEvent> {
        self.spawn_due_arrivals(deadline);
        self.spawn_due_storms(deadline);
        // The post-spawn high-water mark: retirements inside run_until only
        // shrink the live set, so this is the step's true peak.
        self.stats.live = self.live();
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        for sim in &mut self.cells {
            sim.run_until(deadline);
        }
        self.clock = deadline;

        let mut merged = Vec::new();
        for idx in 0..self.cells.len() {
            let events = self.cells[idx].take_events();
            for ev in &events {
                self.learn_tmsi(idx, ev);
            }
            merged.extend(events);
        }
        // Stable sort: same-instant events keep cell order, so the merged
        // stream is a pure function of (config, step cadence).
        merged.sort_by_key(|e| e.at);

        self.process_retirements();
        self.stats.live = self.live();
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        merged
    }

    /// Spawns benign arrivals due by `deadline`, respecting `max_live`
    /// backpressure: while the deployment is at capacity the arrival clock
    /// stalls (the would-be arrival happens at the next step instead). The
    /// stall is itself deterministic because `live` is.
    fn spawn_due_arrivals(&mut self, deadline: Timestamp) {
        while self.next_arrival <= deadline && self.stats.spawned < self.config.total_ues {
            if self.live() >= self.config.max_live {
                break;
            }
            let cell = self.rng.gen_range(0..self.config.cells);
            // An arrival that stalled behind backpressure happens when the
            // stall lifts (now), not at its originally drawn instant — the
            // merged stream must never run backwards across steps.
            let at = self.next_arrival.max(self.clock);
            self.spawn_benign(cell, at);
            let u: f64 = self.rng.gen_range(1e-6..1.0f64);
            let gap = (-(u.ln()) * self.config.mean_inter_arrival.as_micros() as f64) as u64;
            self.next_arrival += Duration::from_micros(gap.max(1));
        }
    }

    /// Fires any registration storms due by `deadline`: `burst` simultaneous
    /// arrivals in one cell, drawn from the same subscriber budget.
    fn spawn_due_storms(&mut self, deadline: Timestamp) {
        let Some(storm) = self.config.storm.clone() else { return };
        while let Some(due) = self.next_storm {
            if due > deadline {
                break;
            }
            let cell = self.rng.gen_range(0..self.config.cells);
            for _ in 0..storm.burst {
                if self.stats.spawned >= self.config.total_ues {
                    break;
                }
                self.spawn_benign(cell, due);
            }
            self.stats.storms += 1;
            self.next_storm = Some(due + storm.period);
        }
    }

    /// Provisions one fresh benign subscriber in `cell`, powering on at `at`.
    fn spawn_benign(&mut self, cell: usize, at: Timestamp) {
        let seq = self.stats.spawned;
        self.stats.spawned += 1;

        let msin = 100_000 + seq;
        let key = 0xAB00_0000 + seq;
        let supi = Supi::new(Plmn::TEST, msin);
        let model = self.draw_model();
        let sim = &mut self.cells[cell];
        sim.add_subscriber(SubscriberRecord { supi, key });

        // Warm-start TMSIs live below 0x0100_0000, the floor of the AMF's
        // allocation cursor, so they can never collide with issued ones —
        // and must be unique per subscriber (the modulus only wraps past
        // ~16M spawns): a shared TMSI would alias two identities in the
        // stale map, and the survivor's registration would chase a
        // subscriber that handed over out of the cell.
        let cached_tmsi = if self.rng.gen_bool(self.config.warm_start_fraction) {
            let tmsi = Tmsi(1 + (seq as u32 % 0x00FF_FFFF));
            sim.add_stale_tmsi(tmsi, msin);
            Some(tmsi)
        } else {
            None
        };

        let hops_left = if self.config.max_handovers > 0
            && self.rng.gen_bool(self.config.mobility_fraction)
        {
            self.rng.gen_range(1..=self.config.max_handovers)
        } else {
            0
        };

        let ue = BenignUe::new(model, supi, key, cached_tmsi, &mut self.rng);
        let id = self.cells[cell].add_ue(Box::new(ue), TrafficClass::Benign, at);
        self.sessions
            .insert((cell, id), SessionInfo { msin, key, model, hops_left, tmsi: cached_tmsi });
    }

    fn draw_model(&mut self) -> DeviceModel {
        let total: u32 = self.config.device_mix.iter().sum();
        let mut pick = self.rng.gen_range(0..total);
        for (j, w) in self.config.device_mix.iter().enumerate() {
            if pick < *w {
                return DeviceModel::ALL[j];
            }
            pick -= w;
        }
        DeviceModel::OaiSoftUe
    }

    /// Tracks the TMSI the network last issued to a session, so a handover
    /// carries the *current* identity into the target cell.
    fn learn_tmsi(&mut self, cell: usize, ev: &RanEvent) {
        if let L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi }) = &ev.msg {
            if let Some(id) = ev.ue {
                if let Some(info) = self.sessions.get_mut(&(cell, id)) {
                    info.tmsi = Some(*new_tmsi);
                }
            }
        }
    }

    /// Drains every cell's retirement list: sessions with hops left re-home
    /// to another cell (handover with TMSI carry-over), finished sessions
    /// are forgotten everywhere — subscriber record, stale TMSIs (via the
    /// retention cap), and the engine's own map.
    fn process_retirements(&mut self) {
        for cell in 0..self.cells.len() {
            for id in self.cells[cell].take_retired() {
                let Some(info) = self.sessions.remove(&(cell, id)) else {
                    continue; // attacker-injected UE, not ours to track
                };
                if info.hops_left > 0 && self.config.cells > 1 {
                    self.handover(cell, info);
                } else {
                    self.cells[cell].remove_subscriber(info.msin);
                    self.stats.completed += 1;
                }
            }
        }
    }

    /// Re-registers a retired subscriber in a different cell: the target
    /// core learns the subscriber and the TMSI the source network issued,
    /// the UE presents that TMSI on arrival, and the target AMF reallocates
    /// a fresh one at SMC completion. The source cell forgets the
    /// subscriber entirely.
    fn handover(&mut self, from: usize, info: SessionInfo) {
        let mut target = self.rng.gen_range(0..self.config.cells - 1);
        if target >= from {
            target += 1;
        }
        self.cells[from].remove_subscriber(info.msin);

        let supi = Supi::new(Plmn::TEST, info.msin);
        self.cells[target].add_subscriber(SubscriberRecord { supi, key: info.key });
        if let Some(tmsi) = info.tmsi {
            self.cells[target].add_stale_tmsi(tmsi, info.msin);
        }

        let profile = info.model.profile();
        let hold = profile.hold_time
            + Duration::from_micros(self.rng.gen_range(0..=profile.hold_jitter.as_micros()));
        let plan = SessionPlan {
            // The point of the handover: always present the carried TMSI.
            reuse_tmsi: info.tmsi.is_some(),
            open_pdu_session: self.rng.gen_bool(profile.pdu_session_probability),
            hold,
        };
        let ue = BenignUe::with_plan(info.model, supi, info.key, info.tmsi, plan);

        // Radio gap while the device re-selects the target cell.
        let gap = Duration::from_micros(self.rng.gen_range(2_000..30_000));
        let at = self.clock + gap;
        let id = self.cells[target].add_ue(Box::new(ue), TrafficClass::Benign, at);
        self.sessions.insert(
            (target, id),
            SessionInfo { hops_left: info.hops_left - 1, ..info },
        );
        self.stats.handovers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(mut engine: StreamingScenario, step: Duration) -> (Vec<RanEvent>, StreamStats) {
        let mut events = Vec::new();
        let mut deadline = Timestamp::ZERO + step;
        let mut guard = 0;
        while !engine.done() {
            events.extend(engine.step(deadline));
            deadline += step;
            guard += 1;
            assert!(guard < 100_000, "stream never drained");
        }
        let stats = engine.stats();
        (events, stats)
    }

    fn small(seed: u64) -> StreamConfig {
        StreamConfig {
            seed,
            cells: 3,
            total_ues: 60,
            mean_inter_arrival: Duration::from_millis(5),
            mobility_fraction: 0.4,
            max_handovers: 2,
            max_live: 32,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn streams_the_full_population_and_drains() {
        let (events, stats) = drive(StreamingScenario::new(small(7)), Duration::from_millis(50));
        assert_eq!(stats.spawned, 60);
        assert_eq!(stats.completed, 60);
        assert!(stats.handovers > 0, "mobility fraction should produce handovers");
        assert!(!events.is_empty());
        assert_eq!(stats.live, 0);
    }

    #[test]
    fn replays_byte_identically() {
        let (a, sa) = drive(StreamingScenario::new(small(11)), Duration::from_millis(50));
        let (b, sb) = drive(StreamingScenario::new(small(11)), Duration::from_millis(50));
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn merged_stream_is_time_ordered_with_unique_conns_per_cell() {
        let (events, _) = drive(StreamingScenario::new(small(13)), Duration::from_millis(50));
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "stream out of order");
        for ev in &events {
            let idx = cell_of_conn(ev.du_ue_id);
            assert_eq!(
                ev.cell,
                CellId(idx as u32 + 1),
                "du_ue_id {:#x} claims cell {idx} but event is from {:?}",
                ev.du_ue_id,
                ev.cell
            );
        }
    }

    #[test]
    fn handover_reallocates_the_tmsi_in_the_target_cell() {
        let config = StreamConfig {
            seed: 21,
            cells: 2,
            total_ues: 30,
            mobility_fraction: 1.0,
            max_handovers: 1,
            warm_start_fraction: 0.0,
            mean_inter_arrival: Duration::from_millis(5),
            ..StreamConfig::default()
        };
        let (events, stats) = drive(StreamingScenario::new(config), Duration::from_millis(50));
        assert!(stats.handovers >= 20, "expected most UEs to hand over: {stats:?}");

        // A handed-over UE re-registers by *presenting* a TMSI in the target
        // cell; the target AMF then accepts with a *different* TMSI.
        let mut presented = 0;
        for ev in &events {
            if let L3Message::Nas(NasMessage::RegistrationRequest { identity, .. }) = &ev.msg {
                if matches!(identity, xsec_proto::MobileIdentity::FiveGSTmsi(t) if t.0 >= 0x0100_0000)
                {
                    presented += 1;
                }
            }
        }
        assert!(
            presented >= stats.handovers / 2,
            "handover re-registrations should present network-issued TMSIs: \
             {presented} of {} handovers",
            stats.handovers
        );
    }

    #[test]
    fn backpressure_caps_live_population_and_slab_reuse_bounds_slots() {
        let config = StreamConfig {
            seed: 5,
            cells: 2,
            total_ues: 200,
            mean_inter_arrival: Duration::from_micros(200), // arrive much faster than sessions end
            mobility_fraction: 0.0,
            max_live: 24,
            ..StreamConfig::default()
        };
        let mut engine = StreamingScenario::new(config);
        let mut deadline = Timestamp::ZERO + Duration::from_millis(20);
        while !engine.done() {
            engine.step(deadline);
            let live = engine.live();
            assert!(live <= 24, "backpressure violated: {live} live");
            deadline += Duration::from_millis(20);
        }
        let stats = engine.stats();
        assert_eq!(stats.spawned, 200);
        // Slots are recycled: per-cell peaks need not sum to the global
        // peak, but total slots must stay near the ceiling — far fewer than
        // the number of UEs ever streamed.
        assert!(
            stats.slab_slots <= 24 * 2,
            "slab should stay near max_live, got {} slots",
            stats.slab_slots
        );
    }

    #[test]
    fn storms_fire_on_schedule() {
        let config = StreamConfig {
            seed: 31,
            cells: 2,
            total_ues: 80,
            storm: Some(StormConfig { period: Duration::from_millis(100), burst: 10 }),
            mobility_fraction: 0.0,
            mean_inter_arrival: Duration::from_millis(10),
            ..StreamConfig::default()
        };
        let (_, stats) = drive(StreamingScenario::new(config), Duration::from_millis(50));
        assert!(stats.storms >= 2, "expected storms: {stats:?}");
        assert_eq!(stats.spawned, 80);
    }

    #[test]
    fn control_actions_route_by_cell() {
        let mut engine = StreamingScenario::new(StreamConfig {
            cells: 3,
            total_ues: 0,
            ..StreamConfig::default()
        });
        // Quarantine cell 2 (index 1): only that cell's gNB should count a
        // mitigation drop when an admission is attempted there.
        let control = ControlAction {
            id: 1,
            ttl: Duration::from_secs(5),
            action: MitigationAction::QuarantineCell { cell: CellId(2) },
            trace: None,
        };
        engine.apply_control(Timestamp::ZERO, &control);
        for cell in 0..3 {
            let supi = Supi::new(Plmn::TEST, 900 + cell as u64);
            engine.add_subscriber_at(cell, SubscriberRecord { supi, key: 0x11 });
            let ue = BenignUe::with_plan(
                DeviceModel::OaiSoftUe,
                supi,
                0x11,
                None,
                SessionPlan {
                    reuse_tmsi: false,
                    open_pdu_session: false,
                    hold: Duration::from_millis(100),
                },
            );
            engine.add_ue_at(cell, Box::new(ue), TrafficClass::Benign, Timestamp(1));
        }
        let mut deadline = Timestamp::ZERO + Duration::from_millis(100);
        for _ in 0..40 {
            engine.step(deadline);
            deadline += Duration::from_millis(100);
        }
        assert_eq!(engine.gnb_stats(0).mitigation_dropped, 0);
        assert!(engine.gnb_stats(1).mitigation_dropped >= 1, "quarantine missed its cell");
        assert_eq!(engine.gnb_stats(2).mitigation_dropped, 0);
        assert_eq!(engine.gnb_stats(0).admitted, 1);
        assert_eq!(engine.gnb_stats(2).admitted, 1);
    }
}
