//! The end-to-end network simulator: UEs ⇄ (impaired Uu, optional MiTM) ⇄
//! gNB ⇄ AMF, all driven by one deterministic discrete-event loop.
//!
//! The simulator produces the two artifacts the rest of 6G-XSec consumes:
//!
//! * a ground-truth-labeled [`RanEvent`] stream (the structured view the
//!   MobiFlow extractor reads), and
//! * a raw pcap-like [`TraceLog`] of encoded F1AP/NGAP PDUs (the byte-level
//!   view, used to validate that extraction-from-capture agrees with the
//!   structured stream).

use crate::amf::{Amf, AmfAction, AmfConfig, SubscriberRecord};
use crate::event::RanEvent;
use crate::gnb::{AdmitError, Gnb, GnbAction, GnbConfig};
use crate::intercept::{Intercept, Interceptor, PassThrough, TaintScope};
use crate::ue::UeBehavior;
use rand::rngs::StdRng;
use std::collections::HashMap;
use xsec_netsim::{ChannelConfig, ChannelModel, ChannelOutcome, RngStreams, Scheduler, TraceLog, TraceRecord};
use xsec_proto::{F1apPdu, L3Message, MessageKind, NgapPdu, RrcMessage};
use xsec_types::{
    AttackKind, CipherAlg, Duration, EstablishmentCause, IntegrityAlg, Rnti, Timestamp,
    TrafficClass, Tmsi, UeId,
};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed for all RNG streams.
    pub seed: u64,
    /// Air-interface impairment profile.
    pub channel: ChannelConfig,
    /// gNB policy.
    pub gnb: GnbConfig,
    /// AMF policy.
    pub amf: AmfConfig,
    /// Hard stop for virtual time.
    pub horizon: Duration,
    /// Whether to record the raw F1AP/NGAP byte capture alongside the
    /// structured event stream. Streaming soaks turn this off: the capture
    /// grows without bound and detection only reads the structured view.
    pub capture_trace: bool,
}

/// Period of the CU guard-timer sweep.
const GUARD_POLL: Duration = Duration::from_millis(250);
/// Fixed network-internal processing delay (CU/AMF) added to downlinks.
const CORE_DELAY: Duration = Duration::from_millis(2);

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            channel: ChannelConfig::lab_over_the_air(),
            gnb: GnbConfig::default(),
            amf: AmfConfig::default(),
            horizon: Duration::from_secs(60),
            capture_trace: true,
        }
    }
}

/// Everything a simulation run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Structured, labeled message stream at the network tap.
    pub events: Vec<RanEvent>,
    /// Raw encoded F1AP/NGAP capture.
    pub trace: TraceLog,
    /// gNB counters.
    pub gnb_stats: crate::gnb::GnbStats,
    /// UEs that completed registration at least once.
    pub registrations: u64,
}

impl SimReport {
    /// Events labeled as any attack.
    pub fn attack_events(&self) -> impl Iterator<Item = &RanEvent> {
        self.events.iter().filter(|e| e.label.is_attack())
    }
}

/// A generation-checked handle to a UE slab slot. Slots are recycled through
/// a free list as UEs retire, so an in-flight event can outlive the UE it
/// was addressed to; the generation distinguishes the current occupant from
/// a previous one and stale events are dropped on dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct UeRef {
    slot: u32,
    gen: u32,
}

/// One slab slot: the live entry (if any) plus the reuse generation.
struct UeSlot {
    gen: u32,
    entry: Option<UeEntry>,
}

enum SimEvent {
    PowerOn { ue: UeRef },
    /// UE finished its think time; the message enters the air interface.
    UplinkSend { ue: UeRef, msg: L3Message },
    /// The message survived the channel and reaches the network tap.
    UplinkArrive { ue: UeRef, msg: L3Message },
    /// The network's processing delay elapsed; the downlink is transmitted
    /// (tapped at the network, then MiTM + channel). `ue` was resolved when
    /// the network decided to send, so releases still reach UEs whose
    /// contexts were freed in the meantime.
    DownlinkSend { conn: u32, ue: Option<UeRef>, msg: L3Message },
    /// A downlink survived the channel and reaches the UE.
    DownlinkArrive { ue: UeRef, msg: L3Message },
    UeTimer { ue: UeRef, token: u32 },
    GuardPoll,
}

/// Active ground-truth tampering label on a UE.
#[derive(Debug, Clone, Copy)]
enum TaintState {
    /// Skip `skip` messages, then label `remaining`.
    Burst { kind: AttackKind, skip: u32, remaining: u32 },
    /// Label until the session ends.
    Session { kind: AttackKind },
    /// Label from the first `from`-kind message through the first
    /// `to`-kind message.
    Span { kind: AttackKind, from: MessageKind, to: MessageKind, active: bool },
}

struct UeEntry {
    id: UeId,
    behavior: Box<dyn UeBehavior>,
    label: TrafficClass,
    conn: Option<u32>,
    taint: Option<TaintState>,
    rng: StdRng,
}

/// Last-known context parameters per connection, kept so events emitted
/// after a context is freed (e.g. the `RRCRelease` itself) still carry the
/// right snapshot.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    rnti: Rnti,
    cipher: Option<CipherAlg>,
    integrity: Option<IntegrityAlg>,
    cause: Option<EstablishmentCause>,
    tmsi: Option<Tmsi>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot { rnti: Rnti(0), cipher: None, integrity: None, cause: None, tmsi: None }
    }
}

/// The simulator. Build it, add subscribers and UEs, attach an optional
/// interceptor, then [`RanSimulator::run`].
pub struct RanSimulator {
    config: SimConfig,
    scheduler: Scheduler<SimEvent>,
    channel: ChannelModel,
    gnb: Gnb,
    amf: Amf,
    /// Compact per-UE slab: retired UEs free their slot back to `free` for
    /// reuse, so the slab's size tracks the number of *concurrently* live
    /// UEs rather than the total ever created — the property that lets a
    /// streaming scenario push millions of distinct UEs through a flat
    /// memory ceiling.
    slots: Vec<UeSlot>,
    free: Vec<u32>,
    /// Total UEs ever added; keys the per-UE RNG stream so replays stay
    /// stable under churn (a reused slot draws a *fresh* stream, not the
    /// previous occupant's).
    ue_seq: u64,
    live: usize,
    retired: Vec<UeId>,
    guard_scheduled: bool,
    conn_to_ue: HashMap<u32, UeRef>,
    snapshots: HashMap<u32, Snapshot>,
    interceptor: Box<dyn Interceptor>,
    events: Vec<RanEvent>,
    trace: TraceLog,
    registrations: u64,
    streams: RngStreams,
    temp_rnti_cursor: u16,
    /// Flight recorder the enforcement stage logs into (a detached default
    /// until [`RanSimulator::attach_obs`] re-homes it).
    recorder: xsec_obs::FlightRecorder,
}

impl RanSimulator {
    /// Creates a simulator from a config.
    pub fn new(config: SimConfig) -> Self {
        let streams = RngStreams::new(config.seed);
        let channel = ChannelModel::new(config.channel.clone(), streams.stream("channel"));
        let gnb = Gnb::new(config.gnb.clone());
        let amf = Amf::new(config.amf.clone(), streams.stream("amf"));
        let mut scheduler = Scheduler::new();
        scheduler.schedule_in(GUARD_POLL, SimEvent::GuardPoll);
        RanSimulator {
            config,
            scheduler,
            channel,
            gnb,
            amf,
            slots: Vec::new(),
            free: Vec::new(),
            ue_seq: 0,
            live: 0,
            retired: Vec::new(),
            guard_scheduled: true,
            conn_to_ue: HashMap::new(),
            snapshots: HashMap::new(),
            interceptor: Box::new(PassThrough),
            events: Vec::new(),
            trace: TraceLog::new(),
            registrations: 0,
            streams,
            temp_rnti_cursor: 0x0100,
            recorder: xsec_obs::FlightRecorder::new(),
        }
    }

    /// Re-homes the simulator's counters (gNB admission/enforcement, channel
    /// impairments) into `obs`, so a pipeline run collects RAN-side metrics
    /// in the same registry as the detection stages. Accumulated counts are
    /// carried over.
    pub fn attach_obs(&mut self, obs: &xsec_obs::Obs) {
        self.gnb.attach_obs(obs);
        self.channel.attach_obs(obs);
        self.recorder = obs.recorder.clone();
    }

    /// Re-homes only the flight recorder (streaming deployments use this:
    /// their per-cell metrics stay local, but enforcement spans must land in
    /// the shared incident traces).
    pub fn attach_recorder(&mut self, recorder: &xsec_obs::FlightRecorder) {
        self.recorder = recorder.clone();
    }

    /// Provisions a subscriber in the core.
    pub fn add_subscriber(&mut self, record: SubscriberRecord) {
        self.amf.provision(record);
    }

    /// Provisions a stale TMSI the AMF can still resolve (see
    /// [`Amf::provision_stale_tmsi`]).
    pub fn add_stale_tmsi(&mut self, tmsi: xsec_types::Tmsi, msin: u64) {
        self.amf.provision_stale_tmsi(tmsi, msin);
    }

    /// Registers a UE to power on at `start_at`. Returns its ground-truth id.
    ///
    /// UEs may be added at any point, including mid-run after earlier UEs
    /// retired: the entry goes into a recycled slab slot, but its identity
    /// and RNG stream are keyed by the monotonically increasing arrival
    /// sequence, so the same arrival order always replays identically no
    /// matter how slots were reused.
    pub fn add_ue(
        &mut self,
        behavior: Box<dyn UeBehavior>,
        label: TrafficClass,
        start_at: Timestamp,
    ) -> UeId {
        let id = UeId(self.ue_seq + 1);
        let entry = UeEntry {
            id,
            behavior,
            label,
            conn: None,
            taint: None,
            rng: self.streams.indexed_stream("ue", self.ue_seq),
        };
        self.ue_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].entry = Some(entry);
                slot
            }
            None => {
                self.slots.push(UeSlot { gen: 0, entry: Some(entry) });
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        let ue = UeRef { slot, gen: self.slots[slot as usize].gen };
        self.scheduler.schedule_at(start_at, SimEvent::PowerOn { ue });
        // The guard sweep cancels itself once the sim quiesces; a fresh UE
        // (e.g. from the streaming generator) must re-arm it.
        if !self.guard_scheduled {
            self.scheduler.schedule_in(GUARD_POLL, SimEvent::GuardPoll);
            self.guard_scheduled = true;
        }
        id
    }

    /// Resolves a generation-checked reference to the current slab index,
    /// or `None` if the addressed UE has retired (stale in-flight event).
    fn resolve(&self, r: UeRef) -> Option<usize> {
        let slot = self.slots.get(r.slot as usize)?;
        (slot.gen == r.gen && slot.entry.is_some()).then_some(r.slot as usize)
    }

    /// Retires a powered-off UE: frees its slot and generation for reuse
    /// and records the id so external drivers (the streaming engine) can
    /// evict downstream per-UE state. Stale in-flight events addressed to
    /// the old occupant are dropped by the generation check.
    fn retire(&mut self, r: UeRef) {
        let Some(idx) = self.resolve(r) else { return };
        let entry = self.slots[idx].entry.take().expect("resolved slot is occupied");
        if let Some(conn) = entry.conn {
            self.conn_to_ue.remove(&conn);
            // The UE vanished; the CU context lingers until guard expiry
            // or an explicit release already in flight.
        }
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.free.push(r.slot);
        self.live -= 1;
        self.retired.push(entry.id);
    }

    /// Attaches a man-in-the-middle on the air interface.
    pub fn set_interceptor(&mut self, interceptor: Box<dyn Interceptor>) {
        self.interceptor = interceptor;
    }

    /// Occupied-slot access; only valid for indices that came out of
    /// [`RanSimulator::resolve`] within the same dispatch.
    fn entry_mut(&mut self, idx: usize) -> &mut UeEntry {
        self.slots[idx].entry.as_mut().expect("resolved slot is occupied")
    }

    /// Applies a tampering label to a UE. An existing session-scope taint is
    /// never narrowed by a later burst.
    fn apply_taint(&mut self, ue: usize, kind: AttackKind, scope: TaintScope) {
        let state = match scope {
            TaintScope::Burst { label: 0, .. } => return, // no labelable effect
            TaintScope::Burst { skip, label } => {
                TaintState::Burst { kind, skip, remaining: label }
            }
            TaintScope::Session => TaintState::Session { kind },
            TaintScope::Span { from, to } => {
                TaintState::Span { kind, from, to, active: false }
            }
        };
        let entry = self.entry_mut(ue);
        match entry.taint {
            Some(TaintState::Session { .. }) => {} // session taint already in force
            _ => entry.taint = Some(state),
        }
    }

    /// Runs to completion (queue drained or horizon reached).
    pub fn run(mut self) -> SimReport {
        let horizon = Timestamp::ZERO + self.config.horizon;
        self.run_until(horizon);
        self.finish()
    }

    /// Processes every queued event up to (and including) `deadline`,
    /// clamped to the configured horizon, then returns. This is the stepped
    /// interface the closed-loop pipeline drives: advance the RAN one report
    /// period, extract telemetry, let the RIC react, apply the resulting
    /// control actions, repeat.
    pub fn run_until(&mut self, deadline: Timestamp) {
        let deadline = deadline.min(Timestamp::ZERO + self.config.horizon);
        while let Some(at) = self.scheduler.peek_time() {
            if at > deadline {
                break;
            }
            let (now, event) = self.scheduler.pop().expect("peeked event exists");
            self.dispatch(now, event);
        }
    }

    /// Consumes the simulator and produces the final report.
    pub fn finish(self) -> SimReport {
        SimReport {
            events: self.events,
            trace: self.trace,
            gnb_stats: self.gnb.stats(),
            registrations: self.registrations,
        }
    }

    /// The labeled event stream accumulated so far (grows as the run
    /// advances — the closed-loop driver re-extracts telemetry from it).
    pub fn events(&self) -> &[RanEvent] {
        &self.events
    }

    /// Drains the labeled events accumulated since the last drain. The
    /// streaming drivers use this instead of [`RanSimulator::events`] so the
    /// event buffer stays flat no matter how long the run goes.
    pub fn take_events(&mut self) -> Vec<RanEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains the ids of UEs retired (powered off and slab-freed) since the
    /// last drain, so external drivers can evict downstream per-UE state.
    pub fn take_retired(&mut self) -> Vec<UeId> {
        std::mem::take(&mut self.retired)
    }

    /// Number of UEs currently alive (added and not yet retired).
    pub fn live_ues(&self) -> usize {
        self.live
    }

    /// Size of the UE slab — the high-water mark of *concurrently* live
    /// UEs, not the total ever created (retired slots are recycled).
    pub fn slab_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether the event queue is fully drained — nothing more will happen
    /// unless new UEs are added.
    pub fn is_idle(&self) -> bool {
        self.scheduler.is_idle()
    }

    /// Removes a subscriber's SIM profile from the core (streaming retire).
    pub fn remove_subscriber(&mut self, msin: u64) {
        self.amf.forget_subscriber(msin);
    }

    /// Point-in-time gNB counters (available mid-run; `finish` reports the
    /// same numbers at the end).
    pub fn gnb_stats(&self) -> crate::gnb::GnbStats {
        self.gnb.stats()
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Enforces one RIC control action at virtual time `now`, routing any
    /// resulting downlinks (releases, detaches) through the normal
    /// transmission path so they are tapped and delivered like any other
    /// network-initiated traffic.
    pub fn apply_control(&mut self, now: Timestamp, control: &xsec_control::ControlAction) {
        if let Some(trace) = control.trace {
            use xsec_control::MitigationAction as M;
            let kind = match control.action {
                M::ReleaseUe { .. } => 0,
                M::BlacklistRnti { .. } => 1,
                M::ForceReauth { .. } => 2,
                M::QuarantineCell { .. } => 3,
                M::RateLimitCause { .. } => 4,
            };
            self.recorder.record_stage(xsec_obs::FlightEvent {
                trace,
                stage: xsec_obs::TraceStage::Enforce,
                at_us: now.as_micros(),
                a: u64::from(control.id),
                b: kind,
            });
        }
        for action in self.gnb.apply_control(now, control) {
            self.apply_gnb_action(now, action);
        }
    }

    // --- event dispatch -----------------------------------------------------

    fn dispatch(&mut self, now: Timestamp, event: SimEvent) {
        match event {
            SimEvent::PowerOn { ue } => {
                let Some(idx) = self.resolve(ue) else { return };
                let entry = self.entry_mut(idx);
                let actions = entry.behavior.on_power_on(now, &mut entry.rng);
                self.apply_ue_actions(now, ue, actions);
            }
            SimEvent::UplinkSend { ue, msg } => self.uplink_send(now, ue, msg),
            SimEvent::UplinkArrive { ue, msg } => self.uplink_arrive(now, ue, msg),
            SimEvent::DownlinkSend { conn, ue, msg } => self.downlink_send(now, conn, ue, msg),
            SimEvent::DownlinkArrive { ue, msg } => {
                let Some(idx) = self.resolve(ue) else { return };
                let entry = self.entry_mut(idx);
                let actions = entry.behavior.on_downlink(now, &msg, &mut entry.rng);
                self.apply_ue_actions(now, ue, actions);
            }
            SimEvent::UeTimer { ue, token } => {
                let Some(idx) = self.resolve(ue) else { return };
                let entry = self.entry_mut(idx);
                let actions = entry.behavior.on_timer(now, token, &mut entry.rng);
                self.apply_ue_actions(now, ue, actions);
            }
            SimEvent::GuardPoll => {
                self.guard_scheduled = false;
                let actions = self.gnb.expire_stale(now);
                for action in actions {
                    self.apply_gnb_action(now, action);
                }
                // Keep polling while anything can still happen. Once the sim
                // quiesces, the sweep stops; `add_ue` re-arms it.
                if self.live > 0 || self.gnb.active_contexts() > 0 {
                    self.scheduler.schedule_in(GUARD_POLL, SimEvent::GuardPoll);
                    self.guard_scheduled = true;
                }
            }
        }
    }

    fn apply_ue_actions(&mut self, now: Timestamp, ue: UeRef, actions: crate::ue::UeActions) {
        for (delay, token) in actions.timers {
            self.scheduler.schedule_at(now + delay, SimEvent::UeTimer { ue, token });
        }
        let mut offset = Duration::ZERO;
        for msg in actions.sends {
            let delay = {
                let Some(idx) = self.resolve(ue) else { return };
                let entry = self.entry_mut(idx);
                entry.behavior.response_delay(&mut entry.rng)
            };
            offset = offset + delay;
            self.scheduler.schedule_at(now + offset, SimEvent::UplinkSend { ue, msg });
        }
        if actions.power_off {
            self.retire(ue);
        }
    }

    /// The message leaves the UE: MiTM first, then the radio channel.
    fn uplink_send(&mut self, now: Timestamp, ue: UeRef, msg: L3Message) {
        let Some(idx) = self.resolve(ue) else { return };
        let ue_id = self.slots[idx].entry.as_ref().expect("resolved slot is occupied").id;
        let msg = match self.interceptor.on_uplink(ue_id, &msg) {
            Intercept::Pass => msg,
            Intercept::Drop => return,
            Intercept::Replace { message, taint, scope } => {
                self.apply_taint(idx, taint, scope);
                message
            }
        };
        match self.channel.transmit() {
            ChannelOutcome::Lost => {}
            ChannelOutcome::Delivered { latency, retransmissions } => {
                self.scheduler
                    .schedule_at(now + latency, SimEvent::UplinkArrive { ue, msg: msg.clone() });
                // An RLC retransmission duplicates the message at the
                // receiver — the benign noise source the paper blames for
                // false positives.
                if retransmissions > 0 {
                    let dup_at = now + latency + self.config.channel.retx_interval;
                    self.scheduler.schedule_at(dup_at, SimEvent::UplinkArrive { ue, msg });
                }
            }
        }
    }

    /// The message reaches the network: tap it, then process it.
    fn uplink_arrive(&mut self, now: Timestamp, ue: UeRef, msg: L3Message) {
        let Some(idx) = self.resolve(ue) else { return };
        if let L3Message::Rrc(RrcMessage::SetupRequest { cause, .. }) = &msg {
            self.handle_setup_request(now, ue, msg.clone(), *cause);
            return;
        }
        let Some(conn) = self.slots[idx].entry.as_ref().expect("resolved slot is occupied").conn
        else {
            return; // stale uplink for a torn-down connection
        };
        // MAC-level enforcement: a blacklisted C-RNTI's frames are dropped
        // before the tap, so mitigated traffic leaves no telemetry.
        if self.gnb.uplink_blocked(conn, now) {
            return;
        }
        // RRC messages are tapped here; uplink NAS is tapped at the NGAP
        // relay point (`ToAmf`) so piggybacked containers get their own
        // telemetry entry, matching the paper's message ladders.
        if matches!(msg, L3Message::Rrc(_)) {
            self.emit_event(now, conn, true, &msg, Some(idx));
        }
        let actions = self.gnb.handle_uplink(conn, &msg);
        for action in actions {
            self.apply_gnb_action(now, action);
        }
    }

    fn handle_setup_request(
        &mut self,
        now: Timestamp,
        ue: UeRef,
        msg: L3Message,
        cause: EstablishmentCause,
    ) {
        let Some(idx) = self.resolve(ue) else { return };
        match self.gnb.admit(now, cause) {
            Ok(conn) => {
                // A fresh connection; any previous one from this UE lingers
                // at the CU (that *is* the BTS DoS resource burn). Its
                // routing entry stays so the eventual guard-expiry release
                // is still attributed (and ground-truth-labeled) correctly.
                self.entry_mut(idx).conn = Some(conn);
                self.conn_to_ue.insert(conn, ue);
                self.emit_event(now, conn, true, &msg, Some(idx));
                self.downlink_send(now, conn, Some(ue), L3Message::Rrc(RrcMessage::Setup));
            }
            Err(AdmitError::RateLimited) | Err(AdmitError::Quarantined) => {
                // RIC-mitigation drop at the MAC: the frame is discarded
                // before the network tap, so no event and no reject — the
                // attacker just hears silence.
            }
            Err(AdmitError::Congestion) | Err(AdmitError::RntiExhausted) => {
                // Reject on a temporary RNTI; no context is created.
                let temp_rnti = Rnti(self.temp_rnti_cursor);
                self.temp_rnti_cursor = self.temp_rnti_cursor.wrapping_add(1).max(0x0100);
                let snapshot = Snapshot { rnti: temp_rnti, cause: Some(cause), ..Snapshot::default() };
                self.emit_event_with_snapshot(now, 0, snapshot, true, &msg, Some(idx));
                let reject = L3Message::Rrc(RrcMessage::Reject { wait_time_s: 16 });
                self.emit_event_with_snapshot(now, 0, snapshot, false, &reject, Some(idx));
                self.deliver_downlink(now, ue, reject);
            }
        }
    }

    fn apply_gnb_action(&mut self, now: Timestamp, action: GnbAction) {
        match action {
            GnbAction::Downlink { conn, msg } => {
                // Resolve the recipient now (the mapping may be gone by the
                // time the send fires, e.g. for the release itself).
                let ue = self.conn_to_ue.get(&conn).copied();
                self.scheduler.schedule_in(
                    CORE_DELAY,
                    SimEvent::DownlinkSend { conn, ue, msg },
                );
            }
            GnbAction::ToAmf { conn, msg } => {
                let ue = self.conn_to_ue.get(&conn).copied().and_then(|r| self.resolve(r));
                self.emit_event(now, conn, true, &L3Message::Nas(msg.clone()), ue);
                // If an attack-labeled uplink forces the AMF to detach a
                // *different* connection (the TMSI-conflict lever of Blind
                // DoS), the victim's teardown is attack fallout: label it.
                let source_attack = ue.and_then(|idx| {
                    let entry = self.slots[idx].entry.as_ref().expect("resolved slot");
                    match entry.taint {
                        Some(TaintState::Burst { kind, skip: 0, .. })
                        | Some(TaintState::Session { kind }) => Some(kind),
                        _ => entry.label.attack_kind(),
                    }
                });
                let amf_actions = self.amf.handle_uplink(conn as u64, &msg);
                if let Some(kind) = source_attack {
                    for action in &amf_actions {
                        if let AmfAction::ReleaseConnection { conn: victim_conn, .. } = action {
                            let victim_conn = *victim_conn as u32;
                            if victim_conn != conn {
                                if let Some(victim) = self
                                    .conn_to_ue
                                    .get(&victim_conn)
                                    .copied()
                                    .and_then(|r| self.resolve(r))
                                {
                                    self.apply_taint(
                                        victim,
                                        kind,
                                        TaintScope::Burst { skip: 0, label: 1 },
                                    );
                                }
                            }
                        }
                    }
                }
                for amf_action in amf_actions {
                    if let AmfAction::SendNas {
                        msg: xsec_proto::NasMessage::RegistrationAccept { .. },
                        ..
                    } = &amf_action
                    {
                        self.registrations += 1;
                    }
                    let gnb_actions = self.gnb.handle_amf(&amf_action);
                    for ga in gnb_actions {
                        self.apply_gnb_action(now, ga);
                    }
                }
            }
            GnbAction::ContextFreed { conn } => {
                self.amf.connection_closed(conn as u64);
                if let Some(idx) = self.conn_to_ue.remove(&conn).and_then(|r| self.resolve(r)) {
                    let entry = self.entry_mut(idx);
                    if entry.conn == Some(conn) {
                        entry.conn = None;
                    }
                }
            }
        }
    }

    /// Taps a downlink at the network side, then sends it through MiTM +
    /// channel toward the UE.
    fn downlink_send(&mut self, now: Timestamp, conn: u32, ue: Option<UeRef>, msg: L3Message) {
        let released = matches!(msg, L3Message::Rrc(RrcMessage::Release { .. }));
        let Some((r, idx)) = ue.and_then(|r| self.resolve(r).map(|idx| (r, idx))) else {
            // The UE was already gone when the network decided to transmit;
            // tap the transmission for the record anyway.
            self.emit_event(now, conn, false, &msg, None);
            if released {
                self.snapshots.remove(&conn);
            }
            return;
        };
        // The MiTM decision is taken *before* the network tap records the
        // transmission, so an overwritten transmission slot (e.g. the
        // authentication request a downlink extractor replaces) is itself
        // ground-truth-labeled as the attack — exactly where Figure 2a puts
        // the malicious entry. The tap still records the original content:
        // that is what the network transmitted.
        let ue_id = self.slots[idx].entry.as_ref().expect("resolved slot is occupied").id;
        let decision = self.interceptor.on_downlink(ue_id, &msg);
        if let Intercept::Replace { taint, scope, .. } = &decision {
            self.apply_taint(idx, *taint, *scope);
        }
        self.emit_event(now, conn, false, &msg, Some(idx));
        if released {
            // Conn ids are never reused within a run, so once the release
            // is tapped the cached snapshot can never be needed again.
            self.snapshots.remove(&conn);
        }
        let msg = match decision {
            Intercept::Pass => msg,
            Intercept::Drop => return,
            Intercept::Replace { message, .. } => message,
        };
        self.deliver_downlink(now, r, msg);
    }

    fn deliver_downlink(&mut self, now: Timestamp, ue: UeRef, msg: L3Message) {
        match self.channel.transmit() {
            ChannelOutcome::Lost => {}
            ChannelOutcome::Delivered { latency, retransmissions } => {
                self.scheduler
                    .schedule_at(now + latency, SimEvent::DownlinkArrive { ue, msg: msg.clone() });
                if retransmissions > 0 {
                    let dup_at = now + latency + self.config.channel.retx_interval;
                    self.scheduler.schedule_at(dup_at, SimEvent::DownlinkArrive { ue, msg });
                }
            }
        }
    }

    // --- event emission -------------------------------------------------------

    fn snapshot_for(&mut self, conn: u32) -> Snapshot {
        if let Some(ctx) = self.gnb.context(conn) {
            let snap = Snapshot {
                rnti: ctx.rnti,
                cipher: ctx.cipher,
                integrity: ctx.integrity,
                cause: Some(ctx.cause),
                tmsi: ctx.tmsi,
            };
            self.snapshots.insert(conn, snap);
            snap
        } else {
            self.snapshots.get(&conn).copied().unwrap_or_default()
        }
    }

    fn emit_event(
        &mut self,
        now: Timestamp,
        conn: u32,
        uplink: bool,
        msg: &L3Message,
        ue: Option<usize>,
    ) {
        let snapshot = self.snapshot_for(conn);
        self.emit_event_with_snapshot(now, conn, snapshot, uplink, msg, ue);
    }

    fn emit_event_with_snapshot(
        &mut self,
        now: Timestamp,
        conn: u32,
        snapshot: Snapshot,
        uplink: bool,
        msg: &L3Message,
        ue: Option<usize>,
    ) {
        let (ue_id, label) = match ue {
            Some(idx) => {
                let entry = self.slots[idx].entry.as_mut().expect("resolved slot is occupied");
                let label = match entry.taint {
                    // Still inside the unobservable-slot prefix: benign.
                    Some(TaintState::Burst { kind, skip, remaining }) if skip > 0 => {
                        entry.taint =
                            Some(TaintState::Burst { kind, skip: skip - 1, remaining });
                        entry.label
                    }
                    Some(TaintState::Burst { kind, remaining, .. }) => {
                        entry.taint = (remaining > 1).then_some(TaintState::Burst {
                            kind,
                            skip: 0,
                            remaining: remaining - 1,
                        });
                        TrafficClass::Attack(kind)
                    }
                    Some(TaintState::Session { kind }) => TrafficClass::Attack(kind),
                    Some(TaintState::Span { kind, from, to, active }) => {
                        let msg_kind = msg.kind();
                        if active || msg_kind == from {
                            if msg_kind == to {
                                entry.taint = None;
                            } else {
                                entry.taint = Some(TaintState::Span {
                                    kind,
                                    from,
                                    to,
                                    active: true,
                                });
                            }
                            TrafficClass::Attack(kind)
                        } else {
                            entry.label
                        }
                    }
                    None => entry.label,
                };
                (Some(entry.id), label)
            }
            None => (None, TrafficClass::Benign),
        };
        let supi_exposed = match msg {
            L3Message::Nas(nas) => nas.disclosed_identity().and_then(|id| match id {
                xsec_proto::MobileIdentity::PlainSupi(supi) => Some(*supi),
                _ => None,
            }),
            L3Message::Rrc(_) => None,
        };
        let direction =
            if uplink { xsec_proto::Direction::Uplink } else { xsec_proto::Direction::Downlink };

        // Raw capture: RRC goes to the F1AP tap, NAS to the NGAP tap.
        if self.config.capture_trace {
            match msg {
                L3Message::Rrc(_) => {
                    let pdu = F1apPdu::wrap(conn, snapshot.rnti, self.config.gnb.cell, uplink, msg);
                    self.trace.push(TraceRecord {
                        at: now,
                        interface: "F1AP",
                        uplink,
                        summary: format!("{msg} rnti={}", snapshot.rnti),
                        payload: pdu.encode(),
                    });
                }
                L3Message::Nas(_) => {
                    let pdu = NgapPdu::wrap(conn as u64, conn as u64, uplink, msg);
                    self.trace.push(TraceRecord {
                        at: now,
                        interface: "NGAP",
                        uplink,
                        summary: format!("{msg} conn={conn}"),
                        payload: pdu.encode(),
                    });
                }
            }
        }

        self.events.push(RanEvent {
            at: now,
            cell: self.config.gnb.cell,
            rnti: snapshot.rnti,
            du_ue_id: conn,
            direction,
            msg: msg.clone(),
            cipher: snapshot.cipher,
            integrity: snapshot.integrity,
            establishment_cause: snapshot.cause,
            tmsi: snapshot.tmsi,
            supi_exposed,
            ue: ue_id,
            label,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::ue::BenignUe;
    use xsec_types::{Plmn, Supi};

    fn simple_sim(seed: u64, n_ues: usize) -> RanSimulator {
        let mut sim = RanSimulator::new(SimConfig {
            seed,
            channel: ChannelConfig::ideal(),
            horizon: Duration::from_secs(30),
            ..SimConfig::default()
        });
        let mut rng = sim.streams.stream("test-setup");
        for i in 0..n_ues {
            let msin = 1000 + i as u64;
            let key = 0xA000 + i as u64;
            sim.add_subscriber(SubscriberRecord {
                supi: Supi::new(Plmn::TEST, msin),
                key,
            });
            let ue = BenignUe::new(
                DeviceModel::ALL[i % DeviceModel::ALL.len()],
                Supi::new(Plmn::TEST, msin),
                key,
                None,
                &mut rng,
            );
            sim.add_ue(
                Box::new(ue),
                TrafficClass::Benign,
                Timestamp(50_000 * i as u64),
            );
        }
        sim
    }

    #[test]
    fn single_benign_ue_completes_registration() {
        let report = simple_sim(11, 1).run();
        assert_eq!(report.registrations, 1, "events:\n{}", dump(&report));
        let kinds: Vec<_> = report.events.iter().map(|e| e.msg.kind().name()).collect();
        assert!(kinds.contains(&"RRCSetupRequest"));
        assert!(kinds.contains(&"RegistrationRequest"));
        assert!(kinds.contains(&"AuthenticationRequest"));
        assert!(kinds.contains(&"AuthenticationResponse"));
        assert!(kinds.contains(&"RegistrationAccept"));
    }

    fn dump(report: &SimReport) -> String {
        report.events.iter().map(|e| e.summary() + "\n").collect()
    }

    #[test]
    fn benign_session_releases_cleanly() {
        let report = simple_sim(12, 1).run();
        let kinds: Vec<_> = report.events.iter().map(|e| e.msg.kind().name()).collect();
        assert!(kinds.contains(&"DeregistrationRequest"), "events:\n{}", dump(&report));
        assert!(kinds.contains(&"RRCRelease"), "events:\n{}", dump(&report));
        assert_eq!(report.gnb_stats.released, 1);
    }

    #[test]
    fn multiple_ues_all_register() {
        let report = simple_sim(13, 8).run();
        assert_eq!(report.registrations, 8, "events:\n{}", dump(&report));
        // All benign.
        assert!(report.events.iter().all(|e| !e.label.is_attack()));
    }

    #[test]
    fn runs_are_deterministic() {
        let a = simple_sim(77, 4).run();
        let b = simple_sim(77, 4).run();
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x, y);
        }
        assert_eq!(a.trace.len(), b.trace.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = simple_sim(1, 4).run();
        let b = simple_sim(2, 4).run();
        // Same message types overall, but timings must differ somewhere.
        let ta: Vec<_> = a.events.iter().map(|e| e.at).collect();
        let tb: Vec<_> = b.events.iter().map(|e| e.at).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn events_carry_security_context_after_smc() {
        let report = simple_sim(21, 1).run();
        let post_smc: Vec<_> = report
            .events
            .iter()
            .skip_while(|e| e.msg.kind().name() != "NASSecurityModeCommand")
            .collect();
        assert!(!post_smc.is_empty());
        // Everything after the SMC carries the negotiated algorithms.
        let accept = post_smc
            .iter()
            .find(|e| e.msg.kind().name() == "RegistrationAccept")
            .expect("registration accept present");
        assert_eq!(accept.cipher, Some(CipherAlg::Nea2));
        assert_eq!(accept.integrity, Some(IntegrityAlg::Nia2));
    }

    #[test]
    fn trace_and_events_have_consistent_counts() {
        let report = simple_sim(31, 3).run();
        assert_eq!(report.trace.len(), report.events.len());
        // Raw F1AP records decode back to the same RRC kinds.
        for (rec, ev) in report.trace.records().iter().zip(&report.events) {
            match &ev.msg {
                L3Message::Rrc(_) => {
                    assert_eq!(rec.interface, "F1AP");
                    let pdu = F1apPdu::decode(&rec.payload).unwrap();
                    assert_eq!(pdu.unwrap_l3().unwrap(), ev.msg);
                    assert_eq!(pdu.rnti, ev.rnti);
                }
                L3Message::Nas(_) => {
                    assert_eq!(rec.interface, "NGAP");
                    let pdu = NgapPdu::decode(&rec.payload).unwrap();
                    assert_eq!(pdu.unwrap_l3().unwrap(), ev.msg);
                }
            }
        }
    }

    #[test]
    fn lossy_channel_still_converges() {
        let mut sim = RanSimulator::new(SimConfig {
            seed: 5,
            channel: ChannelConfig::lab_over_the_air(),
            horizon: Duration::from_secs(30),
            ..SimConfig::default()
        });
        let mut rng = sim.streams.stream("test-setup");
        for i in 0..10 {
            let msin = 5000 + i;
            sim.add_subscriber(SubscriberRecord { supi: Supi::new(Plmn::TEST, msin), key: i });
            let ue = BenignUe::new(
                DeviceModel::Pixel5,
                Supi::new(Plmn::TEST, msin),
                i,
                None,
                &mut rng,
            );
            sim.add_ue(Box::new(ue), TrafficClass::Benign, Timestamp(100_000 * i));
        }
        let report = sim.run();
        // With ~3% retransmission probability most sessions complete; losses
        // can strand some, but the sim must terminate and register >half.
        assert!(report.registrations >= 6, "only {} registered", report.registrations);
    }
}
