//! The platform: E2 termination + subscription management + xApp hosting.
//!
//! Single-threaded and pump-driven, but *readiness-driven* rather than a
//! round-robin scan: every transport registers a [`xsec_e2::Waker`] on a
//! shared ready-queue ([`xsec_e2::WakeSet`]) when it is attached, and each
//! [`RicPlatform::pump`] call visits only the connections that signalled
//! pending frames since the last iteration (plus the small set of polled
//! transports that cannot signal, e.g. plain nonblocking TCP sockets). Per
//! pump, cost is O(active connections), not O(connections) — the property
//! that lets one platform terminate hundreds of mostly-idle gNB agents.
//!
//! A pump iteration drains the ready connections, completes E2 handshakes,
//! persists each arriving report window to the SDL (the KPM payload as
//! received, one entry per agent and window, the newest
//! [`SDL_WINDOWS_PER_AGENT`] kept), dispatches its records to subscribed
//! xApps (timing each handler against the near-RT budget), relays topic
//! messages between xApps, and ships queued control actions back to the
//! RAN. All sends are non-blocking: each transport owns a bounded egress
//! queue and a full queue drops the frame with a count
//! (`xsec_ric_egress_dropped_total`) instead of stalling the reactor.

use crate::authz::{Grants, XAppIdentity};
use crate::router::{RegisterError, Router, RouterHandle};
use crate::xapp::{ControlOut, XApp, XAppContext};
use crossbeam_channel::Receiver;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;
use xsec_e2::{
    E2apPdu, E2Transport, KpmIndication, Readiness, RicRequestId, SendOutcome, WakeSet,
    RAN_FUNCTION_MOBIFLOW,
};
use xsec_mobiflow::SharedDataLayer;
use xsec_obs::{Counter, Gauge, Histogram, Obs};
use xsec_types::{CellId, GnbId, Result, Timestamp, XsecError};

/// SDL namespace holding the telemetry report windows.
const SDL_MOBIFLOW: &str = "mobiflow";

/// Report windows kept per agent in the `mobiflow` SDL namespace; storing
/// one more evicts that agent's oldest.
pub const SDL_WINDOWS_PER_AGENT: usize = 64;

/// Writes the SDL key of one agent's report window into `key`:
/// `<conn>/<end µs>/<start µs>`, the bounds zero-padded to a `u64`'s 20
/// digits so an agent's keys sort by time. Digit by digit into a buffer the
/// platform reuses: this runs once or twice per indication.
fn write_window_key(key: &mut String, conn: usize, start: Timestamp, end: Timestamp) {
    let mut fields = [b'0'; 62];
    fields[20] = b'/';
    fields[41] = b'/';
    // The token alone is not padded, but keeps its last digit when zero.
    let first = put_digits(&mut fields[..20], conn as u64).min(19);
    put_digits(&mut fields[21..41], end.as_micros());
    put_digits(&mut fields[42..], start.as_micros());
    key.clear();
    key.push_str(std::str::from_utf8(&fields[first..]).expect("ASCII digits and slashes"));
}

/// Writes `value` in decimal, right-aligned, over a 20-byte field of `'0'`s;
/// returns where its first digit went.
fn put_digits(field: &mut [u8], mut value: u64) -> usize {
    let mut at = field.len();
    while value > 0 {
        at -= 1;
        field[at] = b'0' + (value % 10) as u8;
        value /= 10;
    }
    at
}

/// What an xApp wants delivered.
#[derive(Debug, Clone)]
pub struct SubscriptionSpec {
    /// E2 report period requested from the RAN agent, in milliseconds.
    /// `None` = the app does not consume E2 telemetry directly.
    pub report_period_ms: Option<u32>,
    /// Router topics the app listens on.
    pub topics: Vec<String>,
}

impl SubscriptionSpec {
    /// Telemetry subscription at the given period.
    pub fn telemetry(period_ms: u32) -> Self {
        SubscriptionSpec { report_period_ms: Some(period_ms), topics: Vec::new() }
    }

    /// Topic-only subscription.
    pub fn topics_only(topics: &[&str]) -> Self {
        SubscriptionSpec {
            report_period_ms: None,
            topics: topics.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Adds a topic to listen on.
    pub fn with_topic(mut self, topic: &str) -> Self {
        self.topics.push(topic.to_string());
        self
    }
}

struct XAppEntry {
    app: Box<dyn XApp>,
    request_id: Option<RicRequestId>,
    /// Per-connection "subscription request went out" flags, indexed by
    /// conn token (every telemetry xApp subscribes on every agent).
    subscribed: Vec<bool>,
    spec: SubscriptionSpec,
    mailboxes: Vec<Mailbox>,
    /// Handler latency, labelled `xapp="<name>"`.
    handler_latency: Histogram,
    /// The identity the app runs under; every publish, topic mailbox and
    /// control emission is checked against its grants.
    scope: RouterHandle,
}

/// One topic an xApp listens on.
struct Mailbox {
    topic: String,
    rx: Receiver<Vec<u8>>,
    /// Messages queued when this pump's relay reached the xApp: what it is
    /// handed now. Anything its own handlers publish to it waits a pump.
    due: usize,
}

struct AgentConn {
    transport: Box<dyn E2Transport>,
    setup_done: bool,
    /// The gNB behind this connection, learned from its E2 Setup Request.
    gnb_id: Option<GnbId>,
    /// Cells this agent serves (announced in E2 Setup); control actions
    /// pinned to one of these cells route here.
    cells: Vec<CellId>,
    /// Send instants of Control Requests still awaiting their ack on this
    /// connection, each with the causal trace id of the detection it
    /// mitigates (when traced). E2AP Control Acks carry no correlation id,
    /// but each transport is an ordered queue and the agent acks every
    /// request on receipt, so the oldest in-flight send owns the next ack —
    /// which is how the ack is correlated back to its incident trace.
    inflight_controls: VecDeque<(Instant, Option<u64>)>,
    /// Send→ack latency, labelled `agent="gnb-<id>"` (set at setup).
    ack_latency: Option<Histogram>,
    /// This conn has buffered egress awaiting a flush retry (dedup flag
    /// for the `egress_pending` list).
    egress_pending: bool,
    /// `(start, end)` of this agent's report windows held in the SDL,
    /// oldest first.
    stored_windows: VecDeque<(Timestamp, Timestamp)>,
}

/// Counters from one pump iteration (a per-call delta). Cumulative totals
/// live in the `xsec-obs` registry under `xsec_ric_*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// E2 PDUs processed.
    pub pdus: u64,
    /// Telemetry records delivered to xApps.
    pub records_delivered: u64,
    /// Topic messages delivered to xApps.
    pub messages_delivered: u64,
    /// Control actions shipped to the RAN.
    pub controls_sent: u64,
    /// Connections visited this iteration (woken + polled). The reactor
    /// guarantee is that this tracks *active* conns, not total conns.
    pub conns_scanned: u64,
}

/// Registry-backed platform counters (the single observability path for
/// cumulative totals).
struct PlatformMetrics {
    pdus: Counter,
    indications: Counter,
    records_delivered: Counter,
    messages_delivered: Counter,
    controls_sent: Counter,
    controls_acked: Counter,
    controls_failed: Counter,
    /// Actions pinned to a cell no connected agent serves (shipped to the
    /// first agent as a fallback).
    controls_unroutable: Counter,
    /// Extra Control Request copies fanned out to neighbour-cell agents.
    controls_broadcast: Counter,
    /// Frames dropped RIC-side on a full egress queue (never blocks).
    egress_dropped: Counter,
    /// Connections visited across all pumps (O(active) when event-driven).
    conns_scanned: Counter,
    /// Entries currently in the `mobiflow` SDL namespace.
    sdl_entries: Gauge,
    /// Report windows evicted from it to make room for newer ones.
    sdl_evicted: Counter,
    decode_latency: Histogram,
}

impl PlatformMetrics {
    fn register(obs: &Obs) -> Self {
        PlatformMetrics {
            pdus: obs.counter("xsec_ric_pdus_total", &[]),
            indications: obs.counter("xsec_ric_indications_total", &[]),
            records_delivered: obs.counter("xsec_ric_records_delivered_total", &[]),
            messages_delivered: obs.counter("xsec_ric_messages_delivered_total", &[]),
            controls_sent: obs.counter("xsec_ric_controls_sent_total", &[]),
            controls_acked: obs.counter("xsec_ric_controls_acked_total", &[]),
            controls_failed: obs.counter("xsec_ric_controls_failed_total", &[]),
            controls_unroutable: obs.counter("xsec_ric_controls_unroutable_total", &[]),
            controls_broadcast: obs.counter("xsec_ric_controls_broadcast_total", &[]),
            egress_dropped: obs.counter("xsec_ric_egress_dropped_total", &[]),
            conns_scanned: obs.counter("xsec_ric_pump_conns_scanned_total", &[]),
            sdl_entries: obs.gauge("xsec_sdl_entries", &[("namespace", SDL_MOBIFLOW)]),
            sdl_evicted: obs.counter("xsec_sdl_evicted_total", &[("namespace", SDL_MOBIFLOW)]),
            decode_latency: obs.histogram("xsec_e2_decode_latency_us", &[]),
        }
    }
}

/// The near-real-time RIC.
pub struct RicPlatform {
    sdl: SharedDataLayer,
    conns: Vec<AgentConn>,
    xapps: Vec<XAppEntry>,
    next_requestor: u16,
    control_queue: Vec<ControlOut>,
    /// The reactor's ready-queue: transports wake their token here.
    wake: WakeSet,
    /// Tokens of transports that cannot signal readiness (scanned every
    /// pump). Kept small: only real sockets land here.
    polled: Vec<usize>,
    /// Conn tokens with buffered egress awaiting a flush retry.
    egress_pending: Vec<usize>,
    /// Reusable scratch for draining the ready-queue.
    ready_scratch: Vec<usize>,
    /// A new xApp registered: (re-)issue subscriptions on the next pump.
    subs_dirty: bool,
    /// Cell adjacency for control fan-out (QuarantineCell broadcast).
    neighbours: HashMap<CellId, Vec<CellId>>,
    /// The conn a control pinned to a cell routes to: the lowest token among
    /// the set-up agents announcing the cell. Filled at E2 Setup, so routing
    /// a control does not walk the connections.
    cell_owner: HashMap<CellId, usize>,
    /// Reusable buffer for the SDL key of the window being stored/evicted.
    window_key: String,
    obs: Obs,
    metrics: PlatformMetrics,
    /// The platform's own router identity, used for the relays it
    /// publishes itself (the `control-acks` ack fan-out); also how it
    /// reaches the router to register and seal.
    platform_scope: RouterHandle,
}

impl Default for RicPlatform {
    fn default() -> Self {
        Self::new()
    }
}

impl RicPlatform {
    /// An empty platform with a private (silent) observability handle.
    pub fn new() -> Self {
        Self::with_obs(Obs::new())
    }

    /// An empty platform recording into `obs`.
    pub fn with_obs(obs: Obs) -> Self {
        let metrics = PlatformMetrics::register(&obs);
        let router = Router::new();
        router.attach_obs(&obs);
        let platform_scope = router
            .register(
                XAppIdentity::named("ric-platform"),
                Grants::none().publish("control-acks"),
            )
            .expect("fresh router cannot refuse the platform identity");
        RicPlatform {
            sdl: SharedDataLayer::new(),
            conns: Vec::new(),
            xapps: Vec::new(),
            next_requestor: 1,
            control_queue: Vec::new(),
            wake: WakeSet::new(),
            polled: Vec::new(),
            egress_pending: Vec::new(),
            ready_scratch: Vec::new(),
            subs_dirty: false,
            neighbours: HashMap::new(),
            cell_owner: HashMap::new(),
            window_key: String::new(),
            obs,
            metrics,
            platform_scope,
        }
    }

    /// Does nothing: deny-by-default is the router's only mode. Kept
    /// because the frozen `benchmark/` package calls it; goes once a
    /// benchmark-only PR stops doing so.
    pub fn harden(&self) {}

    /// Closes identity registration on the router. Call once the
    /// deployment is fully wired so nothing can mint an identity mid-run.
    pub fn seal(&self) {
        self.platform_scope.router().seal();
    }

    /// Registers `identity` with `grants` on the platform router without
    /// hosting an xApp for it — how out-of-process principals (the SMO's
    /// A1 client) obtain their scoped handle.
    pub fn register_identity(
        &self,
        identity: XAppIdentity,
        grants: Grants,
    ) -> std::result::Result<RouterHandle, RegisterError> {
        self.platform_scope.router().register(identity, grants)
    }

    /// The platform's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The platform's SDL handle.
    pub fn sdl(&self) -> SharedDataLayer {
        self.sdl.clone()
    }

    /// Indications received so far.
    pub fn indications_seen(&self) -> u64 {
        self.metrics.indications.get()
    }

    /// Control Requests acknowledged as accepted.
    pub fn controls_acked(&self) -> u64 {
        self.metrics.controls_acked.get()
    }

    /// Control Requests acknowledged as refused by the agent.
    pub fn controls_failed(&self) -> u64 {
        self.metrics.controls_failed.get()
    }

    /// Control actions pinned to a cell no connected agent serves.
    pub fn controls_unroutable(&self) -> u64 {
        self.metrics.controls_unroutable.get()
    }

    /// Extra Control Request copies fanned out to neighbour-cell agents.
    pub fn controls_broadcast(&self) -> u64 {
        self.metrics.controls_broadcast.get()
    }

    /// Frames dropped RIC-side on a full egress queue.
    pub fn egress_dropped(&self) -> u64 {
        self.metrics.egress_dropped.get()
    }

    /// Connected agents (any setup state).
    pub fn agent_count(&self) -> usize {
        self.conns.len()
    }

    /// Declares `cell`'s neighbours for control fan-out: a broadcast
    /// control pinned to `cell` is also delivered to every agent serving
    /// one of `neighbours`.
    pub fn set_neighbours(&mut self, cell: CellId, neighbours: Vec<CellId>) {
        self.neighbours.insert(cell, neighbours);
    }

    /// Attaches a RAN agent connection (the RIC end of an E2 transport),
    /// registering it on the reactor's ready-queue.
    pub fn add_agent(&mut self, mut transport: Box<dyn E2Transport>) {
        let token = self.conns.len();
        match transport.register_waker(self.wake.waker(token)) {
            Readiness::Event => {}
            Readiness::Polled => self.polled.push(token),
        }
        self.conns.push(AgentConn {
            transport,
            setup_done: false,
            gnb_id: None,
            cells: Vec::new(),
            inflight_controls: VecDeque::new(),
            ack_latency: None,
            egress_pending: false,
            stored_windows: VecDeque::new(),
        });
    }

    /// Registers an xApp under its own router identity (named by
    /// `XApp::name()`) carrying `grants`: every publish, topic mailbox,
    /// and control emission from the app is checked against them. Its E2
    /// subscriptions (one per connected agent) are negotiated on the next
    /// pump after each agent completes setup.
    pub fn register_xapp_scoped(
        &mut self,
        mut app: Box<dyn XApp>,
        spec: SubscriptionSpec,
        grants: Grants,
    ) -> std::result::Result<(), RegisterError> {
        let scope = self.register_identity(XAppIdentity::named(app.name()), grants)?;
        // Mailboxes go through the handle: a topic outside the app's
        // subscribe grants yields a dead mailbox (and a counted denial),
        // so ungranted messages simply never arrive.
        let mailboxes = spec
            .topics
            .iter()
            .map(|t| Mailbox { topic: t.clone(), rx: scope.subscribe(t), due: 0 })
            .collect();
        let request_id = spec.report_period_ms.map(|_| {
            let id = RicRequestId { requestor: self.next_requestor, instance: 1 };
            self.next_requestor += 1;
            id
        });
        let handler_latency =
            self.obs.histogram("xsec_ric_handler_latency_us", &[("xapp", app.name())]);
        let mut control_out = Vec::new();
        let mut ctx = XAppContext { sdl: &self.sdl, scope: &scope, control_out: &mut control_out };
        app.on_start(&mut ctx);
        self.control_queue.extend(control_out);
        self.xapps.push(XAppEntry {
            app,
            request_id,
            subscribed: Vec::new(),
            spec,
            mailboxes,
            handler_latency,
            scope,
        });
        self.subs_dirty = true;
        Ok(())
    }

    /// Sends one frame on conn `ci`, counting an egress drop and queueing
    /// a flush retry when the transport buffered part of it. Never blocks.
    fn send_on(&mut self, ci: usize, frame: &[u8]) -> Result<SendOutcome> {
        let outcome = self.conns[ci].transport.send(frame)?;
        if outcome == SendOutcome::Dropped {
            self.metrics.egress_dropped.inc();
        }
        if !self.conns[ci].transport.flush()? && !self.conns[ci].egress_pending {
            self.conns[ci].egress_pending = true;
            self.egress_pending.push(ci);
        }
        Ok(outcome)
    }

    /// Gives up a drain at `ready[from]`: the woken tokens from there on go
    /// back on the ready-queue. `drain_into` cleared their flags and their
    /// peers may be waiting on us rather than about to send, so nothing else
    /// would ever wake them. Polled tokens (`ready[woken..]`) need no such
    /// help: every pump scans them.
    fn abandon_drain(&mut self, ready: Vec<usize>, from: usize, woken: usize) {
        for &token in ready[..woken].iter().skip(from) {
            self.wake.mark_ready(token);
        }
        self.ready_scratch = ready;
    }

    /// One pump iteration: drain ready transports, dispatch, ship controls.
    pub fn pump(&mut self) -> Result<PumpStats> {
        let mut stats = PumpStats::default();

        // 0. Retry buffered egress from earlier iterations.
        if !self.egress_pending.is_empty() {
            let pending = std::mem::take(&mut self.egress_pending);
            for ci in pending {
                self.conns[ci].egress_pending = false;
                if !self.conns[ci].transport.flush()? {
                    self.conns[ci].egress_pending = true;
                    self.egress_pending.push(ci);
                }
            }
        }

        // 1. Drain only the connections with (possibly) pending frames:
        //    tokens woken since the last pump, plus the polled set.
        let mut ready = std::mem::take(&mut self.ready_scratch);
        ready.clear();
        self.wake.drain_into(&mut ready);
        let woken = ready.len();
        ready.extend_from_slice(&self.polled);
        for i in 0..ready.len() {
            let ci = ready[i];
            stats.conns_scanned += 1;
            self.metrics.conns_scanned.inc();
            loop {
                let frame = match self.conns[ci].transport.try_recv() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        // A transport that failed has nothing left to read.
                        self.abandon_drain(ready, i + 1, woken);
                        return Err(e);
                    }
                };
                stats.pdus += 1;
                self.metrics.pdus.inc();
                let decode_start = Instant::now();
                let pdu = match E2apPdu::decode(&frame) {
                    Ok(p) => p,
                    Err(e) => {
                        self.abandon_drain(ready, i, woken);
                        return Err(e);
                    }
                };
                self.metrics.decode_latency.observe_duration(decode_start.elapsed());
                if let Err(e) = self.handle_pdu(ci, pdu, &mut stats) {
                    self.abandon_drain(ready, i, woken);
                    return Err(e);
                }
            }
        }
        self.ready_scratch = ready;

        // 2. A freshly registered xApp subscribes on every setup agent.
        if self.subs_dirty {
            self.subs_dirty = false;
            for ci in 0..self.conns.len() {
                self.issue_subscriptions_for(ci)?;
            }
        }

        // 3. Relay topic messages into xApps, mailbox by mailbox, straight
        //    out of the queues (held aside so a handler can borrow the topic).
        for ai in 0..self.xapps.len() {
            let mut mailboxes = std::mem::take(&mut self.xapps[ai].mailboxes);
            for mailbox in &mut mailboxes {
                mailbox.due = mailbox.rx.len();
            }
            for Mailbox { topic, rx, due } in &mailboxes {
                for payload in rx.try_iter().take(*due) {
                    stats.messages_delivered += 1;
                    self.metrics.messages_delivered.inc();
                    self.invoke(ai, |app, ctx| app.on_message(ctx, topic, &payload));
                }
            }
            self.xapps[ai].mailboxes = mailboxes;
        }

        // 4. Ship queued control actions, each routed to the agent serving
        //    its target cell. Actions with no (or an unknown) cell fall back
        //    to the first connected agent; unknown cells are counted as
        //    unroutable so misconfigurations show up in the metrics.
        //    Broadcast actions additionally fan out to every agent serving
        //    a declared neighbour of the target cell.
        if !self.control_queue.is_empty() {
            if let Some(fallback) = self.conns.iter().position(|c| c.setup_done) {
                let queued = std::mem::take(&mut self.control_queue);
                for ControlOut { cell, trace, payload, broadcast } in queued {
                    let owner = match cell {
                        Some(cell) => match self.cell_owner.get(&cell) {
                            Some(&owner) => owner,
                            None => {
                                self.metrics.controls_unroutable.inc();
                                fallback
                            }
                        },
                        None => fallback,
                    };
                    let mut targets = vec![owner];
                    if broadcast {
                        if let Some(neigh) = cell.and_then(|c| self.neighbours.get(&c)) {
                            for ncell in neigh {
                                if let Some(&ci) = self.cell_owner.get(ncell) {
                                    if !targets.contains(&ci) {
                                        targets.push(ci);
                                    }
                                }
                            }
                        }
                    }
                    let frame = E2apPdu::ControlRequest {
                        ran_function: RAN_FUNCTION_MOBIFLOW,
                        payload,
                    }
                    .encode();
                    for (extra, ci) in targets.into_iter().enumerate() {
                        // Only a frame actually queued earns an inflight
                        // slot — a dropped one gets no ack, and a ghost
                        // entry would skew FIFO correlation forever.
                        if self.send_on(ci, &frame)? == SendOutcome::Sent {
                            self.conns[ci]
                                .inflight_controls
                                .push_back((Instant::now(), trace));
                            stats.controls_sent += 1;
                            self.metrics.controls_sent.inc();
                            if extra > 0 {
                                self.metrics.controls_broadcast.inc();
                            }
                        }
                    }
                }
            }
        }

        Ok(stats)
    }

    fn handle_pdu(&mut self, ci: usize, pdu: E2apPdu, stats: &mut PumpStats) -> Result<()> {
        match pdu {
            E2apPdu::SetupRequest { gnb_id, ran_functions, cells } => {
                let accepted: Vec<u32> = ran_functions
                    .into_iter()
                    .filter(|f| *f == RAN_FUNCTION_MOBIFLOW)
                    .collect();
                let ack_latency = self.obs.histogram(
                    "xsec_ric_control_ack_latency_us",
                    &[("agent", &format!("gnb-{}", gnb_id.0))],
                );
                let conn = &mut self.conns[ci];
                conn.gnb_id = Some(gnb_id);
                conn.ack_latency = Some(ack_latency);
                conn.setup_done = true;
                let released = std::mem::replace(&mut conn.cells, cells);
                if released.is_empty() {
                    self.claim_cells(ci);
                } else {
                    // A repeated Setup: some other agent may announce a cell
                    // this one no longer does.
                    self.cell_owner.clear();
                    (0..self.conns.len()).for_each(|ci| self.claim_cells(ci));
                }
                self.send_on(ci, &E2apPdu::SetupResponse { accepted }.encode())?;
                // Subscribe this agent for every telemetry xApp right away
                // (same-pump, preserving the 3-round handshake cadence).
                self.issue_subscriptions_for(ci)
            }
            E2apPdu::SubscriptionResponse { request_id, accepted } => {
                if let Some(entry) =
                    self.xapps.iter_mut().find(|x| x.request_id == Some(request_id))
                {
                    if !accepted {
                        return Err(XsecError::Ric(format!(
                            "agent refused subscription for xApp {:?}",
                            entry.app.name()
                        )));
                    }
                }
                Ok(())
            }
            E2apPdu::Indication { request_id, payload, .. } => {
                self.metrics.indications.inc();
                let kpm = KpmIndication::decode(&payload)?;
                let (window_start, window_end) = (kpm.window_start, kpm.window_end);
                let records = kpm.into_records();
                self.store_window(ci, window_start, window_end, payload);
                if let Some(ai) =
                    self.xapps.iter().position(|x| x.request_id == Some(request_id))
                {
                    stats.records_delivered += records.len() as u64;
                    self.metrics.records_delivered.add(records.len() as u64);
                    self.invoke(ai, |app, ctx| app.on_records(ctx, &records, window_end));
                }
                Ok(())
            }
            E2apPdu::ControlAck { success, .. } => {
                let conn = &mut self.conns[ci];
                let mut trace = None;
                if let Some((sent_at, sent_trace)) = conn.inflight_controls.pop_front() {
                    if let Some(h) = &conn.ack_latency {
                        h.observe_duration(sent_at.elapsed());
                    }
                    trace = sent_trace;
                }
                if success {
                    self.metrics.controls_acked.inc();
                } else {
                    self.metrics.controls_failed.inc();
                }
                // Relay the outcome to xApps (the mitigator closes its
                // delivery loop off this topic). Traced sends append the
                // trace id so subscribers can close the causal chain; the
                // bare one-byte form is kept for untraced sends.
                if let Some(trace) = trace {
                    let mut payload = [0u8; 9];
                    payload[0] = success as u8;
                    payload[1..].copy_from_slice(&trace.to_be_bytes());
                    self.platform_scope.publish("control-acks", &payload);
                } else {
                    self.platform_scope.publish("control-acks", &[success as u8]);
                }
                Ok(())
            }
            other => Err(XsecError::Ric(format!("unexpected PDU at RIC: {other:?}"))),
        }
    }

    /// Enters the cells conn `ci` announced at Setup into the routing map;
    /// of two agents announcing one cell the lower token keeps it.
    fn claim_cells(&mut self, ci: usize) {
        for cell in &self.conns[ci].cells {
            let owner = self.cell_owner.entry(*cell).or_insert(ci);
            *owner = (*owner).min(ci);
        }
    }

    /// Persists one report window of conn `ci` to the SDL: the KPM payload
    /// exactly as received, under a key naming the agent and the window —
    /// so the same window reported to a second subscriber overwrites itself
    /// — and evicts the agent's oldest window beyond the retention. The
    /// platform is the namespace's only writer, so it keeps the entry gauge
    /// by what it adds and evicts.
    fn store_window(&mut self, ci: usize, start: Timestamp, end: Timestamp, payload: Vec<u8>) {
        let stored = &mut self.conns[ci].stored_windows;
        // Newest first: a second subscriber's copy is of the latest window.
        if !stored.iter().rev().any(|window| *window == (start, end)) {
            stored.push_back((start, end));
            if stored.len() > SDL_WINDOWS_PER_AGENT {
                let (old_start, old_end) = stored.pop_front().expect("just pushed");
                write_window_key(&mut self.window_key, ci, old_start, old_end);
                self.sdl.delete(SDL_MOBIFLOW, &self.window_key);
                self.metrics.sdl_evicted.inc();
            } else {
                self.metrics.sdl_entries.add(1);
            }
        }
        write_window_key(&mut self.window_key, ci, start, end);
        self.sdl.set(SDL_MOBIFLOW, &self.window_key, payload);
    }

    /// Sends every telemetry xApp's subscription request to conn `ci`
    /// (idempotent per (xApp, conn); no-op before its setup completes).
    fn issue_subscriptions_for(&mut self, ci: usize) -> Result<()> {
        if !self.conns[ci].setup_done {
            return Ok(());
        }
        for ai in 0..self.xapps.len() {
            let entry = &mut self.xapps[ai];
            let (Some(request_id), Some(period)) =
                (entry.request_id, entry.spec.report_period_ms)
            else {
                continue;
            };
            if entry.subscribed.len() <= ci {
                entry.subscribed.resize(ci + 1, false);
            }
            if entry.subscribed[ci] {
                continue;
            }
            let frame = E2apPdu::SubscriptionRequest {
                request_id,
                ran_function: RAN_FUNCTION_MOBIFLOW,
                report_period_ms: period,
                actions: vec![xsec_e2::RicAction::Report],
            }
            .encode();
            match self.send_on(ci, &frame)? {
                SendOutcome::Sent => self.xapps[ai].subscribed[ci] = true,
                // Egress full: leave the flag unset and retry next pump.
                SendOutcome::Dropped => self.subs_dirty = true,
            }
        }
        Ok(())
    }

    fn invoke(&mut self, ai: usize, f: impl FnOnce(&mut dyn XApp, &mut XAppContext<'_>)) {
        let mut control_out = Vec::new();
        let start = Instant::now();
        {
            let entry = &mut self.xapps[ai];
            let mut ctx =
                XAppContext { sdl: &self.sdl, scope: &entry.scope, control_out: &mut control_out };
            f(entry.app.as_mut(), &mut ctx);
        }
        self.xapps[ai].handler_latency.observe_duration(start.elapsed());
        self.control_queue.extend(control_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsec_e2::{in_proc_pair, RicAgent, RicAgentConfig};
    use xsec_mobiflow::UeMobiFlow;
    use xsec_proto::{Direction, MessageKind};
    use xsec_types::{CellId, GnbId, Rnti};

    fn record(id: u64, ts: u64) -> UeMobiFlow {
        UeMobiFlow {
            msg_id: id,
            timestamp: Timestamp(ts),
            cell: CellId(1),
            rnti: Rnti(1),
            du_ue_id: 1,
            direction: Direction::Uplink,
            msg: MessageKind::RrcSetupRequest,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
        }
    }

    struct CountingApp {
        name: &'static str,
        records: usize,
        publishes_to: Option<String>,
    }

    /// A telemetry consumer that publishes nothing (and so needs no grant).
    fn counting_app() -> Box<dyn XApp> {
        Box::new(CountingApp { name: "counting", records: 0, publishes_to: None })
    }

    impl XApp for CountingApp {
        fn name(&self) -> &str {
            self.name
        }

        fn on_records(
            &mut self,
            ctx: &mut XAppContext<'_>,
            records: &[UeMobiFlow],
            _window_end: Timestamp,
        ) {
            self.records += records.len();
            if let Some(topic) = &self.publishes_to {
                ctx.publish(topic, &(records.len() as u32).to_be_bytes());
            }
        }
    }

    struct ListeningApp {
        heard: std::sync::Arc<parking_lot::Mutex<Vec<Vec<u8>>>>,
    }

    impl XApp for ListeningApp {
        fn name(&self) -> &str {
            "listening"
        }

        fn on_records(
            &mut self,
            _ctx: &mut XAppContext<'_>,
            _records: &[UeMobiFlow],
            _window_end: Timestamp,
        ) {
        }

        fn on_message(&mut self, _ctx: &mut XAppContext<'_>, _topic: &str, payload: &[u8]) {
            self.heard.lock().push(payload.to_vec());
        }
    }

    /// Every record recoverable from the report windows the SDL holds.
    fn records_in_sdl(platform: &RicPlatform) -> Vec<UeMobiFlow> {
        platform
            .sdl()
            .scan("mobiflow")
            .into_iter()
            .flat_map(|(_, value)| KpmIndication::decode(&value).unwrap().into_records())
            .collect()
    }

    #[test]
    fn end_to_end_telemetry_reaches_the_xapp_and_sdl() {
        // Handshake: platform sees setup, answers; issues subscription;
        // agent answers.
        let (mut platform, mut agent) =
            one_agent_platform(counting_app(), Grants::none());
        assert_eq!(agent.subscription_count(), 1);

        // Telemetry flows.
        let sent = [record(0, 10), record(1, 20)];
        for r in &sent {
            agent.push_record(r.clone());
        }
        agent.poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(stats.records_delivered, 2);
        assert_eq!(platform.indications_seen(), 1);
        // One SDL entry for the window, holding exactly what was sent.
        assert_eq!(platform.sdl().len("mobiflow"), 1);
        assert_eq!(records_in_sdl(&platform), sent);
        assert!(platform.obs().snapshot().histogram_count("xsec_ric_handler_latency_us") >= 1);
    }

    #[test]
    fn a_window_reported_to_two_subscribers_is_stored_once() {
        let (mut platform, mut agent) =
            one_agent_platform(counting_app(), Grants::none());
        platform
            .register_xapp_scoped(
                Box::new(CountingApp { name: "second", records: 0, publishes_to: None }),
                SubscriptionSpec::telemetry(100),
                Grants::none(),
            )
            .unwrap();
        platform.pump().unwrap();
        agent.poll(Timestamp(0)).unwrap();
        platform.pump().unwrap();
        assert_eq!(agent.subscription_count(), 2);

        agent.push_record(record(0, 10));
        agent.poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(stats.records_delivered, 2, "one delivery per subscriber");
        assert_eq!(platform.sdl().len("mobiflow"), 1);
        assert_eq!(records_in_sdl(&platform), [record(0, 10)]);
    }

    #[test]
    fn the_mobiflow_namespace_keeps_the_newest_windows_per_agent() {
        let (mut platform, mut agents) =
            n_agent_platform(counting_app(), Grants::none(), 2);
        let entries = platform.obs().gauge("xsec_sdl_entries", &[("namespace", "mobiflow")]);
        let extra = 5;
        let periods = (SDL_WINDOWS_PER_AGENT + extra) as u64;
        for period in 1..=periods {
            for (a, agent) in agents.iter_mut().enumerate() {
                agent.push_record(record(period * 2 + a as u64, period * 100_000 - 1));
                agent.poll(Timestamp(period * 100_000)).unwrap();
            }
            platform.pump().unwrap();
            let want = 2 * (period as usize).min(SDL_WINDOWS_PER_AGENT);
            assert_eq!(platform.sdl().len("mobiflow"), want);
            assert_eq!(entries.get(), want as i64);
        }
        assert_eq!(
            platform.obs().snapshot().counter_total("xsec_sdl_evicted_total"),
            2 * extra as u64
        );
        // What is left is each agent's newest windows, oldest evicted first.
        let mut ids: Vec<u64> = records_in_sdl(&platform).iter().map(|r| r.msg_id).collect();
        ids.sort_unstable();
        let first_kept = extra as u64 + 1;
        let want: Vec<u64> = (first_kept * 2..=periods * 2 + 1).collect();
        assert_eq!(ids, want);

        // Byte for byte what the `format!`-built key and the agent's payload
        // stored before the key was written in place: agent by agent, each
        // one's windows in time order.
        let mut listing = Vec::new();
        for conn in 0..2u64 {
            for period in first_kept..=periods {
                let (start, end) = ((period - 1) * 100_000, period * 100_000);
                listing.push((
                    format!("{conn}/{end:020}/{start:020}"),
                    KpmIndication::encode_records(
                        CellId(conn as u32 + 1),
                        Timestamp(start),
                        Timestamp(end),
                        &[record(period * 2 + conn, end - 1)],
                    ),
                ));
            }
        }
        assert_eq!(platform.sdl().scan("mobiflow"), listing);
    }

    proptest! {
        #[test]
        fn prop_window_keys_are_the_formatted_ones(
            conn in any::<usize>(),
            start in any::<u64>(),
            end in any::<u64>(),
            narrow in any::<bool>(),
        ) {
            // Half the draws small, so short and zero fields are common.
            let (conn, start, end) =
                if narrow { (conn % 300, start % 1_000, end % 10) } else { (conn, start, end) };
            let mut key = String::from("left over");
            write_window_key(&mut key, conn, Timestamp(start), Timestamp(end));
            prop_assert_eq!(key, format!("{conn}/{end:020}/{start:020}"));
        }
    }

    #[test]
    fn idle_connections_are_not_scanned() {
        // The reactor property: pump cost follows *active* conns. Wire 8
        // (then 256) agents, let the handshakes settle, then have exactly
        // one agent produce telemetry — the next pump must visit only that
        // conn.
        for n in [8, 256] {
            let (mut platform, mut agents) = n_agent_platform(counting_app(), Grants::none(), n);

            // Quiesce: no agent has anything pending.
            let idle = platform.pump().unwrap();
            assert_eq!(idle.conns_scanned, 0, "{n} agents: idle pump visited conns");

            // One active agent wakes exactly one conn.
            agents[3].push_record(record(0, 10));
            agents[3].poll(Timestamp(100_000)).unwrap();
            let stats = platform.pump().unwrap();
            assert_eq!(stats.conns_scanned, 1, "{n} agents");
            assert_eq!(stats.records_delivered, 1, "{n} agents");
        }
    }

    #[test]
    fn a_failed_pump_does_not_strand_the_connections_after_the_fault() {
        // Conn 0 sends garbage; conn 1's Setup Request is already queued and
        // its agent will send nothing more until it is answered.
        let mut platform = RicPlatform::new();
        let (mut garbage_end, ric_end) = in_proc_pair();
        garbage_end.send(&[0xFF]).unwrap();
        platform.add_agent(Box::new(ric_end));
        let (agent_end, ric_end) = in_proc_pair();
        let mut agent =
            RicAgent::new(RicAgentConfig { gnb_id: GnbId(2), cell: CellId(2) }, agent_end)
                .unwrap();
        platform.add_agent(Box::new(ric_end));

        assert!(platform.pump().is_err(), "the garbage frame fails the first pump");
        platform.pump().unwrap();
        agent.poll(Timestamp(0)).unwrap();
        assert!(agent.is_setup(), "conn 1 was drained from the ready-queue and never revisited");
    }

    #[test]
    fn topic_messages_flow_between_xapps() {
        let heard = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (agent_end, ric_end) = in_proc_pair();
        let mut agent =
            RicAgent::new(RicAgentConfig { gnb_id: GnbId(1), cell: CellId(1) }, agent_end)
                .unwrap();
        let mut platform = RicPlatform::new();
        platform.add_agent(Box::new(ric_end));
        platform
            .register_xapp_scoped(
                Box::new(ListeningApp { heard: heard.clone() }),
                SubscriptionSpec::topics_only(&["anomalies"]),
                Grants::none().subscribe("anomalies"),
            )
            .unwrap();
        platform
            .register_xapp_scoped(
                Box::new(CountingApp {
                    name: "counting",
                    records: 0,
                    publishes_to: Some("anomalies".into()),
                }),
                SubscriptionSpec::telemetry(100),
                Grants::none().publish("anomalies"),
            )
            .unwrap();

        platform.pump().unwrap();
        agent.poll(Timestamp(0)).unwrap();
        platform.pump().unwrap();
        agent.poll(Timestamp(0)).unwrap();
        platform.pump().unwrap();

        agent.push_record(record(0, 10));
        agent.poll(Timestamp(100_000)).unwrap();
        // The publish happens while records are dispatched (step 1) and the
        // relay runs later in the same pump (step 3) — one pump suffices.
        let s1 = platform.pump().unwrap();
        let s2 = platform.pump().unwrap();
        assert_eq!(s1.messages_delivered + s2.messages_delivered, 1);
        assert_eq!(heard.lock().len(), 1);
    }

    #[test]
    fn control_actions_reach_the_agent() {
        struct Controller;
        impl XApp for Controller {
            fn name(&self) -> &str {
                "controller"
            }
            fn on_records(
                &mut self,
                ctx: &mut XAppContext<'_>,
                _records: &[UeMobiFlow],
                _window_end: Timestamp,
            ) {
                ctx.send_control("*", ControlOut { payload: b"throttle".to_vec(), ..Default::default() });
            }
        }
        let (mut platform, mut agent) =
            one_agent_platform(Box::new(Controller), Grants::none().control_all());

        agent.push_record(record(0, 1));
        agent.poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(stats.controls_sent, 1);
        agent.poll(Timestamp(100_000)).unwrap();
        assert_eq!(agent.take_control_requests(), vec![b"throttle".to_vec()]);

        // The agent acked on receipt; the next pump correlates it, records
        // the send→ack latency, and relays the outcome on "control-acks".
        let acks = ack_observer(&platform);
        platform.pump().unwrap();
        assert_eq!(platform.controls_acked(), 1);
        assert_eq!(platform.controls_failed(), 0);
        assert_eq!(acks.try_recv().unwrap(), vec![1]);
        // The send→ack latency lands in the per-agent histogram.
        assert_eq!(
            platform.obs().snapshot().histogram_count("xsec_ric_control_ack_latency_us"),
            1
        );
    }

    #[test]
    fn traced_controls_relay_their_trace_with_the_ack() {
        struct TracedController;
        impl XApp for TracedController {
            fn name(&self) -> &str {
                "traced-controller"
            }
            fn on_records(
                &mut self,
                ctx: &mut XAppContext<'_>,
                _records: &[UeMobiFlow],
                _window_end: Timestamp,
            ) {
                ctx.send_control(
                    "*",
                    ControlOut {
                        trace: Some(0x0102_0304_0506_0708),
                        payload: b"throttle".to_vec(),
                        ..Default::default()
                    },
                );
            }
        }
        let (mut platform, mut agent) =
            one_agent_platform(Box::new(TracedController), Grants::none().control_all());

        agent.push_record(record(0, 1));
        agent.poll(Timestamp(100_000)).unwrap();
        platform.pump().unwrap();
        agent.poll(Timestamp(100_000)).unwrap();

        let acks = ack_observer(&platform);
        platform.pump().unwrap();
        let payload = acks.try_recv().unwrap();
        assert_eq!(payload.len(), 9, "traced acks carry [success][trace BE]");
        assert_eq!(payload[0], 1);
        assert_eq!(
            u64::from_be_bytes(payload[1..9].try_into().unwrap()),
            0x0102_0304_0506_0708
        );
    }

    /// A `control-acks` mailbox held by an identity granted only that.
    fn ack_observer(platform: &RicPlatform) -> Receiver<Vec<u8>> {
        platform
            .register_identity(
                XAppIdentity::named("observer"),
                Grants::none().subscribe("control-acks"),
            )
            .unwrap()
            .subscribe("control-acks")
    }

    /// An xApp that pins each control action to a configured cell.
    struct CellController {
        cell: CellId,
        broadcast: bool,
    }

    impl XApp for CellController {
        fn name(&self) -> &str {
            "cell-controller"
        }
        fn on_records(
            &mut self,
            ctx: &mut XAppContext<'_>,
            _records: &[UeMobiFlow],
            _window_end: Timestamp,
        ) {
            ctx.send_control(
                "*",
                ControlOut {
                    cell: Some(self.cell),
                    trace: None,
                    payload: b"act".to_vec(),
                    broadcast: self.broadcast,
                },
            );
        }
    }

    /// Wires `n` agents (cells 1..=n) to one platform and completes all
    /// handshakes plus the telemetry subscription (served by every agent).
    fn n_agent_platform(
        app: Box<dyn XApp>,
        grants: Grants,
        n: u32,
    ) -> (RicPlatform, Vec<RicAgent<xsec_e2::InProcTransport>>) {
        let mut platform = RicPlatform::new();
        let mut agents = Vec::new();
        for i in 0..n {
            let (agent_end, ric_end) = in_proc_pair();
            agents.push(
                RicAgent::new(
                    RicAgentConfig { gnb_id: GnbId(i + 1), cell: CellId(i + 1) },
                    agent_end,
                )
                .unwrap(),
            );
            platform.add_agent(Box::new(ric_end));
        }
        platform.register_xapp_scoped(app, SubscriptionSpec::telemetry(100), grants).unwrap();
        for _ in 0..3 {
            platform.pump().unwrap();
            for agent in &mut agents {
                agent.poll(Timestamp(0)).unwrap();
            }
        }
        assert!(agents.iter().all(|a| a.is_setup()));
        (platform, agents)
    }

    fn one_agent_platform(
        app: Box<dyn XApp>,
        grants: Grants,
    ) -> (RicPlatform, RicAgent<xsec_e2::InProcTransport>) {
        let (platform, mut agents) = n_agent_platform(app, grants, 1);
        (platform, agents.pop().unwrap())
    }

    /// Two agents hosting a [`CellController`] (which declares kind `*`).
    fn two_agent_platform(
        app: CellController,
    ) -> (
        RicPlatform,
        RicAgent<xsec_e2::InProcTransport>,
        RicAgent<xsec_e2::InProcTransport>,
    ) {
        let (platform, mut agents) =
            n_agent_platform(Box::new(app), Grants::none().control_all(), 2);
        let a2 = agents.pop().unwrap();
        let a1 = agents.pop().unwrap();
        (platform, a1, a2)
    }

    #[test]
    fn every_agent_gets_a_subscription() {
        let (_platform, agents) =
            n_agent_platform(counting_app(), Grants::none(), 5);
        for (i, agent) in agents.iter().enumerate() {
            assert_eq!(agent.subscription_count(), 1, "agent {i} unsubscribed");
        }
    }

    #[test]
    fn controls_route_to_the_agent_owning_the_target_cell() {
        let (mut platform, mut a1, mut a2) =
            two_agent_platform(CellController { cell: CellId(2), broadcast: false });

        // Telemetry from agent 1 triggers a control pinned to cell 2 — it
        // must reach agent 2, not the first-connected agent.
        a1.push_record(record(0, 1));
        a1.poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(stats.controls_sent, 1);
        a1.poll(Timestamp(100_000)).unwrap();
        a2.poll(Timestamp(100_000)).unwrap();
        assert!(a1.take_control_requests().is_empty());
        assert_eq!(a2.take_control_requests(), vec![b"act".to_vec()]);
        assert_eq!(platform.controls_unroutable(), 0);

        // The ack latency is attributed to agent 2's histogram.
        platform.pump().unwrap();
        let snapshot = platform.obs().snapshot();
        let per_agent: Vec<(String, u64)> = snapshot
            .histograms("xsec_ric_control_ack_latency_us")
            .into_iter()
            .map(|(s, h)| (s.labels[0].1.clone(), h.count))
            .collect();
        assert_eq!(per_agent, vec![("gnb-1".into(), 0), ("gnb-2".into(), 1)]);
    }

    #[test]
    fn controls_for_unknown_cells_fall_back_and_are_counted() {
        let (mut platform, mut a1, mut a2) =
            two_agent_platform(CellController { cell: CellId(99), broadcast: false });

        a1.push_record(record(0, 1));
        a1.poll(Timestamp(100_000)).unwrap();
        platform.pump().unwrap();
        a1.poll(Timestamp(100_000)).unwrap();
        a2.poll(Timestamp(100_000)).unwrap();
        // Nobody serves cell 99: the action falls back to the first agent
        // and the misroute is counted.
        assert_eq!(a1.take_control_requests(), vec![b"act".to_vec()]);
        assert!(a2.take_control_requests().is_empty());
        assert_eq!(platform.controls_unroutable(), 1);
    }

    /// Sends an E2 Setup Request announcing `cells` on a raw agent end.
    fn announce(agent_end: &mut xsec_e2::InProcTransport, gnb: u32, cells: &[u32]) {
        let setup = E2apPdu::SetupRequest {
            gnb_id: GnbId(gnb),
            ran_functions: vec![RAN_FUNCTION_MOBIFLOW],
            cells: cells.iter().copied().map(CellId).collect(),
        };
        agent_end.send(&setup.encode()).unwrap();
    }

    #[test]
    fn the_routing_map_follows_every_setup() {
        let mut platform = RicPlatform::new();
        let mut ends = Vec::new();
        for _ in 0..3 {
            let (agent_end, ric_end) = in_proc_pair();
            platform.add_agent(Box::new(ric_end));
            ends.push(agent_end);
        }
        // Two agents announce cell 7, the higher token first: the lower one
        // takes the cell over when it sets up, as the connection scan chose.
        announce(&mut ends[2], 3, &[7, 8]);
        platform.pump().unwrap();
        assert_eq!(platform.cell_owner, HashMap::from([(CellId(7), 2), (CellId(8), 2)]));
        announce(&mut ends[1], 2, &[7]);
        platform.pump().unwrap();
        assert_eq!(platform.cell_owner, HashMap::from([(CellId(7), 1), (CellId(8), 2)]));
        // A repeated Setup that drops cell 7 hands it back to the agent still
        // announcing it, and a cell nobody announces any more is unroutable.
        announce(&mut ends[1], 2, &[9]);
        announce(&mut ends[2], 3, &[7]);
        platform.pump().unwrap();
        assert_eq!(platform.cell_owner, HashMap::from([(CellId(7), 2), (CellId(9), 1)]));
    }

    #[test]
    fn broadcast_controls_reach_exactly_the_neighbour_set() {
        // Cells 1..=5; cell 3's neighbours are 2 and 4. A broadcast control
        // pinned to cell 3 must reach agents 2, 3, 4 — and nobody else —
        // with each copy individually acked and correlated.
        let (mut platform, mut agents) = n_agent_platform(
            Box::new(CellController { cell: CellId(3), broadcast: true }),
            Grants::none().control_all(),
            5,
        );
        platform.set_neighbours(CellId(3), vec![CellId(2), CellId(4)]);

        agents[0].push_record(record(0, 1));
        agents[0].poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(stats.controls_sent, 3, "owner + two neighbours");
        assert_eq!(platform.controls_broadcast(), 2);
        assert_eq!(platform.controls_unroutable(), 0);

        let mut reached = Vec::new();
        for (i, agent) in agents.iter_mut().enumerate() {
            agent.poll(Timestamp(100_000)).unwrap();
            if !agent.take_control_requests().is_empty() {
                reached.push(i + 1);
            }
        }
        assert_eq!(reached, vec![2, 3, 4]);

        // All three copies ack back and correlate per-conn FIFO.
        platform.pump().unwrap();
        assert_eq!(platform.controls_acked(), 3);
        assert_eq!(
            platform.obs().snapshot().histogram_count("xsec_ric_control_ack_latency_us"),
            3
        );
    }

    #[test]
    fn broadcast_without_declared_neighbours_is_a_unicast() {
        let (mut platform, mut agents) = n_agent_platform(
            Box::new(CellController { cell: CellId(3), broadcast: true }),
            Grants::none().control_all(),
            5,
        );
        agents[0].push_record(record(0, 1));
        agents[0].poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(stats.controls_sent, 1);
        assert_eq!(platform.controls_broadcast(), 0);
    }
}
