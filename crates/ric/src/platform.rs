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
//! decodes each report window once onto the batch of the xApp whose
//! subscription it answers, hands every xApp its batch in one handler call
//! once the drain is done (timing each call against the near-RT budget; the
//! platform keeps no copy), relays topic messages between xApps, and ships
//! queued control actions back to the RAN. All sends are
//! non-blocking: each transport owns a bounded egress queue and a full
//! queue drops the frame with a count (`xsec_ric_egress_dropped_total`)
//! instead of stalling the reactor.
//!
//! One fault policy: a fault belongs to one frame or one connection, never
//! to the pump. A frame that is not an E2AP PDU is counted and skipped; a
//! transport that fails to receive, send or flush closes its own
//! connection (counted once, never touched again, its cells handed back to
//! the routing map). Nothing a peer sends makes [`RicPlatform::pump`] fail.

use crate::authz::{Grants, XAppIdentity};
use crate::router::{RegisterError, Router, RouterHandle};
use crate::xapp::{ControlOut, XApp, XAppContext};
use crossbeam_channel::Receiver;
use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;
use xsec_e2::{
    E2apPdu, E2Transport, KpmIndication, Readiness, RicRequestId, SendOutcome, WakeSet,
    RAN_FUNCTION_MOBIFLOW,
};
use xsec_mobiflow::SharedDataLayer;
use xsec_obs::{Counter, Histogram, Obs};
use xsec_mobiflow::UeMobiFlow;
use xsec_types::{CellId, GnbId, Result, Timestamp, XsecError};

/// Control Requests awaiting their ack per agent; sending one more evicts
/// that agent's oldest, counted as `xsec_ric_dropped_total{site="control_ack",
/// reason="evicted"}`.
const MAX_PENDING_CONTROLS: usize = 1024;

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
    /// Telemetry drained this pump and not yet handed over, in drain order;
    /// reused across pumps.
    batch: Vec<UeMobiFlow>,
    /// The runs of `batch` that close one report window: the window's end
    /// and where the run stops in `batch`. An empty window still makes a
    /// run, since a clock-only xApp is owed its call.
    runs: Vec<(Timestamp, usize)>,
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
    /// `None` once the connection is closed: it is never read or written
    /// again.
    transport: Option<Box<dyn E2Transport>>,
    setup_done: bool,
    /// The gNB behind this connection, learned from its E2 Setup Request.
    gnb_id: Option<GnbId>,
    /// Cells this agent serves (announced in E2 Setup); control actions
    /// pinned to one of these cells route here.
    cells: Vec<CellId>,
    /// Control Requests queued on this connection and not yet acked, by
    /// the `control_id` the platform numbered each with: when it was sent
    /// and the sender's `ControlOut.id`. An ack settles the entry its id
    /// names, so a lost, repeated or forged ack touches no other entry.
    pending_controls: BTreeMap<u32, (Instant, u32)>,
    /// The `control_id` of the next Control Request sent on this connection.
    next_control_id: u32,
    /// Send→ack latency, labelled `agent="gnb-<id>"` (set at setup).
    ack_latency: Option<Histogram>,
    /// This conn has buffered egress awaiting a flush retry (dedup flag
    /// for the `egress_pending` list).
    egress_pending: bool,
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
    /// Acks whose id no pending Control Request on their connection has.
    acks_unknown: Counter,
    /// Pending Control Requests evicted at [`MAX_PENDING_CONTROLS`].
    acks_evicted: Counter,
    /// Subscriptions an agent refused.
    subscriptions_refused: Counter,
    /// PDUs only the RIC may send, received from an agent.
    pdus_unexpected: Counter,
    /// Indications answering no xApp's subscription.
    indications_unknown: Counter,
    /// Indications whose KPM payload does not decode.
    indications_undecodable: Counter,
    /// xApp handler calls that panicked (their queued controls dropped).
    handler_panics: Counter,
    /// Frames that are not an E2AP PDU.
    frames_undecodable: Counter,
    /// Connections closed because their transport failed.
    conns_closed: Counter,
    /// Control Requests still awaiting their ack when their connection
    /// closed.
    acks_closed: Counter,
    /// Connections visited across all pumps (O(active) when event-driven).
    conns_scanned: Counter,
    /// One sample per pump that received frames: the step-1 drain (receive,
    /// decode, gather), which calls no handler.
    drain_latency: Histogram,
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
            acks_unknown: dropped(obs, "control_ack", "unknown"),
            acks_evicted: dropped(obs, "control_ack", "evicted"),
            subscriptions_refused: dropped(obs, "pdu", "refused_subscription"),
            pdus_unexpected: dropped(obs, "pdu", "unexpected"),
            indications_unknown: dropped(obs, "pdu", "unknown_request"),
            indications_undecodable: dropped(obs, "pdu", "undecodable"),
            handler_panics: dropped(obs, "handler", "panic"),
            frames_undecodable: dropped(obs, "frame", "undecodable"),
            conns_closed: dropped(obs, "conn", "transport"),
            acks_closed: dropped(obs, "control_ack", "closed"),
            conns_scanned: obs.counter("xsec_ric_pump_conns_scanned_total", &[]),
            drain_latency: obs.histogram("xsec_e2_decode_latency_us", &[]),
        }
    }
}

/// One series of `xsec_ric_dropped_total`: what the platform received and
/// threw away, by where and why.
fn dropped(obs: &Obs, site: &str, reason: &str) -> Counter {
    obs.counter("xsec_ric_dropped_total", &[("site", site), ("reason", reason)])
}

/// The near-real-time RIC.
pub struct RicPlatform {
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

    /// An empty store: the platform keeps no report window. Kept because
    /// the frozen `benchmark/` package reads its length; goes once a
    /// benchmark-only PR stops doing so.
    pub fn sdl(&self) -> SharedDataLayer {
        SharedDataLayer::new()
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

    /// Attached agents (any setup state, closed ones included).
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
            transport: Some(transport),
            setup_done: false,
            gnb_id: None,
            cells: Vec::new(),
            pending_controls: BTreeMap::new(),
            next_control_id: 0,
            ack_latency: None,
            egress_pending: false,
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
        let mut ctx = XAppContext { scope: &scope, control_out: &mut control_out };
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
            batch: Vec::new(),
            runs: Vec::new(),
        });
        self.subs_dirty = true;
        Ok(())
    }

    /// Sends one frame on conn `ci` without blocking; `true` when the
    /// transport queued it. A full egress queue, or a frame over the
    /// transport's size cap, drops the frame with a count (a transport
    /// still holding unflushed bytes already awaits a retry); a failed
    /// transport closes the conn.
    fn send_on(&mut self, ci: usize, frame: &[u8]) -> bool {
        let Some(transport) = self.conns[ci].transport.as_mut() else {
            return false;
        };
        match transport.send(frame) {
            Ok(SendOutcome::Sent) => {
                self.flush_on(ci);
                true
            }
            Ok(SendOutcome::Dropped) | Err(XsecError::Codec(_)) => {
                self.metrics.egress_dropped.inc();
                false
            }
            Err(_) => {
                self.close(ci);
                false
            }
        }
    }

    /// Flushes conn `ci`'s buffered egress, queueing a retry for what the
    /// transport could not take yet; a failed transport closes the conn.
    fn flush_on(&mut self, ci: usize) {
        let conn = &mut self.conns[ci];
        let Some(transport) = conn.transport.as_mut() else {
            return;
        };
        match transport.flush() {
            Ok(false) if !conn.egress_pending => {
                conn.egress_pending = true;
                self.egress_pending.push(ci);
            }
            Ok(_) => {}
            Err(_) => self.close(ci),
        }
    }

    /// Closes conn `ci`, whose transport failed. A closed conn has no
    /// transport left to fail, so each close counts once. The cells it
    /// announced go back to the agents still announcing them, and the
    /// controls it never acked are counted as closed.
    fn close(&mut self, ci: usize) {
        let conn = &mut self.conns[ci];
        conn.transport = None;
        conn.setup_done = false;
        conn.cells.clear();
        self.metrics.conns_closed.inc();
        self.metrics.acks_closed.add(conn.pending_controls.len() as u64);
        conn.pending_controls.clear();
        self.polled.retain(|&token| token != ci);
        self.reclaim_cells();
    }

    /// One pump iteration: drain ready transports, dispatch, ship controls.
    /// Peer faults are counted per frame or per connection, so the `Err`
    /// is never returned.
    pub fn pump(&mut self) -> Result<PumpStats> {
        let mut stats = PumpStats::default();

        // 0. Retry buffered egress from earlier iterations.
        for ci in std::mem::take(&mut self.egress_pending) {
            self.conns[ci].egress_pending = false;
            self.flush_on(ci);
        }

        // 1. Drain only the connections with (possibly) pending frames:
        //    tokens woken since the last pump, plus the polled set. Report
        //    windows gather per xApp; no handler runs until the drain is
        //    done, so one clock pair times it.
        let mut ready = std::mem::take(&mut self.ready_scratch);
        ready.clear();
        self.wake.drain_into(&mut ready);
        ready.extend_from_slice(&self.polled);
        let drain_start = Instant::now();
        for &ci in &ready {
            stats.conns_scanned += 1;
            self.metrics.conns_scanned.inc();
            while let Some(transport) = self.conns[ci].transport.as_mut() {
                let frame = match transport.try_recv() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => {
                        self.close(ci);
                        break;
                    }
                };
                stats.pdus += 1;
                self.metrics.pdus.inc();
                let Ok(pdu) = E2apPdu::decode(&frame) else {
                    self.metrics.frames_undecodable.inc();
                    continue;
                };
                self.handle_pdu(ci, pdu, &mut stats);
            }
        }
        self.ready_scratch = ready;
        if stats.pdus > 0 {
            self.metrics.drain_latency.observe_duration(drain_start.elapsed());
        }
        for ai in 0..self.xapps.len() {
            self.deliver(ai);
        }

        // 2. A freshly registered xApp subscribes on every setup agent.
        if self.subs_dirty {
            self.subs_dirty = false;
            for ci in 0..self.conns.len() {
                self.issue_subscriptions_for(ci);
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
        //    to the first set-up agent; unknown cells are counted as
        //    unroutable so misconfigurations show up in the metrics.
        //    Broadcast actions additionally fan out to every agent serving
        //    a declared neighbour of the target cell.
        for out in std::mem::take(&mut self.control_queue) {
            self.ship_control(out, &mut stats);
        }

        Ok(stats)
    }

    /// Sends one queued control action to its targets. It waits in the
    /// queue while no agent is set up.
    fn ship_control(&mut self, out: ControlOut, stats: &mut PumpStats) {
        // A closed conn is no longer set up, so the fallback moves on.
        let Some(fallback) = self.conns.iter().position(|c| c.setup_done) else {
            self.control_queue.push(out);
            return;
        };
        let ControlOut { cell, id, payload, broadcast } = out;
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
        for (extra, ci) in targets.into_iter().enumerate() {
            // Every copy gets its own number on its connection.
            let control_id = self.conns[ci].next_control_id;
            self.conns[ci].next_control_id = control_id.wrapping_add(1);
            let frame = E2apPdu::ControlRequest {
                ran_function: RAN_FUNCTION_MOBIFLOW,
                control_id,
                payload: payload.clone(),
            }
            .encode();
            // Only a frame actually queued awaits an ack.
            if self.send_on(ci, &frame) {
                let pending = &mut self.conns[ci].pending_controls;
                if pending.len() == MAX_PENDING_CONTROLS {
                    pending.pop_first();
                    self.metrics.acks_evicted.inc();
                }
                pending.insert(control_id, (Instant::now(), id));
                stats.controls_sent += 1;
                self.metrics.controls_sent.inc();
                if extra > 0 {
                    self.metrics.controls_broadcast.inc();
                }
            }
        }
    }

    fn handle_pdu(&mut self, ci: usize, pdu: E2apPdu, stats: &mut PumpStats) {
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
                    self.reclaim_cells();
                }
                self.send_on(ci, &E2apPdu::SetupResponse { accepted }.encode());
                // Subscribe this agent for every telemetry xApp right away
                // (same-pump, preserving the 3-round handshake cadence).
                self.issue_subscriptions_for(ci);
            }
            E2apPdu::SubscriptionResponse { accepted, .. } => {
                if !accepted {
                    self.metrics.subscriptions_refused.inc();
                }
            }
            E2apPdu::Indication { request_id, payload, .. } => {
                self.gather(request_id, &payload, stats);
            }
            E2apPdu::ControlAck { control_id, success, .. } => {
                let conn = &mut self.conns[ci];
                let Some((sent_at, id)) = conn.pending_controls.remove(&control_id) else {
                    self.metrics.acks_unknown.inc();
                    return;
                };
                if let Some(h) = &conn.ack_latency {
                    h.observe_duration(sent_at.elapsed());
                }
                if success {
                    self.metrics.controls_acked.inc();
                } else {
                    self.metrics.controls_failed.inc();
                }
                // Relay the outcome to xApps as `[success][id BE]`, naming
                // the action by its sender's id (the mitigator closes its
                // delivery loop off this topic).
                let [a, b, c, d] = id.to_be_bytes();
                self.platform_scope.publish("control-acks", &[success as u8, a, b, c, d]);
            }
            // A PDU only the RIC sends.
            _ => self.metrics.pdus_unexpected.inc(),
        }
    }

    /// Decodes one Indication's report window onto the batch of the xApp
    /// whose subscription it answers. A window ending at the time the
    /// batch's last run ends joins that run; any other starts a new one.
    fn gather(&mut self, request_id: RicRequestId, payload: &[u8], stats: &mut PumpStats) {
        self.metrics.indications.inc();
        // Any agent can send one nobody subscribed with, or one that is no
        // KPM report: counted once, dropped, and the pump carries on.
        let Some(entry) = self.xapps.iter_mut().find(|x| x.request_id == Some(request_id)) else {
            self.metrics.indications_unknown.inc();
            return;
        };
        let held = entry.batch.len();
        let Ok(window) = KpmIndication::decode_into(payload, &mut entry.batch) else {
            self.metrics.indications_undecodable.inc();
            return;
        };
        let records = (entry.batch.len() - held) as u64;
        stats.records_delivered += records;
        self.metrics.records_delivered.add(records);
        match entry.runs.last_mut() {
            Some((end, stop)) if *end == window.window_end => *stop = entry.batch.len(),
            _ => entry.runs.push((window.window_end, entry.batch.len())),
        }
    }

    /// Hands xApp `ai` what it gathered this pump: one `on_records` call
    /// per run, in the order the runs came, so the xApp sees the window ends
    /// it did per Indication with a run of equal ones merged into one call.
    fn deliver(&mut self, ai: usize) {
        let entry = &mut self.xapps[ai];
        let (mut batch, mut runs) =
            (std::mem::take(&mut entry.batch), std::mem::take(&mut entry.runs));
        let mut start = 0;
        for &(window_end, stop) in &runs {
            self.invoke(ai, |app, ctx| app.on_records(ctx, &batch[start..stop], window_end));
            start = stop;
        }
        batch.clear();
        runs.clear();
        let entry = &mut self.xapps[ai];
        (entry.batch, entry.runs) = (batch, runs);
    }

    /// Enters the cells conn `ci` announced at Setup into the routing map;
    /// of two agents announcing one cell the lower token keeps it.
    fn claim_cells(&mut self, ci: usize) {
        for cell in &self.conns[ci].cells {
            let owner = self.cell_owner.entry(*cell).or_insert(ci);
            *owner = (*owner).min(ci);
        }
    }

    /// Rebuilds the routing map from every conn's cells, after one stopped
    /// announcing some.
    fn reclaim_cells(&mut self) {
        self.cell_owner.clear();
        (0..self.conns.len()).for_each(|ci| self.claim_cells(ci));
    }

    /// Sends every telemetry xApp's subscription request to conn `ci`
    /// (idempotent per (xApp, conn); no-op before its setup completes).
    fn issue_subscriptions_for(&mut self, ci: usize) {
        if !self.conns[ci].setup_done {
            return;
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
            if self.send_on(ci, &frame) {
                self.xapps[ai].subscribed[ci] = true;
            } else {
                // Not queued: leave the flag unset and retry next pump (a
                // conn closed meanwhile is no longer set up, so skipped).
                self.subs_dirty = true;
            }
        }
    }

    /// Runs one xApp handler call. A handler that panics loses the controls
    /// it queued in that call and is counted under
    /// `xsec_ric_dropped_total{site="handler",reason="panic"}`; the pump,
    /// the other xApps and that xApp's later calls carry on.
    fn invoke(&mut self, ai: usize, f: impl FnOnce(&mut dyn XApp, &mut XAppContext<'_>)) {
        let mut control_out = Vec::new();
        let start = Instant::now();
        let entry = &mut self.xapps[ai];
        let mut ctx = XAppContext { scope: &entry.scope, control_out: &mut control_out };
        let finished = panic::catch_unwind(AssertUnwindSafe(|| f(entry.app.as_mut(), &mut ctx)));
        entry.handler_latency.observe_duration(start.elapsed());
        match finished {
            Ok(()) => self.control_queue.extend(control_out),
            Err(_) => self.metrics.handler_panics.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_e2::{in_proc_pair, RicAgent, RicAgentConfig};
    use xsec_mobiflow::UeMobiFlow;
    use xsec_proto::{Direction, MessageKind};
    use xsec_types::{CellId, GnbId, Rnti, Timestamp};

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

    /// Every record an xApp was handed, in delivery order.
    type Received = std::sync::Arc<parking_lot::Mutex<Vec<UeMobiFlow>>>;

    /// The window end and record count of every `on_records` call, in order.
    type Calls = std::sync::Arc<parking_lot::Mutex<Vec<(Timestamp, usize)>>>;

    struct RecordingApp {
        name: &'static str,
        received: Received,
        calls: Calls,
        publishes_to: Option<String>,
    }

    /// A telemetry consumer named `name` that publishes nothing (and so
    /// needs no grant), and what it receives.
    fn recording_app(name: &'static str) -> (Box<dyn XApp>, Received) {
        let (app, received, _) = logging_app(name);
        (app, received)
    }

    /// [`recording_app`], and the calls it gets.
    fn logging_app(name: &'static str) -> (Box<dyn XApp>, Received, Calls) {
        let (received, calls) = (Received::default(), Calls::default());
        let app = RecordingApp {
            name,
            received: received.clone(),
            calls: calls.clone(),
            publishes_to: None,
        };
        (Box::new(app), received, calls)
    }

    fn counting_app() -> Box<dyn XApp> {
        recording_app("counting").0
    }

    impl XApp for RecordingApp {
        fn name(&self) -> &str {
            self.name
        }

        fn on_records(
            &mut self,
            ctx: &mut XAppContext<'_>,
            records: &[UeMobiFlow],
            window_end: Timestamp,
        ) {
            self.received.lock().extend_from_slice(records);
            self.calls.lock().push((window_end, records.len()));
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

    #[test]
    fn end_to_end_telemetry_reaches_the_xapp() {
        // Handshake: platform sees setup, answers; issues subscription;
        // agent answers.
        let (app, received) = recording_app("recording");
        let (mut platform, mut agent) = one_agent_platform(app, Grants::none());
        assert_eq!(agent.subscription_count(), 1);

        // Telemetry flows: the xApp is handed exactly what was sent.
        let sent = [record(0, 10), record(1, 20)];
        for r in &sent {
            agent.push_record(r.clone());
        }
        agent.poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(stats.records_delivered, 2);
        assert_eq!(platform.metrics.indications.get(), 1);
        assert_eq!(*received.lock(), sent);
        assert!(platform.obs().snapshot().histogram_count("xsec_ric_handler_latency_us") >= 1);
    }

    #[test]
    fn a_window_reported_to_two_subscribers_reaches_each_once() {
        let (first, first_received) = recording_app("first");
        let (second, second_received) = recording_app("second");
        let (mut platform, mut agent) = one_agent_platform(first, Grants::none());
        platform
            .register_xapp_scoped(second, SubscriptionSpec::telemetry(100), Grants::none())
            .unwrap();
        platform.pump().unwrap();
        agent.poll(Timestamp(0)).unwrap();
        platform.pump().unwrap();
        assert_eq!(agent.subscription_count(), 2);

        agent.push_record(record(0, 10));
        agent.poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(stats.records_delivered, 2, "one delivery per subscriber");
        assert_eq!(*first_received.lock(), [record(0, 10)]);
        assert_eq!(*second_received.lock(), [record(0, 10)]);
    }

    /// Samples in `platform`'s histogram `name` labelled `xapp="<xapp>"`.
    fn handler_calls(platform: &RicPlatform, xapp: &str) -> u64 {
        let snapshot = platform.obs().snapshot();
        let series = snapshot.histograms("xsec_ric_handler_latency_us");
        series.into_iter().find(|(s, _)| s.labels[0].1 == xapp).map_or(0, |(_, h)| h.count)
    }

    fn drains(platform: &RicPlatform) -> u64 {
        platform.obs().snapshot().histogram_count("xsec_e2_decode_latency_us")
    }

    #[test]
    fn one_pump_hands_an_xapp_every_window_it_drained_in_one_call() {
        let (app, received, calls) = logging_app("recording");
        let (mut platform, mut agents) = n_agent_platform(app, Grants::none(), 8);
        let drains_before = drains(&platform);

        // Every agent reports one window, in token order.
        let sent: Vec<UeMobiFlow> =
            agents.iter_mut().zip(1..).map(|(agent, cell)| report(agent, cell, 100_000)).collect();
        let stats = platform.pump().unwrap();
        assert_eq!((stats.pdus, stats.records_delivered), (8, 8));
        assert_eq!(*calls.lock(), [(Timestamp(100_000), 8)]);
        assert_eq!(*received.lock(), sent, "records out of connection-token order");
        assert_eq!(handler_calls(&platform, "recording"), 1);
        // One timed drain for the pump, not one per PDU.
        assert_eq!(drains(&platform), drains_before + 1);

        // Empty windows still make the call; an idle pump makes none.
        for agent in &mut agents {
            agent.poll(Timestamp(200_000)).unwrap();
        }
        platform.pump().unwrap();
        platform.pump().unwrap();
        assert_eq!(calls.lock()[1..], [(Timestamp(200_000), 0)]);
        assert_eq!(drains(&platform), drains_before + 2);
    }

    #[test]
    fn windows_ending_apart_in_one_pump_are_handed_over_in_order() {
        let (app, received, calls) = logging_app("recording");
        let (mut platform, mut agents) = n_agent_platform(app, Grants::none(), 2);
        // Both agents report two windows before the pump: the 100 ms and
        // 200 ms ones, agent 2's first one empty.
        let first = report(&mut agents[0], 1, 100_000);
        let second = report(&mut agents[0], 1, 200_000);
        agents[1].poll(Timestamp(100_000)).unwrap();
        let third = report(&mut agents[1], 2, 200_000);
        let stats = platform.pump().unwrap();
        assert_eq!((stats.pdus, stats.records_delivered), (4, 3));
        // One call per window end, in drain order.
        assert_eq!(
            *calls.lock(),
            [
                (Timestamp(100_000), 1),
                (Timestamp(200_000), 1),
                (Timestamp(100_000), 0),
                (Timestamp(200_000), 1),
            ]
        );
        assert_eq!(*received.lock(), [first, second, third]);
        assert_eq!(handler_calls(&platform, "recording"), 4);
    }

    /// Panics in its first `on_records` call; logs the calls after it.
    struct PanicsOnce {
        calls: Calls,
        panicked: bool,
    }

    impl XApp for PanicsOnce {
        fn name(&self) -> &str {
            "panics-once"
        }
        fn on_records(&mut self, _: &mut XAppContext<'_>, records: &[UeMobiFlow], end: Timestamp) {
            if !std::mem::replace(&mut self.panicked, true) {
                panic!("tenant handler fault");
            }
            self.calls.lock().push((end, records.len()));
        }
    }

    #[test]
    fn a_panicking_batched_call_loses_only_its_own_batch() {
        let (app, received, _) = logging_app("recording");
        let (mut platform, mut agents) = n_agent_platform(app, Grants::none(), 4);
        let calls = Calls::default();
        let panics = Box::new(PanicsOnce { calls: calls.clone(), panicked: false });
        let spec = SubscriptionSpec::telemetry(100);
        platform.register_xapp_scoped(panics, spec, Grants::none()).unwrap();
        platform.pump().unwrap();
        for agent in &mut agents {
            agent.poll(Timestamp(0)).unwrap();
        }
        platform.pump().unwrap();

        for (agent, cell) in agents.iter_mut().zip(1..) {
            report(agent, cell, 100_000);
        }
        platform.pump().unwrap();
        assert_eq!(dropped_total(&platform, "handler", "panic"), 1);
        assert_eq!(received.lock().len(), 4, "the other xApp lost its batch");
        // The next pump hands over its own records only.
        report(&mut agents[2], 3, 200_000);
        platform.pump().unwrap();
        assert_eq!(*calls.lock(), [(Timestamp(200_000), 1)]);
        assert_eq!(received.lock().len(), 5);
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
    fn a_garbage_frame_does_not_strand_the_connections_after_it() {
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

        platform.pump().unwrap();
        agent.poll(Timestamp(0)).unwrap();
        assert!(agent.is_setup(), "conn 1 was not served in the garbage frame's pump");
        assert_eq!(dropped_total(&platform, "frame", "undecodable"), 1);
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
                Box::new(RecordingApp {
                    name: "counting",
                    received: Received::default(),
                    calls: Calls::default(),
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

        // The agent acked on receipt; the next pump matches it, records
        // the send→ack latency, and relays the outcome on "control-acks".
        let acks = ack_observer(&platform);
        platform.pump().unwrap();
        assert_eq!(platform.controls_acked(), 1);
        assert_eq!(platform.controls_failed(), 0);
        assert_eq!(acks.try_recv().unwrap(), [1, 0, 0, 0, 0]);
        // The send→ack latency lands in the per-agent histogram.
        assert_eq!(
            platform.obs().snapshot().histogram_count("xsec_ric_control_ack_latency_us"),
            1
        );
    }

    /// Queues one unpinned control per id when it starts, its payload the
    /// id's bytes.
    struct Burst(Vec<u32>);

    impl XApp for Burst {
        fn name(&self) -> &str {
            "burst"
        }
        fn on_start(&mut self, ctx: &mut XAppContext<'_>) {
            for &id in &self.0 {
                let payload = id.to_be_bytes().to_vec();
                ctx.send_control("*", ControlOut { id, payload, ..Default::default() });
            }
        }
        fn on_records(&mut self, _: &mut XAppContext<'_>, _: &[UeMobiFlow], _: Timestamp) {}
    }

    /// One raw agent end, set up, sent a [`Burst`] of `ids`; returns the
    /// `control_id` each Control Request arrived with, in send order.
    fn raw_agent_with_controls(
        ids: Vec<u32>,
    ) -> (RicPlatform, xsec_e2::InProcTransport, Vec<u32>) {
        let mut platform = RicPlatform::new();
        let (mut end, ric_end) = in_proc_pair();
        platform.add_agent(Box::new(ric_end));
        announce(&mut end, 1, &[1]);
        let burst = Box::new(Burst(ids.clone()));
        let spec = SubscriptionSpec::topics_only(&[]);
        platform.register_xapp_scoped(burst, spec, Grants::none().control_all()).unwrap();
        platform.pump().unwrap();
        let mut sent = Vec::new();
        while let Some(frame) = end.try_recv().unwrap() {
            if let E2apPdu::ControlRequest { control_id, payload, .. } =
                E2apPdu::decode(&frame).unwrap()
            {
                assert_eq!(payload, ids[sent.len()].to_be_bytes());
                sent.push(control_id);
            }
        }
        assert_eq!(sent.len(), ids.len());
        (platform, end, sent)
    }

    fn ack(end: &mut xsec_e2::InProcTransport, control_id: u32, success: bool) {
        let pdu = E2apPdu::ControlAck { ran_function: RAN_FUNCTION_MOBIFLOW, control_id, success };
        end.send(&pdu.encode()).unwrap();
    }

    fn dropped_total(platform: &RicPlatform, site: &str, reason: &str) -> u64 {
        dropped(platform.obs(), site, reason).get()
    }

    #[test]
    fn acks_are_matched_by_control_id() {
        let (mut platform, mut end, sent) = raw_agent_with_controls(vec![11, 12, 13, 14]);
        let acks = ack_observer(&platform);
        // Out of order; the second control is never acked, the first twice,
        // and one ack names a control never sent.
        ack(&mut end, sent[2], true);
        ack(&mut end, sent[0], true);
        ack(&mut end, sent[0], true);
        ack(&mut end, sent.iter().max().unwrap() + 1, true);
        ack(&mut end, sent[3], false);
        platform.pump().unwrap();

        // Each relayed ack names its own control as `[success][id BE]`.
        let relayed: Vec<Vec<u8>> = acks.try_iter().collect();
        assert_eq!(relayed, [[1, 0, 0, 0, 13], [1, 0, 0, 0, 11], [0, 0, 0, 0, 14]]);
        assert_eq!((platform.controls_acked(), platform.controls_failed()), (2, 1));
        let snapshot = platform.obs().snapshot();
        let per_agent: Vec<(String, u64)> = snapshot
            .histograms("xsec_ric_control_ack_latency_us")
            .into_iter()
            .map(|(s, h)| (s.labels[0].1.clone(), h.count))
            .collect();
        assert_eq!(per_agent, [("gnb-1".into(), 3)]);
        assert_eq!(dropped_total(&platform, "control_ack", "unknown"), 2);
        // The unacked control still waits for its own ack.
        let pending: Vec<(u32, u32)> =
            platform.conns[0].pending_controls.iter().map(|(&c, &(_, id))| (c, id)).collect();
        assert_eq!(pending, [(sent[1], 12)]);
    }

    #[test]
    fn a_full_pending_map_evicts_its_oldest_control() {
        let ids: Vec<u32> = (0..MAX_PENDING_CONTROLS as u32 + 2).collect();
        let (mut platform, mut end, sent) = raw_agent_with_controls(ids);
        assert_eq!(dropped_total(&platform, "control_ack", "evicted"), 2);
        let pending = &platform.conns[0].pending_controls;
        assert_eq!(pending.len(), MAX_PENDING_CONTROLS);
        assert_eq!(pending.keys().next(), Some(&sent[2]));
        // An evicted control's late ack is one nobody waits for.
        ack(&mut end, sent[0], true);
        platform.pump().unwrap();
        assert_eq!(platform.controls_acked(), 0);
        assert_eq!(dropped_total(&platform, "control_ack", "unknown"), 1);
    }

    /// A platform hosting the telemetry xApp `app` (holding `grants`) on
    /// two connections: a raw end (drained first), set up and sent its
    /// subscription, and a real agent serving cell 2, set up and subscribed.
    /// Returns the raw end's request id too.
    fn raw_end_beside_an_agent(
        app: Box<dyn XApp>,
        grants: Grants,
    ) -> (RicPlatform, xsec_e2::InProcTransport, RicAgent<xsec_e2::InProcTransport>, RicRequestId)
    {
        let mut platform = RicPlatform::new();
        let (mut raw, ric_end) = in_proc_pair();
        platform.add_agent(Box::new(ric_end));
        let (agent_end, ric_end) = in_proc_pair();
        let mut agent =
            RicAgent::new(RicAgentConfig { gnb_id: GnbId(2), cell: CellId(2) }, agent_end)
                .unwrap();
        platform.add_agent(Box::new(ric_end));
        platform.register_xapp_scoped(app, SubscriptionSpec::telemetry(100), grants).unwrap();
        announce(&mut raw, 1, &[1]);
        for _ in 0..3 {
            platform.pump().unwrap();
            agent.poll(Timestamp(0)).unwrap();
        }
        let request_id = std::iter::from_fn(|| raw.try_recv().unwrap())
            .find_map(|frame| match E2apPdu::decode(&frame).unwrap() {
                E2apPdu::SubscriptionRequest { request_id, .. } => Some(request_id),
                _ => None,
            })
            .unwrap();
        (platform, raw, agent, request_id)
    }

    #[test]
    fn a_refused_subscription_or_a_ric_only_pdu_does_not_stop_the_pump() {
        let exposition = RicPlatform::new().obs().metrics.render_prometheus();
        for (site, reason) in [
            ("control_ack", "unknown"),
            ("control_ack", "evicted"),
            ("pdu", "refused_subscription"),
            ("pdu", "unexpected"),
            ("pdu", "unknown_request"),
            ("pdu", "undecodable"),
            ("handler", "panic"),
            ("frame", "undecodable"),
            ("conn", "transport"),
            ("control_ack", "closed"),
        ] {
            let series = format!("xsec_ric_dropped_total{{reason=\"{reason}\",site=\"{site}\"}} 0\n");
            assert!(exposition.contains(&series), "{exposition}");
        }
        let (mut platform, mut raw, mut agent, request_id) =
            raw_end_beside_an_agent(counting_app(), Grants::none());

        // The raw end refuses its subscription and sends a PDU only the RIC
        // sends, in the pump that carries the real agent's report.
        raw.send(&E2apPdu::SubscriptionResponse { request_id, accepted: false }.encode()).unwrap();
        raw.send(&E2apPdu::SetupResponse { accepted: vec![] }.encode()).unwrap();
        agent.push_record(record(0, 10));
        agent.poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(stats.records_delivered, 1);
        assert_eq!(dropped_total(&platform, "pdu", "refused_subscription"), 1);
        assert_eq!(dropped_total(&platform, "pdu", "unexpected"), 1);
    }

    #[test]
    fn an_indication_no_xapp_can_take_is_counted_and_the_pump_carries_on() {
        let (app, received) = recording_app("recording");
        let (mut platform, mut raw, mut agent, request_id) =
            raw_end_beside_an_agent(app, Grants::none());
        let indication = |request_id, payload| {
            let pdu = E2apPdu::Indication {
                request_id,
                ran_function: RAN_FUNCTION_MOBIFLOW,
                sequence: 0,
                payload,
            };
            pdu.encode()
        };
        let window = KpmIndication::encode_records(
            CellId(1),
            Timestamp(0),
            Timestamp(100_000),
            &[record(9, 10)],
        );
        let stranger = RicRequestId { requestor: request_id.requestor + 1, ..request_id };

        // A sound window nobody subscribed to, and a subscribed window whose
        // payload is no KPM report, in the pump that carries the real report.
        raw.send(&indication(stranger, window)).unwrap();
        raw.send(&indication(request_id, vec![0xFF])).unwrap();
        agent.push_record(record(0, 10));
        agent.poll(Timestamp(100_000)).unwrap();
        let stats = platform.pump().unwrap();
        assert_eq!(dropped_total(&platform, "pdu", "unknown_request"), 1);
        assert_eq!(dropped_total(&platform, "pdu", "undecodable"), 1);
        assert_eq!(stats.records_delivered, 1);
        assert_eq!(*received.lock(), [record(0, 10)]);

        // Both faults at once count once, under the first reason.
        raw.send(&indication(stranger, vec![0xFF])).unwrap();
        platform.pump().unwrap();
        assert_eq!(dropped_total(&platform, "pdu", "unknown_request"), 2);
        assert_eq!(dropped_total(&platform, "pdu", "undecodable"), 1);
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
                    id: 0,
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
        // with each copy individually acked and matched.
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

        // All three copies ack back, each matched by its own control id.
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

    /// Records what it is handed and answers each non-empty batch with a
    /// control pinned to the cell its first record names.
    struct Responder {
        received: Received,
        broadcast: bool,
    }

    impl XApp for Responder {
        fn name(&self) -> &str {
            "responder"
        }
        fn on_records(&mut self, ctx: &mut XAppContext<'_>, records: &[UeMobiFlow], _: Timestamp) {
            self.received.lock().extend_from_slice(records);
            if let Some(first) = records.first() {
                let out = ControlOut {
                    cell: Some(first.cell),
                    payload: b"act".to_vec(),
                    broadcast: self.broadcast,
                    ..Default::default()
                };
                ctx.send_control("*", out);
            }
        }
    }

    /// `n` agents set up and subscribed for a [`Responder`] (cells 1..=n).
    fn responder_platform(
        n: u32,
        broadcast: bool,
    ) -> (RicPlatform, Vec<RicAgent<xsec_e2::InProcTransport>>, Received) {
        let received = Received::default();
        let app = Box::new(Responder { received: received.clone(), broadcast });
        let (platform, agents) = n_agent_platform(app, Grants::none().control_all(), n);
        (platform, agents, received)
    }

    /// One record naming `cell`, reported by `agent` in the window ending
    /// at `now`.
    fn report(agent: &mut RicAgent<xsec_e2::InProcTransport>, cell: u32, now: u64) -> UeMobiFlow {
        let record = UeMobiFlow { cell: CellId(cell), ..record(cell.into(), now - 1) };
        agent.push_record(record.clone());
        agent.poll(Timestamp(now)).unwrap();
        record
    }

    /// `agent` still flows both ways: its report for `cell` reaches the
    /// responder in this `pump`, and the control that answers it comes back.
    fn assert_served(
        platform: &mut RicPlatform,
        agent: &mut RicAgent<xsec_e2::InProcTransport>,
        cell: u32,
        now: u64,
        received: &Received,
    ) {
        let sent = report(agent, cell, now);
        platform.pump().unwrap();
        assert_eq!(received.lock().last(), Some(&sent));
        agent.poll(Timestamp(now)).unwrap();
        assert_eq!(agent.take_control_requests(), vec![b"act".to_vec()]);
    }

    #[test]
    fn a_transport_error_on_receive_closes_only_that_connection() {
        let (mut platform, mut agents, received) = responder_platform(2, false);
        // Agent 1 reports an empty window and hangs up.
        agents[0].poll(Timestamp(100_000)).unwrap();
        drop(agents.remove(0));
        assert_served(&mut platform, &mut agents[0], 2, 100_000, &received);
        assert_eq!(dropped_total(&platform, "conn", "transport"), 1);
        assert_eq!(*received.lock(), [UeMobiFlow { cell: CellId(2), ..record(2, 99_999) }]);
        // A control no cell routes falls back to the first agent still open.
        assert_served(&mut platform, &mut agents[0], 9, 200_000, &received);
        assert_eq!(platform.controls_unroutable(), 1);
    }

    #[test]
    fn an_undecodable_frame_is_counted_and_skipped() {
        let received = Received::default();
        let app = Box::new(Responder { received: received.clone(), broadcast: false });
        let (mut platform, mut raw, mut agent, _) =
            raw_end_beside_an_agent(app, Grants::none().control_all());

        raw.send(&[0xFF]).unwrap();
        assert_served(&mut platform, &mut agent, 2, 100_000, &received);
        assert_eq!(dropped_total(&platform, "frame", "undecodable"), 1);
        // The sender keeps its connection: a repeated Setup is answered.
        announce(&mut raw, 1, &[1]);
        platform.pump().unwrap();
        assert!(matches!(
            E2apPdu::decode(&raw.try_recv().unwrap().unwrap()).unwrap(),
            E2apPdu::SetupResponse { .. }
        ));
        assert_eq!(dropped_total(&platform, "conn", "transport"), 0);
    }

    #[test]
    fn a_send_that_fails_while_shipping_closes_only_that_connection() {
        let (mut platform, mut agents, received) = responder_platform(2, true);
        platform.set_neighbours(CellId(1), vec![CellId(2)]);
        // A broadcast for cell 1 reaches both agents; agent 1 hangs up
        // before acking its copy.
        report(&mut agents[1], 1, 100_000);
        platform.pump().unwrap();
        drop(agents.remove(0));
        agents[0].poll(Timestamp(100_000)).unwrap();
        assert_eq!(agents[0].take_control_requests().len(), 1);

        // The next broadcast fails on the dead owner; the neighbour still
        // gets its copy, and the dead conn's unacked copy is counted.
        let sent = report(&mut agents[0], 1, 200_000);
        platform.pump().unwrap();
        assert_eq!(received.lock().last(), Some(&sent));
        assert_eq!(dropped_total(&platform, "conn", "transport"), 1);
        assert_eq!(dropped_total(&platform, "control_ack", "closed"), 1);
        agents[0].poll(Timestamp(200_000)).unwrap();
        assert_eq!(agents[0].take_control_requests(), vec![b"act".to_vec()]);
        assert_served(&mut platform, &mut agents[0], 2, 300_000, &received);
        // Every control sent is acked, pending or counted as closed.
        let pending = platform.conns[1].pending_controls.len() as u64;
        assert_eq!((platform.controls_acked(), pending), (2, 1));
        assert_eq!(platform.metrics.controls_sent.get(), 4);
    }

    #[test]
    fn an_xapp_registered_after_a_dead_connection_subscribes_every_live_agent() {
        let (mut platform, mut agents) = n_agent_platform(counting_app(), Grants::none(), 3);
        drop(agents.remove(0));
        let received = Received::default();
        let app = Box::new(Responder { received: received.clone(), broadcast: false });
        let grants = Grants::none().control_all();
        platform.register_xapp_scoped(app, SubscriptionSpec::telemetry(100), grants).unwrap();
        platform.pump().unwrap();
        assert_eq!(dropped_total(&platform, "conn", "transport"), 1);
        for agent in &mut agents {
            agent.poll(Timestamp(0)).unwrap();
            assert_eq!(agent.subscription_count(), 2);
        }
        platform.pump().unwrap();
        assert_served(&mut platform, &mut agents[0], 2, 100_000, &received);
        assert_served(&mut platform, &mut agents[1], 3, 100_000, &received);
    }

    #[test]
    fn a_fresh_agent_takes_over_a_closed_connections_cell() {
        let (mut platform, mut agents, _) = responder_platform(2, false);
        agents[0].poll(Timestamp(100_000)).unwrap();
        drop(agents.remove(0));
        platform.pump().unwrap();
        assert_eq!(dropped_total(&platform, "conn", "transport"), 1);

        // A new connection announces cell 1 again.
        let (agent_end, ric_end) = in_proc_pair();
        let mut fresh =
            RicAgent::new(RicAgentConfig { gnb_id: GnbId(1), cell: CellId(1) }, agent_end)
                .unwrap();
        platform.add_agent(Box::new(ric_end));
        for _ in 0..2 {
            platform.pump().unwrap();
            fresh.poll(Timestamp(0)).unwrap();
        }
        assert!(fresh.is_setup());

        // Cell 1's next control reaches the fresh agent, not the fallback.
        report(&mut agents[0], 1, 200_000);
        platform.pump().unwrap();
        fresh.poll(Timestamp(0)).unwrap();
        agents[0].poll(Timestamp(200_000)).unwrap();
        assert_eq!(fresh.take_control_requests(), vec![b"act".to_vec()]);
        assert!(agents[0].take_control_requests().is_empty());
        assert_eq!(platform.controls_unroutable(), 0);
    }

    #[test]
    fn an_oversized_control_is_dropped_and_the_connection_kept() {
        struct Oversized;
        impl XApp for Oversized {
            fn name(&self) -> &str {
                "oversized"
            }
            fn on_start(&mut self, ctx: &mut XAppContext<'_>) {
                // One payload at the transports' frame cap: with its E2AP
                // header the frame is over it.
                for payload in [vec![0x5A; 1 << 20], b"act".to_vec()] {
                    ctx.send_control("*", ControlOut { payload, ..Default::default() });
                }
            }
            fn on_records(&mut self, _: &mut XAppContext<'_>, _: &[UeMobiFlow], _: Timestamp) {}
        }
        let (platform, mut agent) =
            one_agent_platform(Box::new(Oversized), Grants::none().control_all());
        assert_eq!(agent.take_control_requests(), vec![b"act".to_vec()]);
        assert_eq!(platform.egress_dropped(), 1);
        assert_eq!(dropped_total(&platform, "conn", "transport"), 0);
    }
}
