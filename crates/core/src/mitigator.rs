//! The mitigation xApp: the actuation end of the closed loop.
//!
//! Listens on the `findings` topic for the analyzer's conclusions, scopes
//! each finding to concrete network entities (connections, C-RNTIs, an
//! establishment cause), asks the [`PolicyEngine`] what to do, and drives
//! the [`ActionExecutor`] that ships E2 Control Requests back toward the
//! RAN. Ack outcomes return on the platform's `control-acks` topic, closing
//! the delivery loop; telemetry windows provide the virtual clock that
//! paces retries and TTL expiry.
//!
//! The playbooks themselves are live: A1 policy operations arriving on the
//! `a1-policies` topic are applied to the engine's [`xsec_control::PolicyStore`]
//! mid-run (install / update / delete / enable-disable), answered on
//! `a1-policy-status`, and tallied into `xsec_a1_policy_ops_total{op,outcome}`.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xsec_control::{
    attack_from_title, A1OpTally, A1Request, ActionExecutor, PolicyDecision, PolicyEngine,
    SupervisionTicket, ThreatAssessment,
};
use xsec_mobiflow::{decode_ue_record, UeMobiFlow};
use xsec_obs::{Counter, FlightEvent, Obs, TraceStage};
use xsec_proto::MessageKind;
use xsec_ric::{ControlOut, LatencyClass, XApp, XAppContext};
use xsec_types::{
    AttackKind, CellId, CipherAlg, Duration, EstablishmentCause, IntegrityAlg, Rnti, Timestamp,
};

/// Topic MobiWatch publishes [`crate::mobiwatch::AnomalyAlert`]s on.
pub const ANOMALIES_TOPIC: &str = "anomalies";

/// Topic the analyzer publishes [`FindingNotice`]s on.
pub const FINDINGS_TOPIC: &str = "findings";

/// Topic the platform relays Control Ack outcomes on.
pub const CONTROL_ACKS_TOPIC: &str = "control-acks";

/// Topic the SMO publishes A1 policy operations ([`A1SignedRequest`] JSON) on.
pub const A1_POLICY_TOPIC: &str = "a1-policies";

/// Topic the mitigator answers A1 operations on
/// ([`xsec_control::A1Response`] JSON).
pub const A1_POLICY_STATUS_TOPIC: &str = "a1-policy-status";

/// The analyzer's conclusion about one alert, serialized for the router.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FindingNotice {
    /// Causal trace id of the detection (0 = untraced), carried from the
    /// alert so the policy decision and Control Request join the incident
    /// trace.
    pub trace: u64,
    /// Stream index of the flagged window's last record.
    pub at_record: u64,
    /// Virtual time of that record (the detection timestamp).
    pub at_time: Timestamp,
    /// Detector anomaly score.
    pub score: f32,
    /// Decision threshold in force when the alert fired.
    pub threshold: f32,
    /// Whether the model agreed the window is anomalous.
    pub anomalous: bool,
    /// Whether detector and model agree (cross-verdict confirmed).
    pub confirmed: bool,
    /// Whether the cross-verdict demands human review.
    pub needs_human: bool,
    /// Attack titles the model named.
    pub attacks: Vec<String>,
    /// Window + context records in the MobiFlow line coding.
    pub records: Vec<String>,
}

/// An A1 policy operation wrapped in the sender's router identity — the
/// one wire form on [`A1_POLICY_TOPIC`], published by the SMO's
/// [`crate::smo::A1PolicyClient`]. The mitigator checks the `(xapp, token)`
/// pair and the per-op A1 grant against the router's registry before the
/// request is allowed anywhere near the [`xsec_control::PolicyStore`]; a
/// bare [`A1Request`] is refused as `xapp="unsigned"`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct A1SignedRequest {
    /// Registered identity name of the sender.
    pub xapp: String,
    /// The sender's registration token (proof it holds the handle).
    pub token: u64,
    /// The operation being requested.
    pub request: A1Request,
}

/// Aggregate mitigation outcome of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct MitigationSummary {
    /// Control actions the policy engine issued.
    pub issued: usize,
    /// Actions acknowledged as enforced.
    pub acked: usize,
    /// Actions the agent refused.
    pub failed: usize,
    /// Actions whose TTL elapsed unacked.
    pub expired: usize,
    /// Actions that ran out of retry attempts.
    pub exhausted: usize,
    /// Findings escalated to the human-supervision queue.
    pub supervised: usize,
    /// A1 policy operations the run consumed, by enforcement outcome.
    pub policy_ops: A1OpTally,
    /// Virtual detection→ack latencies, one per acked action (µs).
    pub detection_to_ack_us: Vec<u64>,
}

impl MitigationSummary {
    /// The p99 detection→ack latency, if any action was acked.
    pub fn detection_to_ack_p99(&self) -> Option<Duration> {
        if self.detection_to_ack_us.is_empty() {
            return None;
        }
        let mut sorted = self.detection_to_ack_us.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len());
        Some(Duration::from_micros(sorted[rank - 1]))
    }

    /// Classifies the p99 against the O-RAN near-RT budget.
    pub fn budget_class(&self) -> Option<LatencyClass> {
        self.detection_to_ack_p99()
            .map(|d| xsec_ric::latency::classify(std::time::Duration::from_micros(d.as_micros())))
    }
}

/// Shared inspection state for the mitigator.
#[derive(Debug)]
pub struct MitigatorState {
    /// The delivery tracker.
    pub executor: ActionExecutor,
    /// The decision table.
    pub policy: PolicyEngine,
    /// Findings the engine refused to act on autonomously.
    pub supervised: Vec<SupervisionTicket>,
    /// A1 policy operations consumed so far, by enforcement outcome.
    pub a1_ops: A1OpTally,
    /// Virtual clock (latest telemetry window end / finding time seen).
    pub clock: Timestamp,
}

impl MitigatorState {
    /// Snapshots the run's mitigation outcome.
    pub fn summary(&self) -> MitigationSummary {
        let (acked, failed, expired, exhausted) = self.executor.tally();
        let latencies = self.executor.detection_to_ack_latencies();
        MitigationSummary {
            issued: self.executor.outcomes().len(),
            acked,
            failed,
            expired,
            exhausted,
            supervised: self.supervised.len(),
            policy_ops: self.a1_ops,
            detection_to_ack_us: latencies.into_iter().map(|d| d.as_micros()).collect(),
        }
    }
}

/// The closed-loop mitigation xApp.
pub struct Mitigator {
    state: Arc<Mutex<MitigatorState>>,
    obs: Obs,
    /// Evidence lines that did not decode and were left out of the scoping.
    dropped: Counter,
    /// `findings` payloads that are not a [`FindingNotice`].
    undecodable: Counter,
}

impl Mitigator {
    /// Creates the mitigator with a silent observability handle; returns the
    /// shared state handle.
    pub fn new(policy: PolicyEngine) -> (Self, Arc<Mutex<MitigatorState>>) {
        Self::with_obs(policy, Obs::new())
    }

    /// Creates the mitigator recording per-action-kind metrics
    /// (`xsec_control_actions_*_total{kind=}` and
    /// `xsec_control_detection_to_ack_us{kind=}`) into `obs`.
    pub fn with_obs(policy: PolicyEngine, obs: Obs) -> (Self, Arc<Mutex<MitigatorState>>) {
        let state = Arc::new(Mutex::new(MitigatorState {
            executor: ActionExecutor::default(),
            policy,
            supervised: Vec::new(),
            a1_ops: A1OpTally::default(),
            clock: Timestamp::ZERO,
        }));
        let dropped = obs.counter("xsec_alert_records_dropped_total", &[("site", "mitigator")]);
        let undecodable = obs
            .counter("xsec_bus_dropped_total", &[("site", "mitigator"), ("reason", "undecodable")]);
        (Mitigator { state: state.clone(), obs, dropped, undecodable }, state)
    }

    fn handle_finding(&mut self, ctx: &mut XAppContext<'_>, notice: &FindingNotice) {
        let records: Vec<UeMobiFlow> =
            notice.records.iter().filter_map(|l| decode_ue_record(l).ok()).collect();
        self.dropped.add((notice.records.len() - records.len()) as u64);
        let assessment = assess(notice, &records);
        let mut state = self.state.lock();
        state.clock = state.clock.max(notice.at_time);
        let now = state.clock;
        match state.policy.decide(&assessment) {
            PolicyDecision::Act(actions) => {
                self.obs.recorder.record_stage(FlightEvent {
                    trace: notice.trace,
                    stage: TraceStage::Policy,
                    at_us: now.as_micros(),
                    a: u64::from(assessment.confidence.to_bits()),
                    b: actions.len() as u64,
                });
                for action in actions {
                    self.obs
                        .counter(
                            "xsec_control_actions_issued_total",
                            &[("kind", action.action.name())],
                        )
                        .inc();
                    state.executor.submit(action, Some(assessment.cell), assessment.detected_at, now);
                }
                ship_due(&mut state, now, ctx, &self.obs);
            }
            PolicyDecision::Supervise(ticket) => state.supervised.push(ticket),
            PolicyDecision::StandDown => {}
        }
    }
}

/// Ships everything the executor deems due, each action pinned to its cell
/// and carrying its trace for ack correlation at the pump. QuarantineCell
/// actions fan out to the cell's declared neighbours as well — the
/// displaced attacker's next hop should find the door already closing.
fn ship_due(state: &mut MitigatorState, now: Timestamp, ctx: &mut XAppContext<'_>, obs: &Obs) {
    for (cell, trace, payload) in state.executor.take_due(now) {
        let action = xsec_control::ControlAction::decode(&payload).ok();
        if let Some(trace) = trace {
            let action_id = action.as_ref().map(|a| a.id).unwrap_or(0);
            obs.recorder.record_stage(FlightEvent {
                trace,
                stage: TraceStage::ControlShip,
                at_us: now.as_micros(),
                a: u64::from(action_id),
                b: payload.len() as u64,
            });
        }
        let quarantine = matches!(
            action.as_ref().map(|a| &a.action),
            Some(xsec_control::MitigationAction::QuarantineCell { .. })
        );
        // Declare the action kind so a scoped mitigator is checked against
        // its per-kind control grant (an undecodable payload declares the
        // wildcard, which deployments deliberately do not grant).
        let kind = action.as_ref().map_or("*", |a| a.action.name());
        let broadcast = quarantine && cell.is_some();
        ctx.send_control(kind, ControlOut { cell, trace, payload, broadcast });
    }
}

/// Builds a [`ThreatAssessment`] from a finding notice: names the attack,
/// derives a confidence from how far the score cleared the threshold, and
/// scopes the suspect entities attack-specifically — a null-cipher finding
/// implicates only downgraded sessions, a flood implicates the connections
/// behind the dominant establishment cause, anything else implicates every
/// connection in the window.
pub fn assess(notice: &FindingNotice, records: &[UeMobiFlow]) -> ThreatAssessment {
    let attack = notice.attacks.iter().find_map(|t| attack_from_title(t));
    let llm_confirmed = notice.confirmed && !notice.needs_human;
    // score/threshold ≥ 1 whenever the detector flagged; squash the excess
    // into [0, 1): barely-over-threshold ≈ 0, a 5× clearance ≈ 0.8.
    let margin = if notice.score > 0.0 {
        (1.0 - notice.threshold / notice.score).clamp(0.0, 1.0)
    } else {
        0.0
    };
    // The margin is one detector's opinion of one window; the LLM verdict is
    // an independent read of the surrounding stream. When the cross-check
    // confirms a *named* attack, that corroboration dominates a thin margin
    // — per-UE windows structurally compress clearance during floods (each
    // fabricated connection looks near-benign in isolation, the storm only
    // shows in the shared context), yet the combined evidence is strong.
    let confidence = if llm_confirmed && attack.is_some() {
        margin.max(0.75)
    } else {
        margin
    };
    // The notice's record list is trailing *global* context followed by the
    // flagged window, so the last record is the detection itself — its cell
    // is the attack cell. (The first record is the oldest context line; in a
    // multi-cell deployment that is usually some *other* cell's traffic, and
    // targeting it mis-aims every cell-scoped action.)
    let cell = records.last().map_or(CellId(0), |r| r.cell);

    let dominant_cause = dominant_setup_cause(records);
    let implicated: Vec<&UeMobiFlow> = match attack {
        Some(AttackKind::NullCipher) => records
            .iter()
            .filter(|r| {
                r.cipher_alg == Some(CipherAlg::Nea0)
                    || r.integrity_alg == Some(IntegrityAlg::Nia0)
            })
            .collect(),
        Some(AttackKind::BtsDos) => records
            .iter()
            .filter(|r| {
                r.msg == MessageKind::RrcSetupRequest && r.establishment_cause == dominant_cause
            })
            .collect(),
        _ => records.iter().collect(),
    };
    let mut suspect_conns: Vec<u32> = implicated.iter().map(|r| r.du_ue_id).collect();
    suspect_conns.sort_unstable();
    suspect_conns.dedup();
    let mut suspect_rntis: Vec<Rnti> =
        implicated.iter().map(|r| r.rnti).filter(|r| r.is_valid_c_rnti()).collect();
    suspect_rntis.sort();
    suspect_rntis.dedup();

    ThreatAssessment {
        attack,
        confidence,
        llm_confirmed,
        detected_at: notice.at_time,
        cell,
        suspect_conns,
        suspect_rntis,
        dominant_cause,
        trace: (notice.trace != 0).then_some(notice.trace),
    }
}

fn dominant_setup_cause(records: &[UeMobiFlow]) -> Option<EstablishmentCause> {
    let mut counts: Vec<(EstablishmentCause, usize)> = Vec::new();
    for r in records {
        if r.msg != MessageKind::RrcSetupRequest {
            continue;
        }
        let Some(cause) = r.establishment_cause else { continue };
        match counts.iter_mut().find(|(c, _)| *c == cause) {
            Some((_, n)) => *n += 1,
            None => counts.push((cause, 1)),
        }
    }
    counts.into_iter().max_by_key(|(_, n)| *n).map(|(c, _)| c)
}

impl XApp for Mitigator {
    fn name(&self) -> &str {
        "mitigator"
    }

    fn on_records(
        &mut self,
        ctx: &mut XAppContext<'_>,
        _records: &[UeMobiFlow],
        window_end: Timestamp,
    ) {
        // Telemetry windows are the mitigator's clock: advance TTL/retry
        // bookkeeping and ship anything (re)due.
        let mut state = self.state.lock();
        state.clock = state.clock.max(window_end);
        let now = state.clock;
        state.executor.tick(now);
        ship_due(&mut state, now, ctx, &self.obs);
    }

    fn on_message(&mut self, ctx: &mut XAppContext<'_>, topic: &str, payload: &[u8]) {
        match topic {
            FINDINGS_TOPIC => {
                let Ok(notice) = serde_json::from_slice::<FindingNotice>(payload) else {
                    self.undecodable.inc();
                    return;
                };
                self.handle_finding(ctx, &notice);
            }
            A1_POLICY_TOPIC => {
                // The envelope is checked against the router registry
                // (identity, token, per-op A1 grant) before the store is
                // touched; anything else — a failed check, a bare request,
                // bytes that parse as neither — is counted + flight-recorded
                // and goes no further: no status reply, no tally.
                let router = ctx.scope.router();
                let Ok(signed) = serde_json::from_slice::<A1SignedRequest>(payload) else {
                    let op = serde_json::from_slice::<A1Request>(payload)
                        .map_or("malformed", |bare| bare.op());
                    router.deny("unsigned", &xsec_ric::Capability::a1(op).label());
                    return;
                };
                let cap = xsec_ric::Capability::a1(signed.request.op());
                if !router.verify(&signed.xapp, signed.token, &cap) {
                    router.deny(&signed.xapp, &cap.label());
                    return;
                }
                let request = signed.request;
                let mut state = self.state.lock();
                let response = state.policy.apply(&request);
                state.a1_ops.record(response.outcome);
                self.obs
                    .counter(
                        "xsec_a1_policy_ops_total",
                        &[("op", request.op()), ("outcome", response.outcome.label())],
                    )
                    .inc();
                drop(state);
                if let Ok(json) = serde_json::to_vec(&response) {
                    ctx.publish(A1_POLICY_STATUS_TOPIC, &json);
                }
            }
            CONTROL_ACKS_TOPIC => {
                let Some(&flag) = payload.first() else { return };
                // Traced acks ([success][trace BE]) correlate by trace id —
                // robust to cross-agent reordering and broadcast fan-out;
                // bare one-byte acks settle FIFO as before.
                let ack_trace = (payload.len() == 9)
                    .then(|| u64::from_be_bytes(payload[1..9].try_into().unwrap()))
                    .filter(|t| *t != 0);
                let mut state = self.state.lock();
                let now = state.clock;
                if let Some(res) = state.executor.on_ack_traced(flag != 0, ack_trace, now) {
                    let outcome = if res.success { "acked" } else { "failed" };
                    self.obs
                        .counter(
                            &format!("xsec_control_actions_{outcome}_total"),
                            &[("kind", res.kind)],
                        )
                        .inc();
                    let trace = res.trace.unwrap_or(0);
                    let mut latency_us = 0;
                    if let Some(latency) = res.detection_to_ack {
                        latency_us = latency.as_micros();
                        self.obs
                            .histogram("xsec_control_detection_to_ack_us", &[("kind", res.kind)])
                            .observe_with_exemplar(latency_us, trace);
                    }
                    // The ack closes the causal chain: detection → policy →
                    // control → enforcement → acknowledged.
                    self.obs.recorder.record_stage(FlightEvent {
                        trace,
                        stage: TraceStage::Ack,
                        at_us: now.as_micros(),
                        a: u64::from(res.success),
                        b: latency_us,
                    });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_control::{ControlAction, MitigationAction};
    use xsec_proto::Direction;
    use xsec_ric::{Grants, Router, RouterHandle, XAppIdentity};

    /// A fresh router with the mitigator registered on it under `grants`.
    fn mitigator_scope(grants: Grants) -> (Router, RouterHandle) {
        let router = Router::new();
        let scope = router.register(XAppIdentity::named("mitigator"), grants).unwrap();
        (router, scope)
    }

    fn record(conn: u32, rnti: u16, msg: MessageKind) -> UeMobiFlow {
        UeMobiFlow {
            msg_id: 0,
            timestamp: Timestamp(1_000),
            cell: CellId(1),
            rnti: Rnti(rnti),
            du_ue_id: conn,
            direction: Direction::Uplink,
            msg,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: Some(EstablishmentCause::MoSignalling),
            release_cause: None,
        }
    }

    fn notice(attacks: Vec<String>, records: &[UeMobiFlow]) -> FindingNotice {
        FindingNotice {
            trace: 0,
            at_record: 10,
            at_time: Timestamp(1_000),
            score: 0.5,
            threshold: 0.1,
            anomalous: true,
            confirmed: true,
            needs_human: false,
            attacks,
            records: records.iter().map(xsec_mobiflow::encode_ue_record).collect(),
        }
    }

    #[test]
    fn assessment_names_attack_and_scopes_flood_suspects() {
        let records = vec![
            record(1, 0x4601, MessageKind::RrcSetupRequest),
            record(2, 0x4602, MessageKind::RrcSetupRequest),
            record(2, 0x4602, MessageKind::RrcSetup),
            record(3, 0x4603, MessageKind::NasRegistrationRequest),
        ];
        let n = notice(vec!["Signaling storm / RRC flooding DoS (BTS DoS)".into()], &records);
        let decoded: Vec<UeMobiFlow> =
            n.records.iter().map(|l| decode_ue_record(l).unwrap()).collect();
        let a = assess(&n, &decoded);
        assert_eq!(a.attack, Some(AttackKind::BtsDos));
        assert!(a.confidence > 0.6, "confidence {}", a.confidence);
        assert!(a.llm_confirmed);
        // Only the setup-request connections are implicated, not conn 3.
        assert_eq!(a.suspect_conns, vec![1, 2]);
        assert_eq!(a.dominant_cause, Some(EstablishmentCause::MoSignalling));
    }

    #[test]
    fn null_cipher_assessment_implicates_only_downgraded_sessions() {
        let mut clean = record(1, 0x4601, MessageKind::NasRegistrationAccept);
        clean.cipher_alg = Some(CipherAlg::Nea2);
        clean.integrity_alg = Some(IntegrityAlg::Nia2);
        let mut tainted = record(2, 0x4602, MessageKind::NasRegistrationAccept);
        tainted.cipher_alg = Some(CipherAlg::Nea0);
        tainted.integrity_alg = Some(IntegrityAlg::Nia0);
        let n = notice(
            vec!["Security capability bidding-down (null cipher & integrity)".into()],
            &[clean, tainted],
        );
        let decoded: Vec<UeMobiFlow> =
            n.records.iter().map(|l| decode_ue_record(l).unwrap()).collect();
        let a = assess(&n, &decoded);
        assert_eq!(a.attack, Some(AttackKind::NullCipher));
        assert_eq!(a.suspect_conns, vec![2]);
    }

    #[test]
    fn summary_percentile_and_budget_classification() {
        let mut summary = MitigationSummary::default();
        assert!(summary.detection_to_ack_p99().is_none());
        summary.detection_to_ack_us = vec![20_000, 40_000, 100_000];
        assert_eq!(summary.detection_to_ack_p99(), Some(Duration::from_millis(100)));
        assert_eq!(summary.budget_class(), Some(LatencyClass::WithinBudget));
    }

    #[test]
    fn mitigator_issues_controls_for_confirmed_findings_and_tracks_acks() {
        let (mut mitigator, state) = Mitigator::new(PolicyEngine::default());
        let sdl = xsec_ric::SharedDataLayer::new();
        let (_router, scope) =
            mitigator_scope(Grants::none().control("rate-limit-cause").control("blacklist-rnti"));
        let mut control = Vec::new();

        let records = vec![
            record(1, 0x4601, MessageKind::RrcSetupRequest),
            record(2, 0x4602, MessageKind::RrcSetupRequest),
        ];
        let n = notice(vec!["Signaling storm / RRC flooding DoS (BTS DoS)".into()], &records);
        {
            let mut ctx =
                xsec_ric::XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };
            mitigator.on_message(&mut ctx, FINDINGS_TOPIC, &serde_json::to_vec(&n).unwrap());
        }
        // Rate-limit + two blacklists, all shipped immediately and pinned to
        // the finding's cell so the RIC routes them to the owning agent.
        assert_eq!(control.len(), 3);
        for out in &control {
            assert_eq!(out.cell, Some(CellId(1)));
            ControlAction::decode(&out.payload).unwrap();
        }
        assert!(matches!(
            ControlAction::decode(&control[0].payload).unwrap().action,
            MitigationAction::RateLimitCause { .. }
        ));

        // Acks resolve in FIFO order against the mitigator clock.
        let mut ack_out = Vec::new();
        let mut ctx =
            xsec_ric::XAppContext { sdl: &sdl, scope: &scope, control_out: &mut ack_out };
        mitigator.on_message(&mut ctx, CONTROL_ACKS_TOPIC, &[1]);
        mitigator.on_message(&mut ctx, CONTROL_ACKS_TOPIC, &[1]);
        mitigator.on_message(&mut ctx, CONTROL_ACKS_TOPIC, &[0]);
        let summary = state.lock().summary();
        assert_eq!((summary.issued, summary.acked, summary.failed), (3, 2, 1));
        assert_eq!(summary.detection_to_ack_us.len(), 2);
    }

    #[test]
    fn undecodable_evidence_lines_are_counted_and_the_rest_still_scoped() {
        let obs = Obs::new();
        let (mut mitigator, _state) = Mitigator::with_obs(PolicyEngine::default(), obs.clone());
        let sdl = xsec_ric::SharedDataLayer::new();
        let (_router, scope) =
            mitigator_scope(Grants::none().control("rate-limit-cause").control("blacklist-rnti"));
        let mut control = Vec::new();
        let records = vec![
            record(1, 0x4601, MessageKind::RrcSetupRequest),
            record(2, 0x4602, MessageKind::RrcSetupRequest),
        ];
        let mut n = notice(vec!["Signaling storm / RRC flooding DoS (BTS DoS)".into()], &records);
        n.records.insert(1, "v2;UE;not;a;record".into());
        let mut ctx = xsec_ric::XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };
        mitigator.on_message(&mut ctx, FINDINGS_TOPIC, &serde_json::to_vec(&n).unwrap());
        // The same three actions the two well-formed lines earn on their own.
        assert_eq!(control.len(), 3);
        let exposition = obs.metrics.render_prometheus();
        assert!(
            exposition.contains("xsec_alert_records_dropped_total{site=\"mitigator\"} 1\n"),
            "{exposition}"
        );
    }

    #[test]
    fn malformed_findings_are_counted_and_ignored() {
        let obs = Obs::new();
        let (mut mitigator, state) = Mitigator::with_obs(PolicyEngine::default(), obs.clone());
        let dropped = "xsec_bus_dropped_total{reason=\"undecodable\",site=\"mitigator\"}";
        assert!(obs.metrics.render_prometheus().contains(&format!("{dropped} 0\n")));
        let sdl = xsec_ric::SharedDataLayer::new();
        let (_router, scope) = mitigator_scope(Grants::none().control("rate-limit-cause"));
        let mut control = Vec::new();
        let mut ctx = xsec_ric::XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };
        mitigator.on_message(&mut ctx, FINDINGS_TOPIC, b"not json");
        mitigator.on_message(&mut ctx, FINDINGS_TOPIC, b"{\"trace\":1}");
        assert!(control.is_empty());
        let state = state.lock();
        assert!(state.executor.outcomes().is_empty() && state.supervised.is_empty());
        assert_eq!(state.clock, Timestamp::ZERO);
        let exposition = obs.metrics.render_prometheus();
        assert!(exposition.contains(&format!("{dropped} 2\n")), "{exposition}");
    }

    #[test]
    fn a1_requests_mutate_the_live_policy_and_answer_on_status_topic() {
        let obs = Obs::new();
        let (mut mitigator, state) = Mitigator::with_obs(PolicyEngine::default(), obs.clone());
        let sdl = xsec_ric::SharedDataLayer::new();
        let (router, scope) = mitigator_scope(
            Grants::none().publish(A1_POLICY_STATUS_TOPIC).control("quarantine-cell"),
        );
        let smo = router
            .register(
                XAppIdentity::named("smo"),
                Grants::none().subscribe(A1_POLICY_STATUS_TOPIC).a1("update").a1("query"),
            )
            .unwrap();
        let status_rx = smo.subscribe(A1_POLICY_STATUS_TOPIC);
        let signed = |request| {
            let envelope = A1SignedRequest { xapp: "smo".into(), token: smo.token(), request };
            serde_json::to_vec(&envelope).unwrap()
        };
        let mut control = Vec::new();
        let mut ctx =
            xsec_ric::XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };

        // Swap the null-cipher playbook to quarantine, then query.
        let mut rule = xsec_control::default_rules()
            .into_iter()
            .find(|r| r.id == "null-cipher")
            .unwrap();
        rule.templates = vec![xsec_control::ActionTemplate::QuarantineCell];
        mitigator.on_message(&mut ctx, A1_POLICY_TOPIC, &signed(A1Request::UpdatePolicy { rule }));
        mitigator.on_message(&mut ctx, A1_POLICY_TOPIC, &signed(A1Request::QueryStatus));

        let first: xsec_control::A1Response =
            serde_json::from_slice(&status_rx.try_recv().unwrap()).unwrap();
        assert_eq!(first.outcome, xsec_control::PolicyOpOutcome::Superseded);
        assert_eq!((first.op.as_str(), first.version), ("update", 2));
        let second: xsec_control::A1Response =
            serde_json::from_slice(&status_rx.try_recv().unwrap()).unwrap();
        assert_eq!(second.status.len(), 5);

        // The very next detection uses the swapped rule.
        let mut tainted = record(2, 0x4602, MessageKind::NasRegistrationAccept);
        tainted.cipher_alg = Some(CipherAlg::Nea0);
        let n = notice(
            vec!["Security capability bidding-down (null cipher & integrity)".into()],
            &[tainted],
        );
        mitigator.on_message(&mut ctx, FINDINGS_TOPIC, &serde_json::to_vec(&n).unwrap());
        assert_eq!(control.len(), 1);
        assert!(matches!(
            ControlAction::decode(&control[0].payload).unwrap().action,
            MitigationAction::QuarantineCell { .. }
        ));

        let summary = state.lock().summary();
        assert_eq!(summary.policy_ops.superseded, 1);
        assert_eq!(summary.policy_ops.applied, 1);
        assert_eq!(obs.snapshot().counter_total("xsec_a1_policy_ops_total"), 2);
    }

    #[test]
    fn enforcing_router_requires_a_verifiable_a1_envelope() {
        let (mut mitigator, state) = Mitigator::new(PolicyEngine::default());
        let sdl = xsec_ric::SharedDataLayer::new();
        // The mitigator must hold the status-reply publish grant or its own
        // answers get denied.
        let (router, scope) = mitigator_scope(Grants::none().publish(A1_POLICY_STATUS_TOPIC));
        let obs = Obs::new();
        router.attach_obs(&obs);
        let smo =
            router.register(XAppIdentity::named("smo"), Grants::none().a1("set-enabled")).unwrap();
        let mut control = Vec::new();
        let mut ctx =
            xsec_ric::XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };
        let rules_before = state.lock().policy.status();

        // Bytes that are neither an envelope nor a request: denied, counted.
        mitigator.on_message(&mut ctx, A1_POLICY_TOPIC, b"\x00not json at all");
        assert_eq!(router.denied(), 1);
        let garbage = &obs.recorder.denials()[0];
        assert_eq!((garbage.xapp.as_str(), garbage.capability.as_str()), ("unsigned", "a1:malformed"));

        let disable = A1Request::SetEnabled { id: "null-cipher".into(), enabled: false };
        // Bare request: denied, store untouched.
        mitigator.on_message(&mut ctx, A1_POLICY_TOPIC, &serde_json::to_vec(&disable).unwrap());
        // Forged token: denied.
        let forged = A1SignedRequest {
            xapp: "smo".into(),
            token: smo.token().wrapping_add(1),
            request: disable.clone(),
        };
        mitigator.on_message(&mut ctx, A1_POLICY_TOPIC, &serde_json::to_vec(&forged).unwrap());
        // Op outside the sender's A1 grant: denied.
        let ungranted = A1SignedRequest {
            xapp: "smo".into(),
            token: smo.token(),
            request: A1Request::DeletePolicy { id: "null-cipher".into() },
        };
        mitigator.on_message(&mut ctx, A1_POLICY_TOPIC, &serde_json::to_vec(&ungranted).unwrap());
        assert_eq!(state.lock().a1_ops.total(), 0);
        assert_eq!(state.lock().policy.status(), rules_before, "policy store moved");
        assert_eq!(router.denied(), 4);
        assert_eq!(obs.snapshot().counter_total("xsec_authz_denied_total"), 4);
        assert_eq!(obs.recorder.denials()[1].capability, "a1:set-enabled");

        // The genuine envelope within the grant goes through.
        let signed =
            A1SignedRequest { xapp: "smo".into(), token: smo.token(), request: disable };
        mitigator.on_message(&mut ctx, A1_POLICY_TOPIC, &serde_json::to_vec(&signed).unwrap());
        assert_eq!(state.lock().a1_ops.applied, 1);
        assert_eq!(router.denied(), 4);
    }

    #[test]
    fn unconfirmed_findings_land_in_supervision() {
        let (mut mitigator, state) = Mitigator::new(PolicyEngine::default());
        let sdl = xsec_ric::SharedDataLayer::new();
        let (_router, scope) = mitigator_scope(Grants::none());
        let mut control = Vec::new();
        let mut ctx =
            xsec_ric::XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };
        let records = vec![record(1, 0x4601, MessageKind::RrcSetupRequest)];
        let mut n = notice(vec!["Signaling storm / RRC flooding DoS (BTS DoS)".into()], &records);
        n.needs_human = true;
        mitigator.on_message(&mut ctx, FINDINGS_TOPIC, &serde_json::to_vec(&n).unwrap());
        assert!(control.is_empty());
        let state = state.lock();
        assert_eq!(state.supervised.len(), 1);
        assert!(state.executor.outcomes().is_empty());
    }
}
