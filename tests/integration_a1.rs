//! A1 runtime policy management, end to end: the SMO-side
//! [`A1PolicyClient`] installs, swaps, rejects, and disables policy rules
//! on a *live* mitigation xApp over the platform router, and the emitted
//! E2 Control Actions observably change between detections.

use sixg_xsec::mitigator::{
    FindingNotice, Mitigator, A1_POLICY_STATUS_TOPIC, A1_POLICY_TOPIC, CONTROL_ACKS_TOPIC,
    FINDINGS_TOPIC,
};
use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::{LiveSim, ScaleDeployment};
use sixg_xsec::smo::A1PolicyClient;
use xsec_attacks::attack_simulator;
use xsec_control::{
    default_rules, ActionTemplate, ControlAction, MitigationAction, PolicyEngine,
    PolicyOpOutcome, PolicyRule,
};
use xsec_e2::{in_proc_pair, InProcTransport, RicAgent, RicAgentConfig};
use xsec_mobiflow::UeMobiFlow;
use xsec_obs::Obs;
use xsec_proto::{Direction, MessageKind};
use xsec_ran::scenario::ScenarioConfig;
use xsec_ric::{Grants, RicPlatform, RouterHandle, SubscriptionSpec, XAppIdentity};
use xsec_types::{
    AttackKind, CellId, CipherAlg, Duration, GnbId, IntegrityAlg, Rnti, Timestamp,
};

fn null_cipher_rule_with(templates: Vec<ActionTemplate>) -> PolicyRule {
    let mut rule = default_rules()
        .into_iter()
        .find(|r| r.id == "null-cipher")
        .expect("shipped null-cipher rule");
    rule.templates = templates;
    rule
}

fn downgraded_record(conn: u32, rnti: u16, at: Timestamp) -> UeMobiFlow {
    UeMobiFlow {
        msg_id: 0,
        timestamp: at,
        cell: CellId(1),
        rnti: Rnti(rnti),
        du_ue_id: conn,
        direction: Direction::Downlink,
        msg: MessageKind::NasRegistrationAccept,
        tmsi: None,
        supi: None,
        cipher_alg: Some(CipherAlg::Nea0),
        integrity_alg: Some(IntegrityAlg::Nia0),
        establishment_cause: None,
        release_cause: None,
    }
}

fn finding(at: Timestamp, conn: u32, rnti: u16) -> FindingNotice {
    FindingNotice {
        trace: 0,
        at_record: 10,
        at_time: at,
        score: 0.5,
        threshold: 0.1,
        anomalous: true,
        confirmed: true,
        needs_human: false,
        attacks: vec!["Security capability bidding-down (null cipher & integrity)".into()],
        records: vec![downgraded_record(conn, rnti, at)],
    }
}

/// A minimal live deployment: one agent, one mitigator, the SMO's A1
/// client, and an `analyzer` identity for the test to publish findings as.
fn deploy_mitigator_only() -> (
    RicAgent<InProcTransport>,
    RicPlatform,
    std::sync::Arc<parking_lot::Mutex<sixg_xsec::MitigatorState>>,
    A1PolicyClient,
    RouterHandle,
) {
    let (agent_end, ric_end) = in_proc_pair();
    let mut agent = RicAgent::new(RicAgentConfig { gnb_id: GnbId(1), cell: CellId(1) }, agent_end)
        .expect("agent starts");
    let mut platform = RicPlatform::new();
    platform.add_agent(Box::new(ric_end));
    let (mitigator, state) = Mitigator::with_obs(PolicyEngine::default(), Obs::new());
    platform
        .register_xapp_scoped(
            Box::new(mitigator),
            SubscriptionSpec::topics_only(&[FINDINGS_TOPIC, CONTROL_ACKS_TOPIC, A1_POLICY_TOPIC]),
            Grants::none()
                .subscribe(FINDINGS_TOPIC)
                .subscribe(CONTROL_ACKS_TOPIC)
                .subscribe(A1_POLICY_TOPIC)
                .publish(A1_POLICY_STATUS_TOPIC)
                .control("release-ue")
                .control("quarantine-cell"),
        )
        .expect("register mitigator");
    let smo = platform
        .register_identity(
            XAppIdentity::named("smo"),
            Grants::none()
                .publish(A1_POLICY_TOPIC)
                .subscribe(A1_POLICY_STATUS_TOPIC)
                .a1("query")
                .a1("update")
                .a1("set-enabled"),
        )
        .expect("register smo");
    let analyzer = platform
        .register_identity(XAppIdentity::named("analyzer"), Grants::none().publish(FINDINGS_TOPIC))
        .expect("register analyzer");
    platform.seal();
    for _ in 0..3 {
        platform.pump().expect("pump");
        agent.poll(Timestamp::ZERO).expect("agent poll");
    }
    (agent, platform, state, A1PolicyClient::scoped(smo), analyzer)
}

fn decoded_controls(agent: &mut RicAgent<InProcTransport>) -> Vec<ControlAction> {
    agent
        .take_control_requests()
        .iter()
        .map(|p| ControlAction::decode(p).expect("control payload decodes"))
        .collect()
}

#[test]
fn smo_install_detect_update_detect_sequence() {
    let (mut agent, mut platform, state, a1, analyzer) = deploy_mitigator_only();

    // The shipped inventory answers a status query: five enabled v1 rules.
    assert_eq!(a1.query_status().expect("mitigator subscribed to the A1 topic"), 1);
    platform.pump().expect("pump");
    let responses = a1.drain_responses();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].status.len(), 5);
    assert!(responses[0].status.iter().all(|s| s.version == 1 && s.enabled));

    // Detection #1 under the installed rule: the downgraded session is
    // released.
    let t1 = Timestamp(1_000_000);
    analyzer.publish(FINDINGS_TOPIC, &finding(t1, 7, 0x4601).encode());
    platform.pump().expect("pump");
    agent.poll(t1).expect("agent poll");
    let first = decoded_controls(&mut agent);
    assert!(!first.is_empty(), "no control actions for detection #1");
    assert!(
        first.iter().all(|c| matches!(c.action, MitigationAction::ReleaseUe { .. })),
        "default null-cipher playbook must release: {first:?}"
    );

    // Hot-swap the playbook mid-run: quarantine instead of release.
    a1.update(null_cipher_rule_with(vec![ActionTemplate::QuarantineCell])).expect("a1 update");
    platform.pump().expect("pump");
    let responses = a1.drain_responses();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].outcome, PolicyOpOutcome::Superseded);
    assert_eq!(responses[0].version, 2);

    // Detection #2, still inside the old rule's cooldown TTL: the swap
    // cleared the cooldown, and the *updated* rule decides.
    let t2 = Timestamp(3_000_000);
    analyzer.publish(FINDINGS_TOPIC, &finding(t2, 8, 0x4602).encode());
    platform.pump().expect("pump");
    agent.poll(t2).expect("agent poll");
    let second = decoded_controls(&mut agent);
    assert_eq!(second.len(), 1, "quarantine emits exactly one action: {second:?}");
    assert!(
        matches!(second[0].action, MitigationAction::QuarantineCell { cell: CellId(1) }),
        "detection #2 must use the swapped playbook: {:?}",
        second[0].action
    );

    // Out-of-schema updates are rejected and leave the store untouched.
    let mut bad = null_cipher_rule_with(vec![ActionTemplate::QuarantineCell]);
    bad.ttl = Duration::from_secs(500);
    a1.update(bad).expect("a1 update delivered (rejection happens mitigator-side)");
    platform.pump().expect("pump");
    let responses = a1.drain_responses();
    assert_eq!(responses[0].outcome, PolicyOpOutcome::RejectedByValidation);
    assert!(responses[0].detail.contains("ttl"), "detail: {}", responses[0].detail);
    let nc = responses[0].status.iter().find(|s| s.id == "null-cipher").unwrap();
    assert_eq!(nc.version, 2, "rejected update must not bump the version");

    // Disabling the rule escalates the next detection to supervision.
    a1.set_enabled("null-cipher", false).expect("a1 set-enabled");
    platform.pump().expect("pump");
    a1.drain_responses();
    let t3 = Timestamp(20_000_000);
    analyzer.publish(FINDINGS_TOPIC, &finding(t3, 9, 0x4603).encode());
    platform.pump().expect("pump");
    agent.poll(t3).expect("agent poll");
    assert!(decoded_controls(&mut agent).is_empty(), "disabled rule still acted");
    {
        let state = state.lock();
        assert_eq!(state.supervised.len(), 1);
        assert!(state.supervised[0].reason.contains("disabled"));
        // query + set-enabled applied; one superseded; one rejected.
        let ops = state.summary().policy_ops;
        assert_eq!((ops.applied, ops.superseded, ops.rejected), (2, 1, 1));
    }
}

#[test]
fn closed_loop_hot_swap_changes_enforced_actions() {
    let pipeline = Pipeline::train(&PipelineConfig::small(33, 15));
    let mut cfg = ScenarioConfig::default();
    cfg.sim.seed = 33;
    cfg.benign_sessions = 20;
    cfg.sim.horizon = Duration::from_secs(20);

    // Under the shipped playbook the downgraded sessions are released.
    let sim = attack_simulator(AttackKind::NullCipher, &cfg);
    let default_run = ScaleDeployment::new(&pipeline, 1).drive(&mut LiveSim::new(sim, |_, _| {}));
    assert!(
        default_run
            .enforced
            .iter()
            .any(|(_, c)| matches!(c.action, MitigationAction::ReleaseUe { .. })),
        "default playbook enforced no releases"
    );

    // Same scenario, but an SMO hook swaps the playbook in the first report
    // bucket — before any detection lands — so every emitted Control
    // Action changes shape.
    let mut d = ScaleDeployment::new(&pipeline, 1);
    let a1 = d.a1_client();
    let mut swapped = false;
    let hot = d.drive(&mut LiveSim::new(attack_simulator(AttackKind::NullCipher, &cfg), |_, _| {
        if !swapped {
            swapped = true;
            a1.update(null_cipher_rule_with(vec![ActionTemplate::QuarantineCell]))
                .expect("a1 update");
            a1.query_status().expect("a1 query");
        }
    }));
    assert!(swapped, "the SMO hook never ran");
    assert!(
        hot.enforced
            .iter()
            .any(|(_, c)| matches!(c.action, MitigationAction::QuarantineCell { .. })),
        "hot-swapped playbook enforced no quarantine: {:?}",
        hot.enforced
    );
    assert!(
        !hot.enforced
            .iter()
            .any(|(_, c)| matches!(c.action, MitigationAction::ReleaseUe { .. })),
        "hot-swapped run still released sessions"
    );

    // The operation feedback is visible in the run outcome: the tally in
    // the mitigation summary and the labelled obs counter in the snapshot.
    let ops = hot.mitigation.policy_ops;
    assert_eq!(ops.superseded, 1, "the live update was not applied: {ops:?}");
    assert!(ops.applied >= 1, "the status query was not answered: {ops:?}");
    assert!(
        hot.metrics.counter_total("xsec_a1_policy_ops_total") >= 2,
        "A1 ops missing from the metrics snapshot"
    );
}
