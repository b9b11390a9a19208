//! Capability-scoped xApp authorization, end to end: a rogue tenant xApp
//! on a hardened deployment is denied at every choke point (router topic
//! ACLs, Mitigator A1 envelope verification, per-kind control gate), every
//! denial is counted and flight-recorded — and the authorized trio's
//! detections and incident traces are byte-identical whether or not the
//! rogue shares the platform with it.

use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::ScaleDeployment;
use xsec_attacks::{DatasetBuilder, RogueXApp};
use xsec_mobiflow::{extract_from_events, TelemetryStream};
use xsec_ric::{Grants, SubscriptionSpec, XAppIdentity};
use xsec_types::{AttackKind, CellId};

fn trained(seed: u64) -> Pipeline {
    Pipeline::train(&PipelineConfig::small(seed, 12))
}

fn flood_stream(seed: u64) -> TelemetryStream {
    let ds = DatasetBuilder::small(seed, 12).attack(AttackKind::BtsDos);
    extract_from_events(&ds.report.events)
}

#[test]
fn rogue_xapp_is_denied_at_every_choke_point() {
    let pipeline = trained(71);
    let (rogue, report) = RogueXApp::new(0xBAD, CellId(1));
    let mut d = ScaleDeployment::with_extra_xapps(
        &pipeline,
        2,
        vec![(
            Box::new(rogue),
            SubscriptionSpec::telemetry(pipeline.config().report_period_ms),
            // Granted nothing at all: every move must die at the router or
            // the control gate.
            Grants::none(),
        )],
    );
    // The router is sealed once the deployment is wired: no identity can
    // be minted mid-run.
    assert!(
        d.platform().register_identity(XAppIdentity::named("late"), Grants::none()).is_err(),
        "sealed router still accepted a registration"
    );

    d.run_stream(&flood_stream(1_071));
    let outcome = d.outcome();
    let rogue = *report.lock().expect("rogue report");

    // The rogue ran and achieved nothing.
    assert!(rogue.attempts > 0, "the rogue was never invoked");
    assert_eq!(rogue.findings_delivered, 0, "spoofed finding reached a mailbox");
    assert_eq!(rogue.a1_delivered, 0, "rogue A1 publish reached a mailbox");
    assert_eq!(rogue.controls_queued, 0, "injected control was queued");

    // Every denial is counted with its identity and capability...
    let denied = outcome.metrics.counter_total("xsec_authz_denied_total");
    // findings + 2 × a1-policies + quarantine-cell per round.
    assert!(denied >= rogue.attempts * 4, "denials undercounted: {denied} for {rogue:?}");
    // ...and flight-recorded so the rogue shows up in incidents.jsonl.
    let jsonl = d.incidents_digest();
    assert!(jsonl.contains(r#""stage":"authz_deny""#), "no denial records in incidents export");
    assert!(jsonl.contains(r#""xapp":"rogue""#), "denials not attributed to the rogue");
    assert!(
        jsonl.contains(r#""capability":"publish:findings""#),
        "router choke point missing from export"
    );
    assert!(
        jsonl.contains(r#""capability":"control:quarantine-cell""#),
        "control choke point missing from export"
    );

    // The legitimate closed loop kept working around the rogue.
    assert!(outcome.flagged_windows > 0, "detection broke under authorization");
    assert!(outcome.mitigation.issued > 0, "mitigation broke under authorization");
}

#[test]
fn forged_a1_envelopes_die_at_the_mitigator() {
    // Defense in depth: this rogue *does* hold the a1-policies publish
    // grant, so its operations reach the mitigator's mailbox — where bare
    // requests are refused as unsigned and the forged SMO envelope fails
    // token verification. The policy store must stay untouched.
    let pipeline = trained(72);
    let (rogue, report) = RogueXApp::new(0xF00D, CellId(1));
    let mut d = ScaleDeployment::with_extra_xapps(
        &pipeline,
        2,
        vec![(
            Box::new(rogue),
            SubscriptionSpec::telemetry(pipeline.config().report_period_ms),
            Grants::none().publish("a1-policies"),
        )],
    );
    d.run_stream(&flood_stream(1_072));
    let outcome = d.outcome();
    let rogue = *report.lock().expect("rogue report");

    assert!(rogue.a1_delivered > 0, "granted publishes should reach the mailbox");
    assert_eq!(
        outcome.mitigation.policy_ops.total(),
        0,
        "a rogue A1 operation reached the policy store"
    );
    // Both mitigator-side denials are attributed: the bare request as
    // "unsigned", the forged envelope against the claimed identity.
    let jsonl = d.incidents_digest();
    assert!(jsonl.contains(r#""xapp":"unsigned""#), "bare-request denial missing");
    assert!(jsonl.contains(r#""xapp":"smo""#), "forged-envelope denial missing");
    assert!(outcome.metrics.counter_total("xsec_authz_denied_total") > 0);
}

#[test]
fn contained_rogue_leaves_the_trio_byte_identical() {
    // Tenant isolation: a rogue granted nothing mounts its whole repertoire
    // on every window, and the only trace it leaves is its own denials.
    // The same traffic with and without it produces byte-identical
    // detections and — denial records aside — incident traces, and the
    // clean run records zero denials.
    let mut config = PipelineConfig::small(73, 12);
    config.scoring_shards = 2;
    let pipeline = Pipeline::train(&config);
    let stream = flood_stream(1_073);

    let mut clean = ScaleDeployment::new(&pipeline, 2);
    clean.run_stream(&stream);
    let (rogue, report) = RogueXApp::new(0xBAD, CellId(1));
    let mut hosted = ScaleDeployment::with_extra_xapps(
        &pipeline,
        2,
        vec![(
            Box::new(rogue),
            SubscriptionSpec::telemetry(pipeline.config().report_period_ms),
            Grants::none(),
        )],
    );
    hosted.run_stream(&stream);
    assert!(report.lock().expect("rogue report").attempts > 0, "the rogue was never invoked");

    // The rogue's own denial records are the one permitted difference.
    let trio_lines = |d: &ScaleDeployment| -> Vec<String> {
        let jsonl = d.incidents_digest();
        jsonl.lines().filter(|l| !l.contains(r#""stage":"authz_deny""#)).map(String::from).collect()
    };
    assert!(!clean.detections_digest().is_empty(), "clean run detected nothing");
    assert_eq!(
        clean.detections_digest(),
        hosted.detections_digest(),
        "a contained rogue changed the detections"
    );
    let clean_lines = trio_lines(&clean);
    assert!(!clean_lines.is_empty(), "clean run recorded no incidents");
    assert_eq!(
        clean_lines.len(),
        clean.incidents_digest().lines().count(),
        "the clean run exported a denial record"
    );
    assert_eq!(clean_lines, trio_lines(&hosted), "a contained rogue changed the incident traces");
    assert_eq!(
        clean.outcome().metrics.counter_total("xsec_authz_denied_total"),
        0,
        "the authorized trio was denied something"
    );
    assert!(
        hosted.outcome().metrics.counter_total("xsec_authz_denied_total") > 0,
        "the rogue's attempts went uncounted"
    );
}
