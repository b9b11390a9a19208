//! Rogue-xApp containment report: deploys the standard trio *plus* a
//! malicious tenant xApp on a sealed multi-agent RIC,
//! replays an attack stream, and shows that every rogue move — spoofed
//! findings, bare and forged-envelope A1 operations, injected
//! QuarantineCell controls — dies at an authorization choke point while the
//! legitimate closed loop keeps working. Writes the denial-bearing metrics
//! and incident artifacts CI asserts on (`rogue_metrics.{prom,json}`,
//! `rogue_incidents.jsonl`).

use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::ScaleDeployment;
use xsec_attacks::{DatasetBuilder, RogueXApp};
use xsec_mobiflow::extract_from_events;
use xsec_ric::{Grants, SubscriptionSpec};
use xsec_types::{AttackKind, CellId};

fn main() {
    let quick = xsec_bench::quick_mode();
    let sessions = if quick { 12 } else { 20 };

    eprintln!("rogue: training the detector ...");
    let config = PipelineConfig::small(41, sessions);
    let pipeline = Pipeline::train(&config);

    eprintln!("rogue: deploying trio + rogue on a hardened platform ...");
    let (rogue, rogue_report) = RogueXApp::new(0xBAD_F00D, CellId(1));
    let mut d = ScaleDeployment::with_extra_xapps(
        &pipeline,
        2,
        vec![(
            Box::new(rogue),
            SubscriptionSpec::telemetry(pipeline.config().report_period_ms),
            // Defense in depth on display: the rogue legitimately holds the
            // a1-policies *publish* grant, so its operations reach the
            // mitigator's mailbox — and die at envelope verification there
            // instead of at the router.
            Grants::none().publish("a1-policies"),
        )],
    );

    let ds = DatasetBuilder::small(1_041, sessions).attack(AttackKind::BtsDos);
    let stream = extract_from_events(&ds.report.events);
    d.run_stream(&stream);

    let outcome = d.outcome();
    let rogue = *rogue_report.lock().expect("rogue report");
    let denied = outcome.metrics.counter_total("xsec_authz_denied_total");

    let mut text = String::from("Rogue xApp vs capability-scoped authorization\n\n");
    text.push_str(&format!(
        "  rogue attack rounds: {} (finding spoof + bare A1 + forged A1 + quarantine each)\n",
        rogue.attempts,
    ));
    text.push_str(&format!(
        "  rogue deliveries: {} findings, {} A1 ops (mailbox only), {} controls queued\n",
        rogue.findings_delivered, rogue.a1_delivered, rogue.controls_queued,
    ));
    text.push_str(&format!(
        "  authorization denials: {denied} (xsec_authz_denied_total)\n"
    ));
    text.push_str(&format!(
        "  policy store after the run: {} A1 ops applied (rogue ops must not count)\n",
        outcome.mitigation.policy_ops.total(),
    ));
    text.push_str(&format!(
        "  legitimate loop: {} windows flagged, {} findings, {} actions issued, {} acked\n",
        outcome.flagged_windows,
        outcome.findings,
        outcome.mitigation.issued,
        outcome.mitigation.acked,
    ));

    // The containment contract, asserted where the artifacts are made.
    assert!(rogue.attempts > 0, "the rogue was never invoked");
    assert!(denied > 0, "no authorization denials recorded");
    assert_eq!(rogue.findings_delivered, 0, "spoofed finding reached a mailbox");
    assert_eq!(rogue.controls_queued, 0, "injected control was queued");
    assert_eq!(
        outcome.mitigation.policy_ops.total(),
        0,
        "a rogue A1 op reached the policy store"
    );
    assert!(outcome.flagged_windows > 0, "legitimate detection broke under authz");
    assert!(outcome.mitigation.issued > 0, "legitimate mitigation broke under authz");
    text.push_str("\n  contained: every rogue action denied; the closed loop kept working\n");

    println!("{text}");
    xsec_bench::save_report("rogue", &text);
    xsec_bench::save_metrics(&outcome.metrics, "rogue_metrics");
    xsec_bench::save_incidents(&d.obs().recorder, "rogue_incidents");
}
