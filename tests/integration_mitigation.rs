//! End-to-end closed-loop mitigation: detection → policy → E2 Control →
//! RAN enforcement, demonstrated on two live attack scenarios.
//!
//! These tests drive a one-agent [`ScaleDeployment`] with the [`LiveSim`]
//! feed, which steps a live [`RanSimulator`] one report period at a time,
//! routes its telemetry through the full RIC stack (agent → E2 → MobiWatch
//! → LLM analyzer → mitigator), and applies every Control Request back onto
//! the simulated gNB mid-run — so mitigation changes the traffic the rest of
//! the run produces, and its effect is measured against an unmitigated
//! baseline of the *same* scenario and seed.

use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::{LiveSim, ScaleDeployment, ScaleOutcome};
use xsec_attacks::{
    attack_simulator, sustained_flood_simulator, DatasetBuilder, SUSTAINED_FLOOD_GAP,
    SUSTAINED_FLOOD_START,
};
use xsec_control::MitigationAction;
use xsec_ric::LatencyClass;
use xsec_types::{AttackKind, Duration};

const FLOOD_CONNECTIONS: u32 = 300;

fn assert_loop_closed_within_budget(outcome: &ScaleOutcome) {
    let mitigation = &outcome.mitigation;
    assert!(mitigation.issued > 0, "no control actions issued");
    assert!(mitigation.acked > 0, "no control actions acked");
    // Detection→ack p99 must sit inside the near-RT RIC control window.
    let class = mitigation.budget_class().expect("acked actions have latencies");
    assert_ne!(
        class,
        LatencyClass::OverBudget,
        "p99 {:?} blew the 1 s near-RT budget",
        mitigation.detection_to_ack_p99()
    );
}

#[test]
fn closed_loop_throttles_a_sustained_bts_dos_flood() {
    let pipeline = Pipeline::train(&PipelineConfig::small(31, 15));

    // Unmitigated baseline: same scenario, same seed, nobody acts.
    let baseline = sustained_flood_simulator(31, 15, FLOOD_CONNECTIONS).run();
    let baseline_attack = baseline.attack_events().count();
    assert!(baseline_attack > 300, "baseline flood too small: {baseline_attack}");

    let mut ran = LiveSim::new(sustained_flood_simulator(31, 15, FLOOD_CONNECTIONS), |_, _| {});
    let outcome = ScaleDeployment::new(&pipeline, 1).drive(&mut ran);
    let report = ran.sim.finish();
    let closed_attack = report.attack_events().count();

    // The policy's flood playbook reached the gNB: a rate limit on the
    // flood's establishment cause (plus RNTI blacklists for the stalled
    // contexts), and the MAC visibly dropped attack frames.
    let rate_limited_at = outcome
        .enforced
        .iter()
        .find(|(_, c)| matches!(c.action, MitigationAction::RateLimitCause { .. }))
        .map(|(at, _)| *at)
        .expect("a rate-limit control must be enforced");
    assert!(
        report.gnb_stats.mitigation_dropped > 50,
        "MAC dropped only {} mitigated frames",
        report.gnb_stats.mitigation_dropped
    );

    // The flood is cut hard relative to the unmitigated run...
    assert!(
        closed_attack * 2 < baseline_attack,
        "mitigation did not bite: {closed_attack} attack events vs {baseline_attack} baseline"
    );

    // ...and once enforcement lands (plus grace for frames already in
    // flight), the attack-event *rate* collapses to near zero even though
    // the attacker keeps trying until the flood's natural end. The yardstick
    // is the *unmitigated* run's rate over the same flood — measuring the
    // mitigated run's own pre-enforcement window would penalize fast
    // enforcement, which shrinks that window to the flood's ramp-up.
    let grace = rate_limited_at + Duration::from_millis(500);
    let flood_end = SUSTAINED_FLOOD_START + Duration::from_micros(
        SUSTAINED_FLOOD_GAP.as_micros() * u64::from(FLOOD_CONNECTIONS),
    );
    assert!(grace + Duration::from_secs(2) < flood_end, "enforcement came too late to measure");
    let after = report.attack_events().filter(|e| e.at > grace).count();
    let baseline_rate =
        baseline_attack as f64 / flood_end.saturating_since(SUSTAINED_FLOOD_START).as_secs_f64();
    let rate_after = after as f64 / flood_end.saturating_since(grace).as_secs_f64();
    assert!(
        rate_after < 0.15 * baseline_rate,
        "post-mitigation attack rate {rate_after:.1}/s vs {baseline_rate:.1}/s unmitigated"
    );

    // Benign UEs keep their sessions: nearly everyone still registers.
    assert!(
        report.registrations >= 12,
        "mitigation collateral: only {} of 15 benign registrations",
        report.registrations
    );

    assert_loop_closed_within_budget(&outcome);
}

#[test]
fn closed_loop_tears_down_null_cipher_sessions() {
    let pipeline = Pipeline::train(&PipelineConfig::small(33, 15));

    let mut cfg = DatasetBuilder::small(33, 20).scenario;
    cfg.sim.horizon = Duration::from_secs(20);
    let baseline = attack_simulator(AttackKind::NullCipher, &cfg).run();
    let baseline_attack = baseline.attack_events().count();
    assert!(baseline_attack > 0, "baseline has no downgraded sessions");

    let mut ran = LiveSim::new(attack_simulator(AttackKind::NullCipher, &cfg), |_, _| {});
    let outcome = ScaleDeployment::new(&pipeline, 1).drive(&mut ran);
    let report = ran.sim.finish();

    // The policy released downgraded sessions (network-abort teardown).
    let releases: Vec<_> = outcome
        .enforced
        .iter()
        .filter(|(_, c)| matches!(c.action, MitigationAction::ReleaseUe { .. }))
        .collect();
    assert!(!releases.is_empty(), "no ReleaseUe control reached the gNB");

    // Tearing the sessions down cuts the attack-labeled traffic short
    // relative to letting the downgraded sessions run their course.
    let closed_attack = report.attack_events().count();
    assert!(
        closed_attack < baseline_attack,
        "teardown had no effect: {closed_attack} attack events vs {baseline_attack} baseline"
    );

    // The released victims re-attach: benign service continues.
    assert!(
        report.registrations >= 16,
        "only {} of 20 benign registrations after mitigation",
        report.registrations
    );

    assert_loop_closed_within_budget(&outcome);
}
