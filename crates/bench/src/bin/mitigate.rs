//! Closed-loop mitigation report: runs the live detect→decide→enforce loop
//! for the two enforceable end-to-end scenarios (BTS DoS flood, null-cipher
//! bidding-down), reports per-action outcomes and detection→ack latency,
//! and asserts the p99 sits inside the near-RT control window (10 ms–1 s).

use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::{LiveSim, ScaleDeployment, ScaleOutcome};
use xsec_attacks::{attack_simulator, sustained_flood_simulator, DatasetBuilder};
use xsec_control::default_rules;
use xsec_ran::sim::SimReport;
use xsec_ric::LatencyClass;
use xsec_types::{AttackKind, Duration};

fn render(name: &str, baseline_attack: usize, outcome: &ScaleOutcome, report: &SimReport) -> String {
    let snap = &outcome.metrics;
    let m = &outcome.mitigation;
    let mut text = format!("== {name} ==\n");
    text.push_str(&format!(
        "  attack events: {} baseline -> {} mitigated ({} benign registrations kept)\n",
        baseline_attack,
        report.attack_events().count(),
        report.registrations,
    ));
    text.push_str(&format!(
        "  actions: {} issued, {} acked, {} failed, {} expired, {} exhausted, {} supervised\n",
        m.issued, m.acked, m.failed, m.expired, m.exhausted, m.supervised,
    ));
    text.push_str(&format!(
        "  A1 policy ops: {} applied, {} superseded, {} rejected\n",
        m.policy_ops.applied, m.policy_ops.superseded, m.policy_ops.rejected,
    ));
    for (at, action) in &outcome.enforced {
        text.push_str(&format!(
            "    enforced t={:>6.2}s  #{:<3} {:<16} ttl={}s\n",
            at.as_secs_f64(),
            action.id,
            action.action.name(),
            action.ttl.as_millis() / 1000,
        ));
    }
    let gnb = &report.gnb_stats;
    text.push_str(&format!(
        "  gNB enforcement: {} MAC drops, {} blacklist drops, {} forced re-auths\n",
        gnb.mitigation_dropped, gnb.blacklist_dropped, gnb.forced_reauth,
    ));
    match (m.detection_to_ack_p99(), m.budget_class()) {
        (Some(p99), Some(class)) => {
            text.push_str(&format!(
                "  detection->ack p99: {:.1} ms ({class:?})\n",
                p99.as_micros() as f64 / 1000.0,
            ));
            assert_ne!(
                class,
                LatencyClass::OverBudget,
                "{name}: p99 {p99:?} blew the 1 s near-RT control budget"
            );
        }
        _ => text.push_str("  detection->ack p99: (no acked actions)\n"),
    }
    text.push_str("  stage latency breakdown (wall clock):\n");
    text.push_str(&xsec_bench::render_stage_latencies(snap, xsec_bench::PIPELINE_STAGES));
    text
}

fn main() {
    let quick = xsec_bench::quick_mode();
    let (sessions, connections) = if quick { (12, 200) } else { (20, 300) };

    eprintln!("mitigate: training the detector ...");
    let pipeline = Pipeline::train(&PipelineConfig::small(31, sessions));
    let mut text = String::from("Closed-loop mitigation: detection -> E2 Control -> enforcement\n\n");

    eprintln!("mitigate: closed loop: BTS DoS flood ...");
    let baseline = sustained_flood_simulator(31, sessions, connections).run();
    // Runtime rule install over A1: before the flood starts, the SMO hook
    // stretches the BTS DoS playbook's TTL from 10 s to 12 s on the live
    // mitigator — the enforced actions below carry the swapped TTL.
    let mut d = ScaleDeployment::new(&pipeline, 1);
    let a1 = d.a1_client();
    let mut swapped = false;
    let mut ran = LiveSim::new(sustained_flood_simulator(31, sessions, connections), |_, _| {
        if !swapped {
            swapped = true;
            let mut rule = default_rules()
                .into_iter()
                .find(|r| r.id == "bts-dos")
                .expect("shipped bts-dos rule");
            rule.ttl = Duration::from_secs(12);
            a1.update(rule).expect("a1 update");
            a1.query_status().expect("a1 query");
        }
    });
    let outcome = d.drive(&mut ran);
    text.push_str(&render(
        "BTS DoS (sustained RRC flood)",
        baseline.attack_events().count(),
        &outcome,
        &ran.sim.finish(),
    ));

    eprintln!("mitigate: closed loop: null cipher ...");
    let mut cfg = DatasetBuilder::small(33, sessions).scenario;
    cfg.sim.horizon = Duration::from_secs(20);
    let baseline = attack_simulator(AttackKind::NullCipher, &cfg).run();
    let mut ran = LiveSim::new(attack_simulator(AttackKind::NullCipher, &cfg), |_, _| {});
    text.push('\n');
    text.push_str(&render(
        "Null cipher (bidding-down MiTM)",
        baseline.attack_events().count(),
        &ScaleDeployment::new(&pipeline, 1).drive(&mut ran),
        &ran.sim.finish(),
    ));

    let recorder = &d.obs().recorder;
    let incidents = recorder.incidents();
    text.push_str(&format!(
        "\nflight recorder: {} incident trace(s) captured ({} dropped)\n",
        incidents.len(),
        recorder.dropped_incidents(),
    ));
    for incident in &incidents {
        let stages: Vec<&str> = incident.events.iter().map(|e| e.stage.name()).collect();
        text.push_str(&format!("  trace {}: {}\n", incident.trace, stages.join(" -> ")));
    }

    println!("{text}");
    xsec_bench::save_report("mitigate", &text);
    // The flood run exercises every stage; its snapshot is the canonical
    // per-run exposition CI asserts on, and its incident traces are the
    // replayable detection->ack artifacts (incidents.jsonl + Perfetto).
    xsec_bench::save_metrics(&outcome.metrics, "metrics");
    xsec_bench::save_incidents(recorder, "incidents");
}
