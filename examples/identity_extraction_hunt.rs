//! Identity-extraction hunt: mount both identity-extraction attacks
//! (downlink/LTrack and uplink/AdaptOver), print the victim's message
//! ladder and what the expert engine finds on it, and show why the uplink
//! variant is the hard case: its trace is standards-compliant, so only
//! content-level analysis catches it — and only *some* "LLMs" (model
//! personalities) do.
//!
//! ```sh
//! cargo run --release --example identity_extraction_hunt
//! ```

use xsec_attacks::DatasetBuilder;
use xsec_llm::{
    AnalysisSignal, ExpertEngine, LlmBackend, ModelPersonality, ParsedResponse, PromptTemplate,
    SimulatedExpert,
};
use xsec_mobiflow::extract_from_events;
use xsec_types::AttackKind;

fn main() {
    for kind in [AttackKind::DownlinkIdExtraction, AttackKind::UplinkIdExtraction] {
        println!("==== {} ({}) ====", kind.short_name(), kind.citation());
        let ds = DatasetBuilder::small(42 + kind as u64, 30).attack(kind);
        let stream = extract_from_events(&ds.report.events);

        // Find the exposure and print the victim's ladder around it.
        let exposure_idx = stream
            .records
            .iter()
            .position(|r| r.supi.is_some())
            .expect("the attack exposes a SUPI");
        let victim_conn = stream.records[exposure_idx].du_ue_id;
        println!("victim connection {victim_conn}; message ladder:");
        let victim: Vec<_> =
            stream.records.iter().filter(|r| r.du_ue_id == victim_conn).cloned().collect();
        for r in &victim {
            let marker = if r.supi.is_some() { "  <-- SUPI IN PLAINTEXT" } else { "" };
            println!("  {} {}{}", r.direction, r.msg.name(), marker);
        }

        // The expert's view: does the sequence violate the 24.501 procedures?
        let signals = ExpertEngine.analyze(&victim);
        let ordering = signals
            .iter()
            .filter(|s| matches!(s, AnalysisSignal::OrderingViolation { .. }))
            .count();
        println!(
            "\nexpert check: {} ordering violations, plaintext disclosure: {}",
            ordering,
            signals.iter().any(|s| matches!(s, AnalysisSignal::PlaintextIdentityExposure { .. }))
        );
        if ordering == 0 {
            println!("  -> every message is individually legal (the hard case)");
        }

        // Ask all five model personalities about the trace (window ± context).
        let start = exposure_idx.saturating_sub(40);
        let end = (exposure_idx + 8).min(stream.records.len());
        let prompt = PromptTemplate::default().render(&stream.records[start..end]);
        println!("\nzero-shot verdicts:");
        for personality in ModelPersonality::ALL {
            let mut backend = SimulatedExpert::new(personality);
            let answer = backend.complete(&prompt).unwrap();
            let parsed = ParsedResponse::parse(&answer);
            println!(
                "  {:<16} {}",
                personality.name,
                if parsed.anomalous {
                    format!("ANOMALOUS — {}", parsed.attacks.first().cloned().unwrap_or_default())
                } else {
                    "benign (missed)".to_string()
                }
            );
        }
        println!();
    }
    println!(
        "Note how the downlink variant is caught by four of five models (the ordering\n\
         inversion is loud), while the compliant-looking uplink variant is caught only\n\
         by the one model that audits message *content* — matching the paper's Table 3."
    );
}
