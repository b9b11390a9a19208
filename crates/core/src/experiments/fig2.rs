//! Figure 2 — the message-ladder illustrations, regenerated from simulation.
//!
//! (a) a benign registration next to a downlink identity-extraction victim's
//! ladder (the `Auth. Req → Iden. Resp` inversion), and (b) the BTS DoS
//! flood: repeated truncated ladders, each on a fresh RNTI.

use serde::{Deserialize, Serialize};
use xsec_attacks::DatasetBuilder;
use xsec_mobiflow::{extract_from_events, UeMobiFlow};
use xsec_types::AttackKind;

/// One rendered ladder: `(direction, message, rnti)` per rung.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ladder {
    /// Caption.
    pub title: String,
    /// Rungs: `(is_uplink, message name, rnti hex)`.
    rungs: Vec<(bool, String, String)>,
}

impl Ladder {
    fn from_records(title: &str, records: &[&UeMobiFlow]) -> Ladder {
        Ladder {
            title: title.to_string(),
            rungs: records
                .iter()
                .map(|r| {
                    (r.direction.is_uplink(), r.msg.name().to_string(), format!("{}", r.rnti))
                })
                .collect(),
        }
    }

    /// Renders the ladder as ASCII art (UE on the left, RAN on the right).
    pub fn render(&self) -> String {
        let mut out = format!("{}\n  UE {:^34} RAN\n", self.title, "");
        for (uplink, msg, _) in &self.rungs {
            if *uplink {
                out.push_str(&format!("   |--- {msg:^28} -->|\n"));
            } else {
                out.push_str(&format!("   |<-- {msg:^28} ---|\n"));
            }
        }
        out
    }
}

/// The figure: three ladders.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Result {
    /// A benign registration (the left ladder of Figure 2a).
    pub benign: Ladder,
    /// The identity-extraction victim's ladder (the right ladder of 2a).
    identity_extraction: Ladder,
    /// The first few flood ladders of Figure 2b (with their RNTIs).
    dos_flood: Vec<Ladder>,
}

impl Fig2Result {
    /// Renders all ladders.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 2(a): benign vs. identity extraction\n\n");
        out.push_str(&self.benign.render());
        out.push('\n');
        out.push_str(&self.identity_extraction.render());
        out.push_str("\nFigure 2(b): RAN DoS flood (note the fresh RNTI per ladder)\n\n");
        for ladder in &self.dos_flood {
            out.push_str(&ladder.render());
            out.push('\n');
        }
        out
    }
}

/// Extracts the ladder of the connection that exposes a SUPI.
fn victim_ladder(records: &[UeMobiFlow]) -> Ladder {
    let victim_conn = records
        .iter()
        .find(|r| r.supi.is_some())
        .map(|r| r.du_ue_id)
        .expect("an exposure exists in the dataset");
    let rungs: Vec<&UeMobiFlow> =
        records.iter().filter(|r| r.du_ue_id == victim_conn).collect();
    Ladder::from_records("Identity extraction victim:", &rungs)
}

/// Runs the figure regeneration.
pub fn run(seed: u64, sessions: usize) -> Fig2Result {
    // Benign ladder: first completed session of a benign run.
    let benign_report = DatasetBuilder::small(seed, sessions).benign();
    let benign_stream = extract_from_events(&benign_report.events);
    let first_conn = benign_stream.records[0].du_ue_id;
    let benign_rungs: Vec<&UeMobiFlow> = benign_stream
        .records
        .iter()
        .filter(|r| r.du_ue_id == first_conn)
        .take(10)
        .collect();
    let benign = Ladder::from_records("Benign registration:", &benign_rungs);

    // Identity extraction (downlink variant, Figure 2a right).
    let ds = DatasetBuilder::small(seed + 1, sessions).attack(AttackKind::DownlinkIdExtraction);
    let stream = extract_from_events(&ds.report.events);
    let attack_records: Vec<UeMobiFlow> = stream
        .records
        .iter()
        .zip(&stream.labels)
        .filter(|(_, l)| l.is_attack())
        .map(|(r, _)| r.clone())
        .collect();
    // Include the victim's whole connection (benign prefix + attack tail).
    let victim_conn = attack_records[0].du_ue_id;
    let victim_all: Vec<UeMobiFlow> = stream
        .records
        .iter()
        .filter(|r| r.du_ue_id == victim_conn)
        .cloned()
        .collect();
    let identity_extraction = victim_ladder(&victim_all.clone());

    // BTS DoS flood ladders.
    let ds = DatasetBuilder::small(seed + 2, sessions).attack(AttackKind::BtsDos);
    let stream = extract_from_events(&ds.report.events);
    let mut flood_conns: Vec<u32> = Vec::new();
    for (r, l) in stream.records.iter().zip(&stream.labels) {
        if l.is_attack() && !flood_conns.contains(&r.du_ue_id) {
            flood_conns.push(r.du_ue_id);
        }
        if flood_conns.len() == 3 {
            break;
        }
    }
    let dos_flood: Vec<Ladder> = flood_conns
        .iter()
        .map(|conn| {
            let rungs: Vec<&UeMobiFlow> =
                stream.records.iter().filter(|r| r.du_ue_id == *conn).collect();
            let rnti = rungs.first().map(|r| format!("{}", r.rnti)).unwrap_or_default();
            Ladder::from_records(&format!("Flood connection (RNTI {rnti}):"), &rungs)
        })
        .collect();

    Fig2Result { benign, identity_extraction, dos_flood }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_reproduces_the_papers_ladders() {
        let fig = run(41, 20);
        // Benign: starts with the RRC triple then registration.
        let names: Vec<&str> = fig.benign.rungs.iter().map(|(_, m, _)| m.as_str()).collect();
        assert_eq!(names[0], "RRCSetupRequest");
        assert!(names.contains(&"RegistrationRequest"));
        assert!(names.contains(&"AuthenticationRequest"));
        assert!(names.contains(&"AuthenticationResponse"));

        // Identity extraction: Auth. Req answered by Iden. Resp (2a).
        let names: Vec<&str> =
            fig.identity_extraction.rungs.iter().map(|(_, m, _)| m.as_str()).collect();
        let auth_pos = names.iter().position(|m| *m == "AuthenticationRequest").unwrap();
        assert_eq!(
            names[auth_pos + 1],
            "IdentityResponse",
            "expected the Figure 2a inversion, got {names:?}"
        );

        // Flood: 3 ladders, all truncated after the challenge, distinct RNTIs.
        assert_eq!(fig.dos_flood.len(), 3);
        let mut rntis = Vec::new();
        for ladder in &fig.dos_flood {
            let names: Vec<&str> = ladder.rungs.iter().map(|(_, m, _)| m.as_str()).collect();
            assert!(names.contains(&"AuthenticationRequest"));
            assert!(!names.contains(&"AuthenticationResponse"));
            rntis.push(ladder.rungs[0].2.clone());
        }
        rntis.dedup();
        assert_eq!(rntis.len(), 3, "flood RNTIs must differ");

        // Rendering is non-empty and mentions both figures.
        let text = fig.render();
        assert!(text.contains("Figure 2(a)"));
        assert!(text.contains("Figure 2(b)"));
    }
}
