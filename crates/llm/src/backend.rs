//! LLM backends: the "model you can send a prompt to" abstraction.
//!
//! [`SimulatedExpert`] is the offline stand-in for the hosted LLMs the
//! paper queries: it reads the telemetry back out of the rendered prompt
//! (string-in/string-out, no side channels), runs the
//! [`crate::expert::ExpertEngine`], masks the findings through a
//! [`ModelPersonality`], and writes the answer in the shape Figure 5 shows.

use crate::expert::{AnalysisSignal, ExpertEngine};
use crate::personality::ModelPersonality;
use crate::prompt::PromptTemplate;
use xsec_mobiflow::decode_ue_record;
use xsec_types::{AttackKind, Result};

/// A model endpoint.
pub trait LlmBackend: Send {
    /// The model's display name.
    fn name(&self) -> &str;

    /// Sends a prompt, returns the completion.
    fn complete(&mut self, prompt: &str) -> Result<String>;
}

/// The simulated cellular-security expert.
pub struct SimulatedExpert {
    personality: ModelPersonality,
}

impl SimulatedExpert {
    /// An expert speaking as the given personality.
    pub fn new(personality: ModelPersonality) -> Self {
        SimulatedExpert { personality }
    }

    /// The five Table 3 baselines.
    pub fn all_baselines() -> Vec<SimulatedExpert> {
        ModelPersonality::ALL.into_iter().map(SimulatedExpert::new).collect()
    }

    fn explain(signal: &AnalysisSignal) -> String {
        match signal {
            AnalysisSignal::SignalingFlood { setups, distinct_rntis, stalled } => format!(
                "The window contains {setups} RRC connection setup requests from \
                 {distinct_rntis} distinct RNTIs in rapid succession, of which {stalled} \
                 stall after the authentication request without ever answering the \
                 challenge. The uniformity and rate of these incomplete handshakes \
                 indicate a signaling storm: fabricated connection attempts consuming \
                 gNodeB resources rather than genuine devices registering."
            ),
            AnalysisSignal::TmsiReplay { tmsi, connections } => format!(
                "The temporary identifier 5G-S-TMSI {tmsi} appears across {connections} \
                 supposedly independent UE sessions. A TMSI is bound to one subscriber; \
                 its recurrence on different connections indicates the identifier is \
                 being replayed by another transmitter, which tricks the network into \
                 tearing down the legitimate subscriber's session."
            ),
            AnalysisSignal::OrderingViolation { conn, got, expected } => format!(
                "On connection {conn}, the network received {got} where the 5G NAS \
                 procedure grammar expects {expected}. A UE only answers the message it \
                 was actually shown — this inversion indicates the downlink message was \
                 overwritten in flight by an adversarial relay."
            ),
            AnalysisSignal::PlaintextIdentityExposure { conn, supi, compliant_position } => {
                if *compliant_position {
                    format!(
                        "On connection {conn}, the subscriber's permanent identity {supi} \
                         crossed the air interface in plaintext inside an identity \
                         procedure that is itself standards-compliant. Every message is \
                         individually legal, but a healthy 5G registration resolves \
                         identity via concealed SUCIs — a resolution failure that \
                         conveniently forces the plaintext fallback is the signature of \
                         an uplink overshadowing attack harvesting identities."
                    )
                } else {
                    format!(
                        "On connection {conn}, the permanent identity {supi} was \
                         transmitted in plaintext outside any legitimate identity \
                         procedure, exposing the subscriber to tracking."
                    )
                }
            }
            AnalysisSignal::NullSecurity { conn } => format!(
                "Connection {conn} negotiated NEA0/NIA0 — the null ciphering and null \
                 integrity algorithms — so the session runs with no confidentiality or \
                 integrity protection at all. Commodity devices and networks support \
                 strong algorithms; landing on the null pair indicates the UE's security \
                 capabilities were stripped in flight (a bidding-down attack)."
            ),
        }
    }

    fn attack_blurb(kind: AttackKind) -> (&'static str, &'static str, &'static str) {
        match kind {
            AttackKind::BtsDos => (
                "Signaling storm / RRC flooding DoS (BTS DoS)",
                "excessive load on the gNodeB's connection table locks legitimate \
                 subscribers out of the cell",
                "rate-limit connection setups per radio fingerprint, shorten the setup \
                 guard timer, and prioritize admission for devices that complete \
                 authentication",
            ),
            AttackKind::BlindDos => (
                "TMSI replay denial of service (Blind DoS)",
                "the victim subscriber is silently detached whenever the replayed \
                 identity reappears, denying it service",
                "reallocate the victim's 5G-S-TMSI immediately and require \
                 re-authentication before acting on identity conflicts",
            ),
            AttackKind::UplinkIdExtraction => (
                "Uplink identity extraction (adaptive overshadowing)",
                "the permanent identity is harvested for persistent location tracking \
                 of the subscriber",
                "disable the plaintext identity fallback, require SUCI re-concealment \
                 on resolution failure, and audit the cell for uplink overshadowing",
            ),
            AttackKind::DownlinkIdExtraction => (
                "Downlink identity extraction (MiTM identity request injection)",
                "the permanent identity is harvested, enabling tracking, and the \
                 presence of an in-path relay threatens all unprotected signaling",
                "reject plaintext identity responses arriving while an authentication \
                 challenge is outstanding and investigate the serving area for rogue \
                 relays",
            ),
            AttackKind::NullCipher => (
                "Security capability bidding-down (null cipher & integrity)",
                "all traffic of the downgraded session is readable and forgeable over \
                 the air",
                "enforce a minimum-algorithm policy at the AMF and release any session \
                 that negotiates NEA0/NIA0 outside emergency procedures",
            ),
        }
    }
}

impl LlmBackend for SimulatedExpert {
    fn name(&self) -> &str {
        self.personality.name
    }

    fn complete(&mut self, prompt: &str) -> Result<String> {
        let Some(lines) = PromptTemplate::extract_data(prompt) else {
            return Ok("Verdict: BENIGN\nI could not find any telemetry data in the \
                       request, so there is nothing to flag."
                .to_string());
        };
        let Ok(records) = lines.map(decode_ue_record).collect::<Result<Vec<_>>>() else {
            return Ok("Verdict: BENIGN\nThe provided data does not parse as \
                       telemetry records; no assessment is possible."
                .to_string());
        };

        let report = ExpertEngine.analyze(&records);
        let perceived: Vec<&AnalysisSignal> =
            report.signals.iter().filter(|s| self.personality.perceives(s)).collect();

        if perceived.is_empty() {
            return Ok(format!(
                "Verdict: BENIGN\nThe sequence follows the expected 5G registration \
                 ladder: RRC establishment, registration, a successful authentication \
                 exchange, security-mode negotiation with strong algorithms, and an \
                 orderly completion. Identifiers evolve as the procedures prescribe and \
                 nothing is transmitted that should be concealed. ({} records reviewed.)",
                records.len()
            ));
        }

        let mut attacks: Vec<AttackKind> = Vec::new();
        for s in &perceived {
            let kind = s.implicates();
            if !attacks.contains(&kind) {
                attacks.push(kind);
            }
        }
        attacks.truncate(3);

        let mut out = String::from("Verdict: ANOMALOUS\n");
        for s in &perceived {
            out.push_str(&Self::explain(s));
            out.push_str("\n\n");
        }
        out.push_str("Top possible attacks:\n");
        for (i, kind) in attacks.iter().enumerate() {
            let (title, implication, _) = Self::attack_blurb(*kind);
            out.push_str(&format!("{}. {title} — {implication}.\n", i + 1));
        }
        out.push_str(
            "\nAttribution: the tampering originates at the radio edge — a rogue UE or \
             adversarial relay transmitting over the open air interface; internal network \
             elements show no signs of compromise.\n",
        );
        out.push_str("Recommended remediation:\n");
        for kind in &attacks {
            let (_, _, remedy) = Self::attack_blurb(*kind);
            out.push_str(&format!("- {remedy}.\n"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_mobiflow::UeMobiFlow;
    use xsec_proto::MessageKind;
    use xsec_types::{CellId, Rnti, Timestamp};

    fn ladder() -> Vec<UeMobiFlow> {
        use MessageKind as K;
        [
            K::RrcSetupRequest,
            K::RrcSetup,
            K::RrcSetupComplete,
            K::NasRegistrationRequest,
            K::NasAuthenticationRequest,
            K::NasAuthenticationResponse,
            K::NasSecurityModeCommand,
            K::NasSecurityModeComplete,
            K::NasRegistrationAccept,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| UeMobiFlow {
            msg_id: i as u64,
            timestamp: Timestamp(i as u64 * 1000),
            cell: CellId(1),
            rnti: Rnti(0x4601),
            du_ue_id: 1,
            direction: k.direction(),
            msg: k,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
        })
        .collect()
    }

    #[test]
    fn benign_trace_gets_benign_verdict_from_all_baselines() {
        let prompt = PromptTemplate::default().render(&ladder());
        for mut expert in SimulatedExpert::all_baselines() {
            let answer = expert.complete(&prompt).unwrap();
            assert!(
                answer.starts_with("Verdict: BENIGN"),
                "{} said: {answer}",
                expert.name()
            );
        }
    }

    #[test]
    fn flood_gets_signaling_storm_from_gpt4o_but_not_llama() {
        use MessageKind as K;
        let mut records = Vec::new();
        for conn in 1..=6u32 {
            for (i, k) in [
                K::RrcSetupRequest,
                K::RrcSetup,
                K::RrcSetupComplete,
                K::NasRegistrationRequest,
                K::NasAuthenticationRequest,
            ]
            .into_iter()
            .enumerate()
            {
                let mut r = ladder()[0].clone();
                r.msg_id = conn as u64 * 10 + i as u64;
                r.du_ue_id = conn;
                r.rnti = Rnti(0x4600 + conn as u16);
                r.msg = k;
                r.direction = k.direction();
                records.push(r);
            }
        }
        let prompt = PromptTemplate::default().render(&records);
        let mut gpt = SimulatedExpert::new(ModelPersonality::CHATGPT_4O);
        let answer = gpt.complete(&prompt).unwrap();
        assert!(answer.starts_with("Verdict: ANOMALOUS"), "{answer}");
        assert!(answer.contains("Signaling storm"), "{answer}");
        assert!(answer.contains("Recommended remediation"));

        let mut llama = SimulatedExpert::new(ModelPersonality::LLAMA3);
        let answer = llama.complete(&prompt).unwrap();
        assert!(answer.starts_with("Verdict: BENIGN"), "Llama3 should miss floods: {answer}");
    }

    #[test]
    fn garbage_prompts_do_not_crash() {
        let mut expert = SimulatedExpert::new(ModelPersonality::ORACLE);
        let a = expert.complete("hello").unwrap();
        assert!(a.contains("BENIGN"));
        let b = expert
            .complete("<DATA>\nnot a record\n</DATA>")
            .unwrap();
        assert!(b.contains("does not parse"));
    }
}
