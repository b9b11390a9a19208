//! Model personalities calibrated to the paper's Table 3.
//!
//! The paper evaluates five hosted LLMs zero-shot and records which traces
//! each classifies correctly. A personality models one hosted LLM as the
//! subset of [`AnalysisSignal`] classes it reliably perceives, plus a
//! rendering voice. The masks below reproduce Table 3 exactly:
//!
//! | Attack (dominant signal)          | GPT-4o | Gemini | Copilot | Llama3 | Claude 3 |
//! |---|---|---|---|---|---|
//! | BTS DoS (flood)                   | ✓ | ✓ | ✓ | ✗ | ✗ |
//! | Blind DoS (TMSI replay)           | ✓ | ✗ | ✗ | ✓ | ✗ |
//! | Uplink ID extr (compliant exposure)| ✗ | ✗ | ✗ | ✗ | ✓ |
//! | Downlink ID extr (ordering)       | ✓ | ✓ | ✗ | ✓ | ✓ |
//! | Null cipher (algorithm audit)     | ✓ | ✓ | ✗ | ✓ | ✓ |
//! | Benign traces                     | ✓ | ✓ | ✓ | ✓ | ✓ |
//!
//! No personality invents signals the engine did not find, so benign traces
//! are always classified correctly — matching the paper's observation that
//! all five models handled both benign sequences.

use crate::expert::AnalysisSignal;

/// Which analysis capabilities a simulated model exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelPersonality {
    /// Display name (matches Table 3's column headers).
    pub name: &'static str,
    /// Perceives signaling-rate anomalies (floods).
    sees_floods: bool,
    /// Perceives identifier reuse across sessions.
    sees_tmsi_replay: bool,
    /// Perceives procedure-ordering violations.
    sees_ordering: bool,
    /// Perceives *standards-compliant* plaintext identity exposures (the
    /// subtle content-level finding most models miss).
    sees_compliant_exposure: bool,
    /// Perceives null-algorithm negotiation.
    sees_null_security: bool,
}

impl ModelPersonality {
    /// ChatGPT-4o: the strongest baseline — misses only the compliant
    /// uplink extraction.
    pub const CHATGPT_4O: ModelPersonality = ModelPersonality {
        name: "ChatGPT-4o",
        sees_floods: true,
        sees_tmsi_replay: true,
        sees_ordering: true,
        sees_compliant_exposure: false,
        sees_null_security: true,
    };

    /// Gemini: misses replay relations and the compliant exposure.
    const GEMINI: ModelPersonality = ModelPersonality {
        name: "Gemini",
        sees_floods: true,
        sees_tmsi_replay: false,
        sees_ordering: true,
        sees_compliant_exposure: false,
        sees_null_security: true,
    };

    /// Copilot: only the loud volumetric anomaly.
    const COPILOT: ModelPersonality = ModelPersonality {
        name: "Copilot",
        sees_floods: true,
        sees_tmsi_replay: false,
        sees_ordering: false,
        sees_compliant_exposure: false,
        sees_null_security: false,
    };

    /// Llama3: strong on relations and content, blind to rates.
    pub const LLAMA3: ModelPersonality = ModelPersonality {
        name: "Llama3",
        sees_floods: false,
        sees_tmsi_replay: true,
        sees_ordering: true,
        sees_compliant_exposure: false,
        sees_null_security: true,
    };

    /// Claude 3 Sonnet: the only baseline catching the compliant exposure,
    /// blind to the volumetric/replay relations.
    const CLAUDE_3_SONNET: ModelPersonality = ModelPersonality {
        name: "Claude 3 Sonnet",
        sees_floods: false,
        sees_tmsi_replay: false,
        sees_ordering: true,
        sees_compliant_exposure: true,
        sees_null_security: true,
    };

    /// All five Table 3 baselines, in column order.
    pub const ALL: [ModelPersonality; 5] = [
        Self::CHATGPT_4O,
        Self::GEMINI,
        Self::COPILOT,
        Self::LLAMA3,
        Self::CLAUDE_3_SONNET,
    ];

    /// An idealized analyst perceiving every signal class (useful as an
    /// upper bound and for the Figure 5 rendering).
    pub const ORACLE: ModelPersonality = ModelPersonality {
        name: "Expert",
        sees_floods: true,
        sees_tmsi_replay: true,
        sees_ordering: true,
        sees_compliant_exposure: true,
        sees_null_security: true,
    };

    /// Whether this model perceives the given signal.
    pub fn perceives(&self, signal: &AnalysisSignal) -> bool {
        match signal {
            AnalysisSignal::SignalingFlood { .. } => self.sees_floods,
            AnalysisSignal::TmsiReplay { .. } => self.sees_tmsi_replay,
            AnalysisSignal::OrderingViolation { .. } => self.sees_ordering,
            AnalysisSignal::PlaintextIdentityExposure { compliant_position, .. } => {
                if *compliant_position {
                    self.sees_compliant_exposure
                } else {
                    // A blatant exposure accompanies an ordering violation;
                    // models that reason about ordering notice it.
                    self.sees_ordering
                }
            }
            AnalysisSignal::NullSecurity { .. } => self.sees_null_security,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_types::{Plmn, Supi, Tmsi};

    fn signals() -> Vec<AnalysisSignal> {
        vec![
            AnalysisSignal::SignalingFlood { setups: 10, distinct_rntis: 10, stalled: 8 },
            AnalysisSignal::TmsiReplay { tmsi: Tmsi(1), connections: 3 },
            AnalysisSignal::OrderingViolation {
                conn: 1,
                got: xsec_proto::MessageKind::NasIdentityResponse,
                expected: "AuthenticationResponse",
            },
            AnalysisSignal::PlaintextIdentityExposure {
                conn: 1,
                supi: Supi::new(Plmn::TEST, 1),
                compliant_position: true,
            },
            AnalysisSignal::NullSecurity { conn: 1 },
        ]
    }

    #[test]
    fn masks_reproduce_table3_perception() {
        let sig = signals();
        // Column: flood, replay, ordering, compliant exposure, null.
        let expect = [
            ("ChatGPT-4o", [true, true, true, false, true]),
            ("Gemini", [true, false, true, false, true]),
            ("Copilot", [true, false, false, false, false]),
            ("Llama3", [false, true, true, false, true]),
            ("Claude 3 Sonnet", [false, false, true, true, true]),
        ];
        for (model, row) in ModelPersonality::ALL.iter().zip(expect) {
            assert_eq!(model.name, row.0);
            for (signal, want) in sig.iter().zip(row.1) {
                assert_eq!(
                    model.perceives(signal),
                    want,
                    "{} on {:?}",
                    model.name,
                    signal
                );
            }
        }
    }

    #[test]
    fn oracle_sees_everything() {
        for s in signals() {
            assert!(ModelPersonality::ORACLE.perceives(&s));
        }
    }

    #[test]
    fn blatant_exposure_follows_ordering_perception() {
        let blatant = AnalysisSignal::PlaintextIdentityExposure {
            conn: 1,
            supi: Supi::new(Plmn::TEST, 1),
            compliant_position: false,
        };
        assert!(ModelPersonality::CHATGPT_4O.perceives(&blatant));
        assert!(!ModelPersonality::COPILOT.perceives(&blatant));
    }
}
