//! The detection→action policy engine.
//!
//! The paper closes its loop at the analyst: MobiWatch flags a window, the
//! LLM explains it, a human decides. This module encodes the decision table
//! so the common cases close automatically while everything ambiguous still
//! lands in front of a person. A [`PolicyRule`] maps one attack kind to a
//! list of [`ActionTemplate`]s plus the evidence bar (confidence floor, LLM
//! confirmation) that must be met before the RIC may act on its own.
//!
//! The rule set is not compiled in: it lives in an A1-managed
//! [`PolicyStore`] (see [`crate::a1`]) seeded from the declarative
//! `default_policies.json` document, and [`PolicyEngine::apply`] lets the
//! SMO install, replace, disable, or withdraw rules mid-run.

use crate::a1::{
    default_policy_document, A1Request, A1Response, PolicyOpOutcome, PolicyStore, RuleStatus,
};
use crate::action::{ControlAction, MitigationAction};
use serde::{Deserialize, Serialize};
use xsec_types::{
    AttackKind, CellId, Duration, EstablishmentCause, ReleaseCause, Rnti, Timestamp,
};

/// Everything the policy engine knows about one detection: what the
/// detectors concluded and which network entities are implicated.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreatAssessment {
    /// The attack named by the analyzer, if it named one.
    pub attack: Option<AttackKind>,
    /// Detector confidence in [0, 1] (anomaly score scaled to threshold).
    pub confidence: f32,
    /// True when the cross-model personality check agreed (no
    /// `NeedsHumanReview` verdict).
    pub llm_confirmed: bool,
    /// Virtual time of the detection (latest record in the flagged window).
    pub detected_at: Timestamp,
    /// Cell the flagged telemetry came from.
    pub cell: CellId,
    /// DU connection ids implicated by the flagged records.
    pub suspect_conns: Vec<u32>,
    /// C-RNTIs implicated by the flagged records.
    pub suspect_rntis: Vec<Rnti>,
    /// Most common establishment cause among implicated setup requests.
    pub dominant_cause: Option<EstablishmentCause>,
    /// Causal trace id of the record that triggered the detection; stamped
    /// onto every action the policy engine instantiates for it.
    pub trace: Option<u64>,
}

/// Maps an LLM attack title (the analyzer's free-text naming) back to the
/// typed attack kind. Matching is phrase-based so minor wording drift in
/// the expert blurbs does not silently break the loop, while ordinary
/// vocabulary that merely *contains* a keyword (e.g. "nullable",
/// "annulled") never misclassifies.
pub fn attack_from_title(title: &str) -> Option<AttackKind> {
    let t = title.to_ascii_lowercase();
    if t.contains("bts dos") || t.contains("flooding") || t.contains("signaling storm") {
        Some(AttackKind::BtsDos)
    } else if t.contains("blind dos") || t.contains("tmsi replay") {
        Some(AttackKind::BlindDos)
    } else if t.contains("uplink identity") {
        Some(AttackKind::UplinkIdExtraction)
    } else if t.contains("downlink identity") || t.contains("mitm identity") {
        Some(AttackKind::DownlinkIdExtraction)
    } else if t.contains("null cipher")
        || t.contains("null integrity")
        || t.contains("ea0")
        || t.contains("ia0")
        || t.contains("bidding-down")
        || t.contains("bidding down")
    {
        Some(AttackKind::NullCipher)
    } else {
        None
    }
}

/// An action shape that still needs the assessment's entities filled in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActionTemplate {
    /// Release every suspect connection with the given cause.
    ReleaseSuspects {
        /// Release cause to send.
        cause: ReleaseCause,
    },
    /// Force every suspect connection through re-authentication.
    ForceReauthSuspects,
    /// Blacklist every suspect C-RNTI at the MAC.
    BlacklistSuspectRntis,
    /// Quarantine the whole cell (admission freeze).
    QuarantineCell,
    /// Rate-limit the dominant establishment cause of the flagged window.
    RateLimitDominantCause {
        /// Admissions allowed per window.
        max_setups: u16,
        /// Sliding window length.
        window: Duration,
    },
}

/// One row of the decision table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRule {
    /// Stable id the A1 interface addresses the rule by.
    pub id: String,
    /// Attack kind this rule fires on.
    pub attack: AttackKind,
    /// Minimum detector confidence for autonomous action.
    pub min_confidence: f32,
    /// Require the cross-model personality check to have agreed.
    pub require_llm_confirmation: bool,
    /// TTL stamped onto every action the rule emits.
    pub ttl: Duration,
    /// Actions to instantiate, in order.
    pub templates: Vec<ActionTemplate>,
}

/// What the engine decided to do with one assessment.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyDecision {
    /// Act autonomously: ship these control actions now.
    Act(Vec<ControlAction>),
    /// Below the autonomy bar — escalate to a human with this ticket.
    Supervise(SupervisionTicket),
    /// Nothing actionable (e.g. duplicate alert inside the cooldown).
    StandDown,
}

/// An escalation record for the human-supervision queue.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionTicket {
    /// The assessment that triggered the escalation.
    pub assessment: ThreatAssessment,
    /// Why the engine refused to act on its own.
    pub reason: String,
}

/// The A1-managed decision table plus per-(attack, cell) cooldown state.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    store: PolicyStore,
    next_id: u32,
    /// Per-(attack, cell) (kind, cell, acted_at, ttl) memo: while a
    /// mitigation for an attack in one cell is still live we suppress
    /// re-issuing it — MobiWatch keeps alerting on the same window for
    /// several report periods. Keying by cell keeps a detection in cell 1
    /// from muting autonomous action on the same attack in cell 2.
    cooldowns: Vec<(AttackKind, CellId, Timestamp, Duration)>,
}

impl Default for PolicyEngine {
    fn default() -> Self {
        PolicyEngine {
            store: PolicyStore::with_defaults(),
            next_id: 1,
            cooldowns: Vec::new(),
        }
    }
}

/// The default decision table, one rule per attack in the paper's taxonomy,
/// loaded from the declarative `default_policies.json` document.
///
/// BTS DoS floods fresh RNTIs, so blacklisting alone cannot keep up — the
/// lever is rate-limiting the `MoSignalling` establishment cause the flood
/// rides on. Null-cipher victims look benign on the wire; the remedy is
/// tearing down the downgraded sessions so re-attachment renegotiates real
/// algorithms without the MiTM's one-shot strip.
pub fn default_rules() -> Vec<PolicyRule> {
    default_policy_document().rules
}

impl PolicyEngine {
    /// Engine over an explicit rule table, validated against the default
    /// policy types.
    ///
    /// # Panics
    /// Panics if a rule fails schema validation — a compiled-in table that
    /// the schema rejects is a programming error, not an input error.
    #[cfg(test)]
    fn new(rules: Vec<PolicyRule>) -> Self {
        let mut store = PolicyStore::new(crate::a1::default_policy_types());
        for rule in rules {
            store
                .install(rule)
                .unwrap_or_else(|e| panic!("compiled-in rule fails validation: {e}"));
        }
        PolicyEngine { store, next_id: 1, cooldowns: Vec::new() }
    }

    /// Snapshot of every installed rule's live status.
    pub fn status(&self) -> Vec<RuleStatus> {
        self.store.status()
    }

    /// Applies one A1 policy operation to the live store and answers it.
    ///
    /// Any mutation that touches an attack kind also clears that kind's
    /// cooldowns, so a hot-swapped rule takes effect on the very next
    /// detection instead of waiting out the old rule's TTL.
    pub fn apply(&mut self, request: &A1Request) -> A1Response {
        let op = request.op().to_string();
        let id = request.target_id().to_string();
        let (outcome, version, detail) = match request {
            A1Request::CreatePolicy { rule } => match self.store.install(rule.clone()) {
                Ok(done) => {
                    self.clear_cooldowns(rule.attack);
                    (done.outcome, done.version, String::new())
                }
                Err(e) => (PolicyOpOutcome::RejectedByValidation, 0, e.to_string()),
            },
            A1Request::UpdatePolicy { rule } => match self.store.update(rule.clone()) {
                Ok(done) => {
                    self.clear_cooldowns(rule.attack);
                    (done.outcome, done.version, String::new())
                }
                Err(e) => (PolicyOpOutcome::RejectedByValidation, 0, e.to_string()),
            },
            A1Request::DeletePolicy { id } => match self.store.delete(id) {
                Ok(attack) => {
                    self.clear_cooldowns(attack);
                    (PolicyOpOutcome::Applied, 0, String::new())
                }
                Err(e) => (PolicyOpOutcome::RejectedByValidation, 0, e.to_string()),
            },
            A1Request::SetEnabled { id, enabled } => {
                match self.store.set_enabled(id, *enabled) {
                    Ok((attack, version)) => {
                        self.clear_cooldowns(attack);
                        (PolicyOpOutcome::Applied, version, String::new())
                    }
                    Err(e) => (PolicyOpOutcome::RejectedByValidation, 0, e.to_string()),
                }
            }
            A1Request::QueryStatus => (PolicyOpOutcome::Applied, 0, String::new()),
        };
        A1Response { op, id, outcome, version, detail, status: self.store.status() }
    }

    fn clear_cooldowns(&mut self, attack: AttackKind) {
        self.cooldowns.retain(|(k, _, _, _)| *k != attack);
    }

    /// Decides what to do about one assessment.
    pub fn decide(&mut self, assessment: &ThreatAssessment) -> PolicyDecision {
        let Some(attack) = assessment.attack else {
            return PolicyDecision::Supervise(SupervisionTicket {
                assessment: assessment.clone(),
                reason: "anomaly without a named attack — no autonomous playbook".into(),
            });
        };
        let Some(stored) = self.store.rule_for_attack(attack) else {
            return PolicyDecision::Supervise(SupervisionTicket {
                assessment: assessment.clone(),
                reason: format!("no policy rule for {attack}"),
            });
        };
        if !stored.enabled {
            return PolicyDecision::Supervise(SupervisionTicket {
                assessment: assessment.clone(),
                reason: format!(
                    "rule {:?} for {attack} is disabled via A1 — escalating",
                    stored.rule.id
                ),
            });
        }
        let rule = stored.rule.clone();
        // Written as a negated >= so a non-finite confidence (NaN poisons
        // every comparison) counts as below-floor and escalates, rather
        // than silently passing the gate the way `confidence < floor`
        // would. A1 validation rejects non-finite floors, but the
        // assessment side arrives from the analyzer at runtime — treat it
        // defensively.
        if !(assessment.confidence.is_finite() && assessment.confidence >= rule.min_confidence) {
            return PolicyDecision::Supervise(SupervisionTicket {
                assessment: assessment.clone(),
                reason: format!(
                    "confidence {:.2} below the {:.2} autonomy floor for {attack}",
                    assessment.confidence, rule.min_confidence
                ),
            });
        }
        if rule.require_llm_confirmation && !assessment.llm_confirmed {
            return PolicyDecision::Supervise(SupervisionTicket {
                assessment: assessment.clone(),
                reason: format!("cross-model personalities disagreed on {attack}"),
            });
        }
        if let Some((_, _, acted_at, ttl)) = self
            .cooldowns
            .iter()
            .find(|(k, c, _, _)| *k == attack && *c == assessment.cell)
        {
            if assessment.detected_at < *acted_at + *ttl {
                return PolicyDecision::StandDown;
            }
        }

        let mut actions = Vec::new();
        for template in &rule.templates {
            self.instantiate(template, assessment, rule.ttl, &mut actions);
        }
        for action in &mut actions {
            action.trace = assessment.trace;
        }
        if actions.is_empty() {
            return PolicyDecision::Supervise(SupervisionTicket {
                assessment: assessment.clone(),
                reason: format!(
                    "rule for {attack} matched but the assessment names no target entities"
                ),
            });
        }
        self.cooldowns
            .retain(|(k, c, _, _)| !(*k == attack && *c == assessment.cell));
        self.cooldowns.push((attack, assessment.cell, assessment.detected_at, rule.ttl));
        self.store.record_decision(&rule.id);
        PolicyDecision::Act(actions)
    }

    fn instantiate(
        &mut self,
        template: &ActionTemplate,
        assessment: &ThreatAssessment,
        ttl: Duration,
        out: &mut Vec<ControlAction>,
    ) {
        match template {
            ActionTemplate::ReleaseSuspects { cause } => {
                for &conn in &assessment.suspect_conns {
                    let action = MitigationAction::ReleaseUe { conn, cause: *cause };
                    out.push(self.wrap(action, ttl));
                }
            }
            ActionTemplate::ForceReauthSuspects => {
                for &conn in &assessment.suspect_conns {
                    out.push(self.wrap(MitigationAction::ForceReauth { conn }, ttl));
                }
            }
            ActionTemplate::BlacklistSuspectRntis => {
                for &rnti in &assessment.suspect_rntis {
                    out.push(self.wrap(MitigationAction::BlacklistRnti { rnti }, ttl));
                }
            }
            ActionTemplate::QuarantineCell => {
                let action = MitigationAction::QuarantineCell { cell: assessment.cell };
                out.push(self.wrap(action, ttl));
            }
            ActionTemplate::RateLimitDominantCause { max_setups, window } => {
                if let Some(cause) = assessment.dominant_cause {
                    let action = MitigationAction::RateLimitCause {
                        cause,
                        max_setups: *max_setups,
                        window: *window,
                    };
                    out.push(self.wrap(action, ttl));
                }
            }
        }
    }

    fn wrap(&mut self, action: MitigationAction, ttl: Duration) -> ControlAction {
        let id = self.next_id;
        self.next_id += 1;
        ControlAction { id, ttl, action, trace: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assessment(attack: Option<AttackKind>) -> ThreatAssessment {
        ThreatAssessment {
            attack,
            confidence: 0.9,
            llm_confirmed: true,
            detected_at: Timestamp(1_000_000),
            cell: CellId(1),
            suspect_conns: vec![4, 9],
            suspect_rntis: vec![Rnti(0x0101), Rnti(0x0102)],
            dominant_cause: Some(EstablishmentCause::MoSignalling),
            trace: Some(42),
        }
    }

    #[test]
    fn bts_dos_rule_rate_limits_and_blacklists() {
        let mut engine = PolicyEngine::default();
        let PolicyDecision::Act(actions) = engine.decide(&assessment(Some(AttackKind::BtsDos)))
        else {
            panic!("expected autonomous action");
        };
        assert!(actions
            .iter()
            .any(|a| matches!(a.action, MitigationAction::RateLimitCause { .. })));
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a.action, MitigationAction::BlacklistRnti { .. }))
                .count(),
            2
        );
        // Every instantiated action inherits the assessment's trace id.
        assert!(actions.iter().all(|a| a.trace == Some(42)), "trace id not propagated");
        // Ids are unique.
        let mut ids: Vec<_> = actions.iter().map(|a| a.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), actions.len());
        // The decision is credited to the rule that made it.
        let status = engine.status();
        let bts = status.iter().find(|s| s.attack == AttackKind::BtsDos).unwrap();
        assert_eq!((bts.id.as_str(), bts.decisions), ("bts-dos", 1));
    }

    #[test]
    fn default_rules_come_from_the_declarative_document() {
        // The JSON document must express exactly the paper's playbooks the
        // old compiled-in table held; spot-check the load-bearing rows.
        let rules = default_rules();
        assert_eq!(rules.len(), AttackKind::ALL.len());
        let bts = rules.iter().find(|r| r.attack == AttackKind::BtsDos).unwrap();
        assert_eq!(bts.id, "bts-dos");
        assert_eq!(bts.min_confidence, 0.6);
        assert!(bts.require_llm_confirmation);
        assert_eq!(bts.ttl, Duration::from_secs(10));
        assert_eq!(
            bts.templates,
            vec![
                ActionTemplate::RateLimitDominantCause {
                    max_setups: 1,
                    window: Duration::from_secs(1),
                },
                ActionTemplate::BlacklistSuspectRntis,
            ]
        );
        let nc = rules.iter().find(|r| r.attack == AttackKind::NullCipher).unwrap();
        assert_eq!(nc.id, "null-cipher");
        assert_eq!(
            nc.templates,
            vec![ActionTemplate::ReleaseSuspects { cause: ReleaseCause::NetworkAbort }]
        );
        // And the engine built from them validates cleanly.
        let engine = PolicyEngine::new(rules);
        assert_eq!(engine.status().len(), AttackKind::ALL.len());
    }

    #[test]
    fn anomaly_without_attack_escalates() {
        let mut engine = PolicyEngine::default();
        assert!(matches!(
            engine.decide(&assessment(None)),
            PolicyDecision::Supervise(_)
        ));
    }

    #[test]
    fn low_confidence_and_disagreement_escalate() {
        let mut engine = PolicyEngine::default();
        let mut low = assessment(Some(AttackKind::NullCipher));
        low.confidence = 0.2;
        assert!(matches!(engine.decide(&low), PolicyDecision::Supervise(_)));

        let mut contested = assessment(Some(AttackKind::NullCipher));
        contested.llm_confirmed = false;
        assert!(matches!(engine.decide(&contested), PolicyDecision::Supervise(_)));
    }

    #[test]
    fn non_finite_assessment_confidence_escalates() {
        // Regression for the NaN-permeable floor: `confidence < floor` is
        // false for NaN, so a NaN-scoring assessment used to sail past the
        // autonomy gate and act. It must supervise instead.
        let mut engine = PolicyEngine::default();
        // +inf nominally exceeds any floor but is not a real confidence —
        // all three escalate.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = assessment(Some(AttackKind::NullCipher));
            poisoned.confidence = bad;
            assert!(
                matches!(engine.decide(&poisoned), PolicyDecision::Supervise(_)),
                "confidence {bad} must escalate"
            );
        }
    }

    #[test]
    fn a1_path_rejects_non_finite_confidence_floor() {
        // The same NaN floor arriving over the A1 interface (the path a
        // compromised SMO or rogue xApp would use) must be rejected by
        // validation before it reaches the store.
        let mut engine = PolicyEngine::default();
        let mut rule = default_rules()
            .into_iter()
            .find(|r| r.attack == AttackKind::NullCipher)
            .unwrap();
        rule.min_confidence = f32::NAN;
        let response = engine.apply(&A1Request::CreatePolicy { rule: rule.clone() });
        assert_eq!(response.outcome, PolicyOpOutcome::RejectedByValidation);
        assert!(response.detail.contains("confidence"), "got: {}", response.detail);
        let response = engine.apply(&A1Request::UpdatePolicy { rule });
        assert_eq!(response.outcome, PolicyOpOutcome::RejectedByValidation);
        // The live rule keeps its finite floor, and the gate still works.
        let stored = engine.store.rule_for_attack(AttackKind::NullCipher).unwrap();
        assert!(stored.rule.min_confidence.is_finite());
        let mut low = assessment(Some(AttackKind::NullCipher));
        low.confidence = 0.1;
        assert!(matches!(engine.decide(&low), PolicyDecision::Supervise(_)));
    }

    #[test]
    fn cooldown_suppresses_repeat_alerts_until_ttl_elapses() {
        let mut engine = PolicyEngine::default();
        let first = assessment(Some(AttackKind::NullCipher));
        assert!(matches!(engine.decide(&first), PolicyDecision::Act(_)));

        let mut repeat = first.clone();
        repeat.detected_at = first.detected_at + Duration::from_secs(2);
        assert_eq!(engine.decide(&repeat), PolicyDecision::StandDown);

        let mut later = first.clone();
        later.detected_at = first.detected_at + Duration::from_secs(11);
        assert!(matches!(engine.decide(&later), PolicyDecision::Act(_)));
    }

    #[test]
    fn cooldown_is_scoped_per_cell() {
        // Regression: cooldowns used to be keyed by attack kind alone, so a
        // BTS DoS in cell 1 muted autonomous action for a simultaneous BTS
        // DoS in cell 2.
        let mut engine = PolicyEngine::default();
        let cell1 = assessment(Some(AttackKind::BtsDos));
        assert!(matches!(engine.decide(&cell1), PolicyDecision::Act(_)));

        // Same attack, same instant, different cell: must still act.
        let mut cell2 = cell1.clone();
        cell2.cell = CellId(2);
        assert!(
            matches!(engine.decide(&cell2), PolicyDecision::Act(_)),
            "cell 2 was muted by cell 1's cooldown"
        );

        // Each cell's own repeat is still suppressed.
        let mut repeat1 = cell1.clone();
        repeat1.detected_at = cell1.detected_at + Duration::from_secs(2);
        assert_eq!(engine.decide(&repeat1), PolicyDecision::StandDown);
        let mut repeat2 = cell2.clone();
        repeat2.detected_at = cell2.detected_at + Duration::from_secs(2);
        assert_eq!(engine.decide(&repeat2), PolicyDecision::StandDown);
    }

    #[test]
    fn a1_apply_swaps_rules_and_clears_cooldowns() {
        let mut engine = PolicyEngine::default();
        let first = assessment(Some(AttackKind::NullCipher));
        let PolicyDecision::Act(actions) = engine.decide(&first) else {
            panic!("expected autonomous action");
        };
        assert!(actions.iter().all(|a| matches!(a.action, MitigationAction::ReleaseUe { .. })));

        // Hot-swap the null-cipher playbook to quarantine instead.
        let swapped = PolicyRule {
            id: "null-cipher".into(),
            attack: AttackKind::NullCipher,
            min_confidence: 0.6,
            require_llm_confirmation: true,
            ttl: Duration::from_secs(10),
            templates: vec![ActionTemplate::QuarantineCell],
        };
        let resp = engine.apply(&A1Request::UpdatePolicy { rule: swapped });
        assert_eq!(resp.outcome, PolicyOpOutcome::Superseded);
        assert_eq!(resp.version, 2);

        // The swap cleared the cooldown: a repeat inside the old TTL now
        // acts, and acts with the *new* playbook.
        let mut repeat = first.clone();
        repeat.detected_at = first.detected_at + Duration::from_secs(2);
        let PolicyDecision::Act(actions) = engine.decide(&repeat) else {
            panic!("swap did not take effect");
        };
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0].action, MitigationAction::QuarantineCell { .. }));

        // Disabling escalates; invalid updates are rejected untouched.
        engine.apply(&A1Request::SetEnabled { id: "null-cipher".into(), enabled: false });
        let mut again = first.clone();
        again.detected_at = first.detected_at + Duration::from_secs(30);
        assert!(matches!(engine.decide(&again), PolicyDecision::Supervise(_)));

        let mut bad = default_rules().remove(0);
        bad.ttl = Duration::from_secs(9_999);
        let resp = engine.apply(&A1Request::UpdatePolicy { rule: bad });
        assert_eq!(resp.outcome, PolicyOpOutcome::RejectedByValidation);
        assert!(resp.detail.contains("ttl"), "detail: {}", resp.detail);
    }

    #[test]
    fn titles_map_back_to_attack_kinds() {
        let cases = [
            ("Signaling storm / RRC flooding DoS (BTS DoS)", Some(AttackKind::BtsDos)),
            ("TMSI replay denial of service (Blind DoS)", Some(AttackKind::BlindDos)),
            (
                "Uplink identity extraction (adaptive overshadowing)",
                Some(AttackKind::UplinkIdExtraction),
            ),
            (
                "Downlink identity extraction (MiTM identity request injection)",
                Some(AttackKind::DownlinkIdExtraction),
            ),
            (
                "Security capability bidding-down (null cipher & integrity)",
                Some(AttackKind::NullCipher),
            ),
            // Phrase forms that must still resolve.
            ("Null cipher downgrade", Some(AttackKind::NullCipher)),
            ("EA0 selected by network", Some(AttackKind::NullCipher)),
            ("bidding down of security capabilities", Some(AttackKind::NullCipher)),
            // Regression: bare-"null" keyword matching misclassified
            // ordinary vocabulary as NullCipher.
            ("nullable field in registration accept", None),
            ("session annulled by operator", None),
            ("null pointer in decoder", None),
            ("benign drift", None),
        ];
        for (title, kind) in cases {
            assert_eq!(attack_from_title(title), kind, "{title}");
        }
    }
}
