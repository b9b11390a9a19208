//! A1-style runtime policy management for the mitigation loop.
//!
//! O-RAN's A1 interface is how the non-RT RIC (SMO/rApps) governs near-RT
//! RIC behaviour: declarative *policy types* describe what a policy may
//! say, and *policy instances* are installed, replaced, and withdrawn at
//! runtime without redeploying the xApp. This module is that shape for the
//! mitigation playbooks: a [`PolicyType`] bounds what a [`PolicyRule`] for
//! one attack kind may request (allowed action templates, confidence floor,
//! TTL range), and a [`PolicyStore`] holds the live versioned rule set that
//! the policy engine consults on every detection.
//!
//! The message API ([`A1Request`]/[`A1Response`]) is JSON over the platform
//! router, so the SMO side can hot-swap a rule between two detections and
//! the next Control Action observably changes. Every operation is answered
//! with an enforcement-state verdict ([`PolicyOpOutcome`]): applied,
//! rejected-by-validation, or superseded (a newer version replaced a live
//! rule).

use crate::policy::{ActionTemplate, PolicyRule};
use serde::{Deserialize, Serialize};
use std::fmt;
use xsec_types::{AttackKind, Duration};

/// The shape of an [`ActionTemplate`], without its parameters — what a
/// [`PolicyType`] whitelists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TemplateKind {
    /// [`ActionTemplate::ReleaseSuspects`].
    ReleaseSuspects,
    /// [`ActionTemplate::ForceReauthSuspects`].
    ForceReauthSuspects,
    /// [`ActionTemplate::BlacklistSuspectRntis`].
    BlacklistSuspectRntis,
    /// [`ActionTemplate::QuarantineCell`].
    QuarantineCell,
    /// [`ActionTemplate::RateLimitDominantCause`].
    RateLimitDominantCause,
}

impl fmt::Display for TemplateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TemplateKind::ReleaseSuspects => "ReleaseSuspects",
            TemplateKind::ForceReauthSuspects => "ForceReauthSuspects",
            TemplateKind::BlacklistSuspectRntis => "BlacklistSuspectRntis",
            TemplateKind::QuarantineCell => "QuarantineCell",
            TemplateKind::RateLimitDominantCause => "RateLimitDominantCause",
        };
        f.write_str(name)
    }
}

impl ActionTemplate {
    /// The parameterless shape of this template.
    pub fn kind(&self) -> TemplateKind {
        match self {
            ActionTemplate::ReleaseSuspects { .. } => TemplateKind::ReleaseSuspects,
            ActionTemplate::ForceReauthSuspects => TemplateKind::ForceReauthSuspects,
            ActionTemplate::BlacklistSuspectRntis => TemplateKind::BlacklistSuspectRntis,
            ActionTemplate::QuarantineCell => TemplateKind::QuarantineCell,
            ActionTemplate::RateLimitDominantCause { .. } => TemplateKind::RateLimitDominantCause,
        }
    }
}

/// The declarative schema bounding every rule installed for one attack
/// kind — the A1 "policy type" half of the contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyType {
    /// Attack kind the type governs (one type per kind).
    pub attack: AttackKind,
    /// Template shapes a rule for this attack may instantiate.
    pub allowed_templates: Vec<TemplateKind>,
    /// Lowest autonomy confidence floor a rule may configure.
    pub min_confidence_floor: f32,
    /// Shortest TTL a rule may stamp onto actions.
    pub ttl_min: Duration,
    /// Longest TTL a rule may stamp onto actions.
    pub ttl_max: Duration,
}

/// Why a policy operation was rejected by schema validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyValidation {
    /// The rule's id is empty.
    BadId,
    /// No [`PolicyType`] governs the rule's attack kind.
    NoPolicyType(AttackKind),
    /// The rule instantiates no templates at all.
    EmptyTemplates,
    /// The rule uses a template shape its type does not allow.
    TemplateNotAllowed(TemplateKind),
    /// The rule's confidence floor is outside `[floor, 1]`.
    ConfidenceOutOfBounds {
        /// The type's lowest allowed floor.
        floor: f32,
        /// What the rule asked for.
        got: f32,
    },
    /// The rule's TTL is outside the type's `[min, max]` range.
    TtlOutOfRange {
        /// Shortest allowed TTL.
        min: Duration,
        /// Longest allowed TTL.
        max: Duration,
        /// What the rule asked for.
        got: Duration,
    },
    /// The operation names a rule id that is not installed.
    NoSuchRule(String),
}

impl fmt::Display for PolicyValidation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyValidation::BadId => write!(f, "rule id must be non-empty"),
            PolicyValidation::NoPolicyType(kind) => {
                write!(f, "no policy type governs {kind}")
            }
            PolicyValidation::EmptyTemplates => {
                write!(f, "rule instantiates no action templates")
            }
            PolicyValidation::TemplateNotAllowed(kind) => {
                write!(f, "template {kind} is not allowed by the policy type")
            }
            PolicyValidation::ConfidenceOutOfBounds { floor, got } => {
                write!(f, "confidence floor {got:.2} outside [{floor:.2}, 1.00]")
            }
            PolicyValidation::TtlOutOfRange { min, max, got } => write!(
                f,
                "ttl {}us outside [{}us, {}us]",
                got.as_micros(),
                min.as_micros(),
                max.as_micros()
            ),
            PolicyValidation::NoSuchRule(id) => write!(f, "no installed rule with id {id:?}"),
        }
    }
}

/// Enforcement-state verdict for one A1 policy operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyOpOutcome {
    /// The operation took effect on a fresh rule slot (or was a query).
    Applied,
    /// Schema validation refused the operation; the store is unchanged.
    RejectedByValidation,
    /// The operation replaced a live rule with a newer version.
    Superseded,
}

impl PolicyOpOutcome {
    /// Stable metric-label form.
    pub fn label(self) -> &'static str {
        match self {
            PolicyOpOutcome::Applied => "applied",
            PolicyOpOutcome::RejectedByValidation => "rejected",
            PolicyOpOutcome::Superseded => "superseded",
        }
    }
}

/// Running tally of A1 operation outcomes (one pipeline run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct A1OpTally {
    /// Operations that took effect cleanly.
    pub applied: u64,
    /// Operations refused by schema validation.
    pub rejected: u64,
    /// Operations that replaced a live rule.
    pub superseded: u64,
}

impl A1OpTally {
    /// Records one operation outcome.
    pub fn record(&mut self, outcome: PolicyOpOutcome) {
        match outcome {
            PolicyOpOutcome::Applied => self.applied += 1,
            PolicyOpOutcome::RejectedByValidation => self.rejected += 1,
            PolicyOpOutcome::Superseded => self.superseded += 1,
        }
    }

    /// Total operations seen.
    pub fn total(&self) -> u64 {
        self.applied + self.rejected + self.superseded
    }
}

/// One A1 message from the SMO side to the mitigation xApp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum A1Request {
    /// Install a rule. An existing rule with the same id is superseded.
    CreatePolicy {
        /// The rule to install.
        rule: PolicyRule,
    },
    /// Replace an installed rule in place (rejected if the id is unknown).
    UpdatePolicy {
        /// The replacement rule (matched by `rule.id`).
        rule: PolicyRule,
    },
    /// Remove an installed rule entirely.
    DeletePolicy {
        /// Id of the rule to remove.
        id: String,
    },
    /// Toggle a rule without removing it; disabled rules escalate their
    /// detections to human supervision instead of acting.
    SetEnabled {
        /// Id of the rule to toggle.
        id: String,
        /// The new enablement state.
        enabled: bool,
    },
    /// Ask for the full live rule inventory.
    QueryStatus,
}

impl A1Request {
    /// Stable metric-label form of the operation.
    pub fn op(&self) -> &'static str {
        match self {
            A1Request::CreatePolicy { .. } => "create",
            A1Request::UpdatePolicy { .. } => "update",
            A1Request::DeletePolicy { .. } => "delete",
            A1Request::SetEnabled { .. } => "set-enabled",
            A1Request::QueryStatus => "query",
        }
    }

    /// The rule id the operation targets (empty for a status query).
    pub fn target_id(&self) -> &str {
        match self {
            A1Request::CreatePolicy { rule } | A1Request::UpdatePolicy { rule } => &rule.id,
            A1Request::DeletePolicy { id } | A1Request::SetEnabled { id, .. } => id,
            A1Request::QueryStatus => "",
        }
    }
}

/// Per-rule live status, reported back over the A1 status topic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleStatus {
    /// The rule's id.
    pub id: String,
    /// Attack kind the rule fires on.
    pub attack: AttackKind,
    /// Monotonic install/update version (starts at 1).
    pub version: u32,
    /// Whether the rule may act autonomously right now.
    pub enabled: bool,
    /// How many detections this rule has acted on.
    pub decisions: u64,
}

/// The mitigation xApp's answer to one [`A1Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A1Response {
    /// The operation answered (metric-label form).
    pub op: String,
    /// The rule id the operation targeted.
    pub id: String,
    /// The enforcement-state verdict.
    pub outcome: PolicyOpOutcome,
    /// The rule's version after the operation (0 when nothing is installed).
    pub version: u32,
    /// Human-readable detail (validation failure text, etc.).
    pub detail: String,
    /// The live rule inventory after the operation.
    pub status: Vec<RuleStatus>,
}

/// One installed rule plus its live bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRule {
    /// The declarative rule.
    pub rule: PolicyRule,
    /// Monotonic version (1 on first install, +1 per replacement).
    pub version: u32,
    /// Disabled rules escalate instead of acting.
    pub enabled: bool,
    /// Detections this rule has acted on.
    pub decisions: u64,
}

/// What a successful store mutation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Installed {
    /// Applied fresh or superseded a live rule.
    pub outcome: PolicyOpOutcome,
    /// The rule's version after the operation.
    pub version: u32,
}

/// The live, versioned rule set the policy engine consults — the A1
/// "policy instance" half of the contract.
#[derive(Debug, Clone, Default)]
pub struct PolicyStore {
    types: Vec<PolicyType>,
    rules: Vec<StoredRule>,
}

impl PolicyStore {
    /// An empty store governed by the given policy types.
    pub fn new(types: Vec<PolicyType>) -> Self {
        PolicyStore { types, rules: Vec::new() }
    }

    /// The default deployment: the shipped policy types with the shipped
    /// rule set installed (all enabled, version 1).
    pub fn with_defaults() -> Self {
        let doc = default_policy_document();
        let mut store = PolicyStore::new(doc.types);
        for rule in doc.rules {
            store.install(rule).expect("shipped default rules validate");
        }
        store
    }

    /// Validates one rule against its governing policy type.
    pub fn validate(&self, rule: &PolicyRule) -> Result<(), PolicyValidation> {
        if rule.id.trim().is_empty() {
            return Err(PolicyValidation::BadId);
        }
        let Some(ty) = self.types.iter().find(|t| t.attack == rule.attack) else {
            return Err(PolicyValidation::NoPolicyType(rule.attack));
        };
        if rule.templates.is_empty() {
            return Err(PolicyValidation::EmptyTemplates);
        }
        for template in &rule.templates {
            if !ty.allowed_templates.contains(&template.kind()) {
                return Err(PolicyValidation::TemplateNotAllowed(template.kind()));
            }
        }
        // Non-finite floors must be rejected explicitly: NaN fails *both*
        // range comparisons below (every NaN comparison is false), so
        // without this check a NaN `min_confidence` would validate and
        // then disable the decision-time floor entirely — the rule would
        // act autonomously at any confidence.
        if !rule.min_confidence.is_finite()
            || rule.min_confidence < ty.min_confidence_floor
            || rule.min_confidence > 1.0
        {
            return Err(PolicyValidation::ConfidenceOutOfBounds {
                floor: ty.min_confidence_floor,
                got: rule.min_confidence,
            });
        }
        if rule.ttl < ty.ttl_min || rule.ttl > ty.ttl_max {
            return Err(PolicyValidation::TtlOutOfRange {
                min: ty.ttl_min,
                max: ty.ttl_max,
                got: rule.ttl,
            });
        }
        Ok(())
    }

    /// Installs a rule; an existing rule with the same id is superseded
    /// (version bumped, decision count kept).
    pub fn install(&mut self, rule: PolicyRule) -> Result<Installed, PolicyValidation> {
        self.validate(&rule)?;
        match self.rules.iter_mut().find(|s| s.rule.id == rule.id) {
            Some(slot) => {
                slot.rule = rule;
                slot.version += 1;
                slot.enabled = true;
                Ok(Installed { outcome: PolicyOpOutcome::Superseded, version: slot.version })
            }
            None => {
                self.rules.push(StoredRule { rule, version: 1, enabled: true, decisions: 0 });
                Ok(Installed { outcome: PolicyOpOutcome::Applied, version: 1 })
            }
        }
    }

    /// Replaces an installed rule in place; unknown ids are rejected.
    pub fn update(&mut self, rule: PolicyRule) -> Result<Installed, PolicyValidation> {
        if !self.rules.iter().any(|s| s.rule.id == rule.id) {
            return Err(PolicyValidation::NoSuchRule(rule.id.clone()));
        }
        self.install(rule)
    }

    /// Removes an installed rule, returning its attack kind.
    pub fn delete(&mut self, id: &str) -> Result<AttackKind, PolicyValidation> {
        match self.rules.iter().position(|s| s.rule.id == id) {
            Some(at) => Ok(self.rules.remove(at).rule.attack),
            None => Err(PolicyValidation::NoSuchRule(id.to_string())),
        }
    }

    /// Toggles a rule, returning `(attack, version)`.
    pub fn set_enabled(
        &mut self,
        id: &str,
        enabled: bool,
    ) -> Result<(AttackKind, u32), PolicyValidation> {
        match self.rules.iter_mut().find(|s| s.rule.id == id) {
            Some(slot) => {
                slot.enabled = enabled;
                Ok((slot.rule.attack, slot.version))
            }
            None => Err(PolicyValidation::NoSuchRule(id.to_string())),
        }
    }

    /// The first installed rule for an attack kind, enabled or not.
    pub fn rule_for_attack(&self, attack: AttackKind) -> Option<&StoredRule> {
        self.rules.iter().find(|s| s.rule.attack == attack)
    }

    /// Credits one autonomous decision to the rule with this id.
    pub fn record_decision(&mut self, id: &str) {
        if let Some(slot) = self.rules.iter_mut().find(|s| s.rule.id == id) {
            slot.decisions += 1;
        }
    }

    /// Snapshot of every installed rule's live status.
    pub fn status(&self) -> Vec<RuleStatus> {
        self.rules
            .iter()
            .map(|s| RuleStatus {
                id: s.rule.id.clone(),
                attack: s.rule.attack,
                version: s.version,
                enabled: s.enabled,
                decisions: s.decisions,
            })
            .collect()
    }
}

/// The shipped declarative policy document: types plus default rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyDocument {
    /// The policy-type schemas, one per attack kind.
    types: Vec<PolicyType>,
    /// The default rule set.
    pub rules: Vec<PolicyRule>,
}

/// Parses the declarative default playbooks baked into the crate
/// (`default_policies.json`). The compiled-in decision table is gone: this
/// document is the single source of the default types *and* rules.
pub fn default_policy_document() -> PolicyDocument {
    serde_json::from_str(include_str!("default_policies.json"))
        .expect("shipped default_policies.json parses")
}

/// The shipped policy types alone.
pub fn default_policy_types() -> Vec<PolicyType> {
    default_policy_document().types
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_types::ReleaseCause;

    fn rule(id: &str) -> PolicyRule {
        PolicyRule {
            id: id.to_string(),
            attack: AttackKind::NullCipher,
            min_confidence: 0.6,
            require_llm_confirmation: true,
            ttl: Duration::from_secs(10),
            templates: vec![ActionTemplate::ReleaseSuspects { cause: ReleaseCause::NetworkAbort }],
        }
    }

    #[test]
    fn shipped_document_parses_and_validates() {
        let store = PolicyStore::with_defaults();
        assert_eq!(store.types.len(), AttackKind::ALL.len());
        assert_eq!(store.rules.len(), AttackKind::ALL.len());
        for kind in AttackKind::ALL {
            let stored = store.rule_for_attack(kind).expect("every kind has a default rule");
            assert_eq!(stored.version, 1);
            assert!(stored.enabled);
        }
    }

    #[test]
    fn install_update_delete_versioning() {
        let mut store = PolicyStore::new(default_policy_types());
        let first = store.install(rule("null-cipher")).unwrap();
        assert_eq!(first, Installed { outcome: PolicyOpOutcome::Applied, version: 1 });

        // Same id again: superseded, version bumps.
        let again = store.install(rule("null-cipher")).unwrap();
        assert_eq!(again, Installed { outcome: PolicyOpOutcome::Superseded, version: 2 });

        // Update requires the id to exist.
        let err = store.update(rule("ghost")).unwrap_err();
        assert_eq!(err, PolicyValidation::NoSuchRule("ghost".into()));
        let updated = store.update(rule("null-cipher")).unwrap();
        assert_eq!(updated.version, 3);

        assert_eq!(store.delete("null-cipher").unwrap(), AttackKind::NullCipher);
        assert_eq!(
            store.delete("null-cipher").unwrap_err(),
            PolicyValidation::NoSuchRule("null-cipher".into())
        );
    }

    #[test]
    fn validation_rejects_out_of_schema_rules() {
        let store = PolicyStore::new(default_policy_types());

        let mut bad = rule("");
        assert_eq!(store.validate(&bad).unwrap_err(), PolicyValidation::BadId);

        bad = rule("x");
        bad.templates.clear();
        assert_eq!(store.validate(&bad).unwrap_err(), PolicyValidation::EmptyTemplates);

        // Rate-limiting is not in the null-cipher type's whitelist.
        bad = rule("x");
        bad.templates = vec![ActionTemplate::RateLimitDominantCause {
            max_setups: 1,
            window: Duration::from_secs(1),
        }];
        assert_eq!(
            store.validate(&bad).unwrap_err(),
            PolicyValidation::TemplateNotAllowed(TemplateKind::RateLimitDominantCause)
        );

        bad = rule("x");
        bad.min_confidence = 0.2;
        assert!(matches!(
            store.validate(&bad).unwrap_err(),
            PolicyValidation::ConfidenceOutOfBounds { .. }
        ));

        bad = rule("x");
        bad.ttl = Duration::from_secs(500);
        assert!(matches!(
            store.validate(&bad).unwrap_err(),
            PolicyValidation::TtlOutOfRange { .. }
        ));
    }

    #[test]
    fn validation_rejects_non_finite_confidence_floors() {
        // Regression: NaN fails both `< floor` and `> 1.0`, so the old
        // range check accepted it — and a NaN floor makes the decision-time
        // `confidence < min_confidence` gate permanently false, disabling
        // the autonomy floor. ±inf must fail for the same reason (+inf is
        // caught by `> 1.0`, -inf by `< floor`, but the explicit finiteness
        // check documents the contract).
        let store = PolicyStore::new(default_policy_types());
        for bad_floor in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut bad = rule("x");
            bad.min_confidence = bad_floor;
            assert!(
                matches!(
                    store.validate(&bad).unwrap_err(),
                    PolicyValidation::ConfidenceOutOfBounds { .. }
                ),
                "floor {bad_floor} must be rejected"
            );
        }
        // And install (the mutating path) refuses too.
        let mut store = PolicyStore::new(default_policy_types());
        let mut bad = rule("nan-rule");
        bad.min_confidence = f32::NAN;
        assert!(store.install(bad).is_err());
        assert!(store.rules.is_empty());
    }

    #[test]
    fn disabled_rules_stay_installed_and_tally_records_outcomes() {
        let mut store = PolicyStore::with_defaults();
        let (attack, version) = store.set_enabled("null-cipher", false).unwrap();
        assert_eq!(attack, AttackKind::NullCipher);
        assert_eq!(version, 1);
        assert!(!store.rule_for_attack(AttackKind::NullCipher).unwrap().enabled);
        // Re-install flips it back on.
        store.install(rule("null-cipher")).unwrap();
        assert!(store.rule_for_attack(AttackKind::NullCipher).unwrap().enabled);

        let mut tally = A1OpTally::default();
        tally.record(PolicyOpOutcome::Applied);
        tally.record(PolicyOpOutcome::Superseded);
        tally.record(PolicyOpOutcome::RejectedByValidation);
        tally.record(PolicyOpOutcome::RejectedByValidation);
        assert_eq!(tally, A1OpTally { applied: 1, rejected: 2, superseded: 1 });
        assert_eq!(tally.total(), 4);
    }

    #[test]
    fn requests_and_responses_round_trip_as_json() {
        let requests = vec![
            A1Request::CreatePolicy { rule: rule("a") },
            A1Request::UpdatePolicy { rule: rule("b") },
            A1Request::DeletePolicy { id: "c".into() },
            A1Request::SetEnabled { id: "d".into(), enabled: false },
            A1Request::QueryStatus,
        ];
        for req in requests {
            let json = serde_json::to_string(&req).unwrap();
            let back: A1Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "request {json}");
        }
        let resp = A1Response {
            op: "update".into(),
            id: "null-cipher".into(),
            outcome: PolicyOpOutcome::Superseded,
            version: 2,
            detail: String::new(),
            status: PolicyStore::with_defaults().status(),
        };
        let back: A1Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
    }
}
