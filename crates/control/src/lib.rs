//! Closed-loop mitigation for the 6G-XSec near-RT RIC.
//!
//! The paper's pipeline ends at explanation: MobiWatch flags a telemetry
//! window, the LLM analyzer names the attack, and the result is shown to an
//! analyst. This crate adds the *actuation* half of the loop — the E2
//! Control path O-RAN provides for exactly this purpose:
//!
//! ```text
//! AnalyzerFinding ──► PolicyEngine ──► ControlAction (TLV payload)
//!                        │                  │
//!                        ▼                  ▼
//!                SupervisionTicket    ActionExecutor ──► E2 ControlRequest (id)
//!                (human queue)              ▲                   │
//!                                           └─ ControlAck (id) ◄┘
//! ```
//!
//! Four pieces: [`MitigationAction`]/[`ControlAction`] — the typed action
//! vocabulary with a strict TLV wire codec; [`PolicyEngine`] — the
//! rule table mapping detections to actions, with a human-supervision gate
//! for anything below the autonomy bar; [`ActionExecutor`] — delivery
//! tracking with acks matched by action id, retries, and TTL expiry; and the
//! [`a1`] module — A1-style runtime policy management ([`PolicyType`]
//! schemas, the versioned [`PolicyStore`], and the [`A1Request`] /
//! [`A1Response`] message API the SMO drives mid-run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod a1;
mod action;
mod executor;
mod policy;

pub use a1::{
    default_policy_document, default_policy_types, A1OpTally, A1Request, A1Response, Installed,
    PolicyDocument, PolicyOpOutcome, PolicyStore, PolicyType, PolicyValidation, RuleStatus,
    StoredRule, TemplateKind,
};
pub use action::{ControlAction, MitigationAction};
pub use executor::{AckResolution, ActionExecutor, ActionState, TrackedAction};
pub use policy::{
    attack_from_title, default_rules, ActionTemplate, PolicyDecision, PolicyEngine, PolicyRule,
    SupervisionTicket, ThreatAssessment,
};
