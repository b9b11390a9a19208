//! # 6G-XSec
//!
//! An explainable edge-security framework for OpenRAN architectures — a
//! from-scratch Rust reproduction of *6G-XSec: Explainable Edge Security for
//! Emerging OpenRAN Architectures* (Wen et al., HotNets '24).
//!
//! The framework chains three stages over an O-RAN control plane
//! (paper Figure 3):
//!
//! 1. **Telemetry** — the RAN data plane is instrumented with a RIC agent
//!    that extracts fine-grained MobiFlow security telemetry and reports it
//!    over the E2 interface (`xsec-ran`, `xsec-mobiflow`, `xsec-e2`).
//! 2. **Detection** — the [`MobiWatch`] xApp scores sliding windows of
//!    telemetry with lightweight unsupervised models (autoencoder / LSTM
//!    from `xsec-dl`) trained on benign traffic only, and flags deviations.
//! 3. **Explanation** — the [`LlmAnalyzer`] xApp sends flagged windows
//!    (plus context) to an LLM backend using the paper's zero-shot prompt
//!    template, yielding classification, explanation, attribution, and
//!    remediation (`xsec-llm`); disagreements between detector and model
//!    land in a human-supervision queue.
//! 4. **Mitigation** — the [`Mitigator`] xApp closes the loop: confirmed
//!    findings are mapped through a policy engine to typed E2 control
//!    actions (`xsec-control`) the RAN enforces — RNTI blacklists,
//!    establishment-cause rate limits, forced re-authentication, session
//!    releases — while anything below the autonomy bar is escalated to the
//!    human-supervision queue.
//!
//! ## Quick start
//!
//! ```
//! use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
//! use sixg_xsec::scale::{Replay, ScaleDeployment};
//! use xsec_types::{AttackKind, TrafficClass};
//!
//! // Train on benign traffic, then drive a BTS DoS attack dataset through
//! // a one-agent RIC (small sizes keep the doctest fast).
//! let pipeline = Pipeline::train(&PipelineConfig::small(7, 12));
//! let stream = pipeline.eval_stream(TrafficClass::Attack(AttackKind::BtsDos));
//! let mut d = ScaleDeployment::new(&pipeline, 1);
//! let outcome = d.drive(&mut Replay(&stream.records));
//! assert!(outcome.flagged_windows > 0, "the flood must be flagged");
//! assert!(pipeline.evaluate(&stream, &d).recall().unwrap_or(0.0) > 0.5);
//! ```
//!
//! The `xsec-bench` crate regenerates every table and figure of the paper's
//! evaluation section from the [`experiments`] module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
mod bus;
pub mod experiments;
pub mod mitigator;
pub mod mobiwatch;
pub mod pipeline;
pub mod scale;
pub mod smo;
mod window;

pub use analyzer::{AnalyzerFinding, LlmAnalyzer};
pub use mitigator::{
    A1SignedRequest, FindingNotice, MitigationSummary, Mitigator, MitigatorState,
};
pub use mobiwatch::{Detector, MobiWatch, MobiWatchConfig, ShardedMobiWatch};
pub use scale::{RanFeed, ScaleDeployment, ScaleOutcome};
pub use pipeline::{Pipeline, PipelineConfig};
pub use smo::{A1PolicyClient, DeployedModels, Smo, TrainingConfig};
pub use window::window_truth;
