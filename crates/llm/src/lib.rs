//! # xsec-llm
//!
//! The LLM *expert referencing* substrate (paper §3.3): prompt templates,
//! the backend abstraction over "a model you can send text to", a simulated
//! cellular-security expert that stands in for the hosted LLMs the paper
//! queries over REST, five model personalities calibrated to the paper's
//! Table 3, and response parsing / cross-comparison with the anomaly
//! detector.
//!
//! ## Why a simulated expert
//!
//! The paper's LLM evaluation is qualitative: five hosted models are asked,
//! zero-shot, to classify and explain seven traces, and a human marks each
//! answer ✓/✗. Hosted models are unavailable here, so the
//! [`expert::ExpertEngine`] performs the same *analysis steps* a competent
//! analyst (or a good LLM) performs on the rendered telemetry — sequence
//! conformance per connection, identifier-reuse analysis, arrival-rate
//! analysis, security-algorithm audit, plaintext-identity audit — and
//! renders its findings as natural-language classification / explanation /
//! attribution / remediation, the four outputs §3.3 enumerates.
//! [`personality::ModelPersonality`] then reproduces each hosted model's
//! observed blind spots (e.g. most models miss the uplink identity
//! extraction because its trace is standards-compliant) by masking which
//! analysis signals each "model" perceives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod expert;
pub mod personality;
pub mod prompt;
pub mod response;

pub use backend::{LlmBackend, SimulatedExpert};
pub use expert::{AnalysisSignal, ExpertEngine, ExpertReport};
pub use personality::ModelPersonality;
pub use prompt::PromptTemplate;
pub use response::{cross_compare, CrossVerdict, ParsedResponse};
