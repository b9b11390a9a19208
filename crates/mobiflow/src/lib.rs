//! # xsec-mobiflow
//!
//! The MOBIFLOW fine-grained security telemetry stream (Wen et al.,
//! EmergingWireless'22 — the paper's reference \[60\]), reproduced from
//! scratch: record schema, the fixed-layout binary record that travels over
//! E2 ([`wire`]), the semicolon-delimited line encoding of the 5GSEC releases
//! that the LLM prompt quotes ([`encode_ue_record`]), extraction from the
//! structured simulator event stream (the stand-in for the paper's
//! E2-instrumented CU), and a Shared Data Layer (SDL) store that nothing on
//! the live path reads or writes.
//!
//! One [`UeMobiFlow`] record is produced per control message observed at the
//! RAN (paper §3.1):
//!
//! ```text
//! x_i = [t_i, m_i, p_1..p_k]   — timestamp, message, UE state parameters
//! ```
//!
//! The parameter set matches the paper's Table 1: RNTI, TMSI, SUPI (when
//! exposed), ciphering/integrity algorithms, and RRC establishment cause.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod extract;
mod record;
mod sdl;
pub mod wire;

pub use codec::{decode_ue_record, encode_ue_record};
pub use extract::{extract_from_events, extract_from_events_at, TelemetryStream};
pub use record::{UeMobiFlow, MOBIFLOW_VERSION};
pub use sdl::SharedDataLayer;
