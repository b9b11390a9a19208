//! # xsec-mobiflow
//!
//! The MOBIFLOW fine-grained security telemetry stream (Wen et al.,
//! EmergingWireless'22 — the paper's reference \[60\]), reproduced from
//! scratch: record schema, the fixed-layout binary record that travels over
//! E2 ([`wire`]), the semicolon-delimited line encoding of the 5GSEC releases
//! that the LLM prompt quotes ([`codec`]), extraction from raw F1AP/NGAP
//! captures or from the structured simulator event stream, and the Shared
//! Data Layer (SDL) store that xApps read it from.
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
//!
//! [`BsMobiFlow`] aggregates per-interval base-station counters (connected
//! UEs, arrival rates, rejects) — the coarse view used for capacity-style
//! anomalies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod extract;
pub mod record;
pub mod sdl;
pub mod wire;

pub use codec::{decode_ue_record, encode_ue_record};
pub use extract::{
    extract_from_events, extract_from_events_at, extract_from_trace, BsAggregator,
    TelemetryStream,
};
pub use record::{BsMobiFlow, UeMobiFlow, MOBIFLOW_VERSION};
pub use sdl::SharedDataLayer;
