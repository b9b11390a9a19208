//! # xsec-proto
//!
//! The L3 control-protocol model for the simulated 5G network: RRC (3GPP
//! 38.331) and NAS (3GPP 24.501) message types.
//!
//! ## Scope
//!
//! This is the subset of the two protocols that the 6G-XSec telemetry and the
//! five evaluated attacks exercise: connection establishment, registration,
//! authentication, security-mode negotiation, identity procedures, paging,
//! session setup, and release. It is a *model*, not an ASN.1 PER
//! implementation — messages carry exactly the fields the MobiFlow telemetry
//! schema (paper Table 1) extracts, plus what the simulated UE, gNB and AMF
//! need to run the procedures. Whether a message sequence follows them is
//! judged downstream, by the expert engine in `xsec_llm`.
//!
//! ## Layering
//!
//! ```text
//!   UE ──Uu──> O-DU ──F1AP──> O-CU ──NGAP──> AMF
//!        RRC            RRC container   NAS container
//! ```
//!
//! The simulator hands each hop the message value itself; F1AP and NGAP name
//! the hops, and no PDU is encoded for them. A NAS message piggybacked in
//! RRC rides as a value too ([`RrcMessage::nas`]): no L3 message is ever
//! encoded to bytes. The telemetry that leaves the RAN is the MobiFlow
//! record, whose codecs live in `xsec_mobiflow` and `xsec_e2`.
//!
//! * [`rrc::RrcMessage`] — the air-interface control messages.
//! * [`nas::NasMessage`] — the NAS messages piggybacked through RRC.
//! * [`msg::L3Message`] / [`msg::MessageKind`] — the unified vocabulary the
//!   featurizer and MobiFlow records use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod msg;
pub mod nas;
mod rrc;

pub use msg::{Direction, L3Message, MessageKind, MobileIdentity};
pub use nas::NasMessage;
pub use rrc::RrcMessage;
