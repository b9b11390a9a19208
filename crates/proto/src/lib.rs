//! # xsec-proto
//!
//! The L3 control-protocol model for the simulated 5G network: RRC (3GPP
//! 38.331) and NAS (3GPP 24.501) message types, a compact binary wire codec,
//! the per-UE protocol state machines, and the F1AP/NGAP encapsulation that
//! carries these messages between the simulated O-DU, O-CU, and AMF.
//!
//! ## Scope
//!
//! This is the subset of the two protocols that the 6G-XSec telemetry and the
//! five evaluated attacks exercise: connection establishment, registration,
//! authentication, security-mode negotiation, identity procedures, paging,
//! session setup, and release. It is a *model*, not an ASN.1 PER
//! implementation — messages carry exactly the fields the MobiFlow telemetry
//! schema (paper Table 1) extracts, plus what the state machines need.
//!
//! ## Layering
//!
//! ```text
//!   UE ──Uu──> O-DU ──F1AP──> O-CU ──NGAP──> AMF
//!        RRC            RRC container   NAS container
//! ```
//!
//! * [`rrc::RrcMessage`] — the air-interface control messages.
//! * [`nas::NasMessage`] — the NAS messages piggybacked through RRC.
//! * [`msg::L3Message`] / [`msg::MessageKind`] — the unified vocabulary the
//!   featurizer and MobiFlow records use.
//! * [`codec`] — deterministic binary encoding of one message (stream framing
//!   belongs to the transport that needs it, `xsec_e2::transport`).
//! * [`state`] — UE-side RRC/NAS state machines and the network-side
//!   [`state::ProcedureConformance`] checker, an independent lens on a
//!   message sequence for tests and examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod f1ap;
pub mod msg;
pub mod nas;
pub mod ngap;
pub mod rrc;
pub mod state;

pub use codec::{decode_l3, encode_l3};
pub use f1ap::F1apPdu;
pub use msg::{Direction, L3Message, MessageKind, MobileIdentity};
pub use nas::NasMessage;
pub use ngap::NgapPdu;
pub use rrc::RrcMessage;
pub use state::{ProcedureConformance, RrcState, NasState, Violation};
