//! # xsec-types
//!
//! Shared vocabulary for the 6G-XSec framework: cellular identifiers, security
//! algorithm enumerations, virtual timestamps, establishment causes, traffic
//! ground-truth labels, the common error type, and the checked byte
//! [`Reader`] / [`Put`] pair every wire codec is written against.
//!
//! Every other crate in the workspace depends on this one; it intentionally has
//! no dependency on the simulator, the RIC, or the learning stack so that the
//! vocabulary stays stable and cheap to compile.
//!
//! ## Identifier model
//!
//! 5G identifies a subscriber and its radio connection at several layers:
//!
//! * [`Rnti`] — Radio Network Temporary Identifier, allocated by the gNB MAC
//!   scheduler for the lifetime of one RRC connection. Attackers that flood the
//!   RAN with fabricated connections burn through RNTIs rapidly (the *BTS DoS*
//!   signature in the paper's Figure 2b).
//! * [`Tmsi`] — the 5G-S-TMSI, a temporary subscriber identifier assigned by
//!   the AMF; reuse of a TMSI across supposedly independent sessions is the
//!   *Blind DoS* signature.
//! * [`Supi`] — the Subscription Permanent Identifier (IMSI-based). A SUPI
//!   observed in plaintext over the air is the *identity extraction* signature.
//!
//! All identifier newtypes implement `Display` with the formatting used by the
//! MobiFlow telemetry encoding (hex for RNTI, decimal for TMSI, the standard
//! `imsi-` prefix form for SUPI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cause;
pub mod error;
pub mod ids;
pub mod label;
pub mod security;
pub mod time;
pub mod wire;

pub use cause::{EstablishmentCause, ReleaseCause};
pub use error::{Result, XsecError};
pub use ids::{CellId, GnbId, Plmn, Rnti, Supi, Tmsi, UeId};
pub use label::{AttackKind, TrafficClass};
pub use security::{CipherAlg, IntegrityAlg, SecurityCapabilities};
pub use time::{Duration, Timestamp};
pub use wire::{Put, Reader};
