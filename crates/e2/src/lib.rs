//! # xsec-e2
//!
//! The O-RAN E2 interface substrate: the application protocol (E2AP) PDUs
//! that connect the RAN to the near-real-time RIC, the extended E2SM-KPM
//! service model that carries MobiFlow security telemetry (the paper's §3.1
//! extension of the O-RAN KPM service model), a deterministic binary codec,
//! two interchangeable transports (in-process channels and real TCP, which
//! owns the workspace's only stream framing), and the RAN-side RIC agent.
//!
//! ## Protocol shape (mirrors O-RAN.WG3.E2AP)
//!
//! ```text
//! RAN (agent)                          nRT-RIC (termination)
//!   │  E2 Setup Request (functions)      │
//!   │ ───────────────────────────────▶   │
//!   │  E2 Setup Response (accepted)      │
//!   │ ◀─────────────────────────────────│
//!   │  RIC Subscription Request          │
//!   │ ◀─────────────────────────────────│   (from an xApp)
//!   │  RIC Subscription Response         │
//!   │ ───────────────────────────────▶   │
//!   │  RIC Indication (telemetry ...)    │  per report interval
//!   │ ───────────────────────────────▶   │
//! ```
//!
//! The codec is a compact tag/length format, not ASN.1 PER — byte
//! compatibility with O-RAN implementations is out of scope (see DESIGN.md),
//! wire *shape* and the subscription/report state machines are in scope.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod e2ap;
mod e2sm;
mod transport;

pub use agent::{RicAgent, RicAgentConfig};
pub use e2ap::{E2apPdu, RicAction, RicRequestId};
pub use e2sm::{KpmIndication, RAN_FUNCTION_MOBIFLOW};
pub use transport::{
    in_proc_pair, E2Transport, InProcTransport, Readiness, SendOutcome, TcpTransport, WakeSet,
    Waker,
};
