//! # xsec-ric
//!
//! The near-real-time RAN Intelligent Controller platform — a from-scratch
//! stand-in for the O-RAN Software Community reference RIC the paper builds
//! on: an E2 termination that speaks the `xsec-e2` protocol to RAN agents,
//! an RMR-style topic router for xApp↔xApp messages, the xApp hosting
//! framework, and a classifier for the near-RT control-loop budget (O-RAN
//! requires the nRT-RIC loop to complete within 10 ms – 1 s). Telemetry is
//! pushed by E2 subscription: the termination hands each report window's
//! records to the subscribed xApp and keeps no copy.
//!
//! ## Dataflow (paper Figure 3)
//!
//! ```text
//! RAN agent ──E2──▶ E2 termination
//!                        │
//!                        ├──▶ MobiWatch xApp  ──topic──▶ LLM analyzer xApp
//!                        │        (anomaly detection)        (expert referencing)
//!                        └──▶ control loop feedback ──E2──▶ RAN
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod authz;
pub mod latency;
mod platform;
mod router;
mod xapp;

pub use authz::{Capability, Grants, XAppIdentity};
pub use latency::LatencyClass;
pub use platform::{PumpStats, RicPlatform, SubscriptionSpec};
pub use router::{PublishError, RegisterError, Router, RouterHandle};
pub use xapp::{ControlOut, XApp, XAppContext};

pub use xsec_mobiflow::UeMobiFlow;
