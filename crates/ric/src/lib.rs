//! # xsec-ric
//!
//! The near-real-time RAN Intelligent Controller platform — a from-scratch
//! stand-in for the O-RAN Software Community reference RIC the paper builds
//! on: an E2 termination that speaks the `xsec-e2` protocol to RAN agents,
//! an RMR-style topic router for xApp↔xApp messages, the xApp hosting
//! framework, the Shared Data Layer (re-exported from `xsec-mobiflow`), and
//! a classifier for the near-RT control-loop budget (O-RAN requires the
//! nRT-RIC loop to complete within 10 ms – 1 s).
//!
//! ## Dataflow (paper Figure 3)
//!
//! ```text
//! RAN agent ──E2──▶ E2 termination ──▶ SDL (telemetry)
//!                        │
//!                        ├──▶ MobiWatch xApp  ──topic──▶ LLM analyzer xApp
//!                        │        (anomaly detection)        (expert referencing)
//!                        └──▶ control loop feedback ──E2──▶ RAN
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authz;
pub mod latency;
pub mod platform;
pub mod router;
pub mod xapp;

pub use authz::{Capability, Grants, XAppIdentity};
pub use latency::LatencyClass;
pub use platform::{PumpStats, RicPlatform, SubscriptionSpec, SDL_WINDOWS_PER_AGENT};
pub use router::{PublishError, RegisterError, Router, RouterHandle};
pub use xapp::{ControlOut, XApp, XAppContext};

pub use xsec_mobiflow::{SharedDataLayer, UeMobiFlow};
