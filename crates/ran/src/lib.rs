//! # xsec-ran
//!
//! A deterministic, event-driven 5G standalone (SA) network simulator — the
//! substrate that replaces the paper's OpenAirInterface gNB + core, USRP B210
//! radio, and COLOSSEUM emulator.
//!
//! ## Topology
//!
//! ```text
//!  UE(s) ──Uu (impaired channel)──> O-DU ──F1AP──> O-CU ──NGAP──> AMF
//!                                                    │
//!                                                    └── RanEvent stream
//! ```
//!
//! * UEs are pluggable [`ue::UeBehavior`] state machines. Benign devices
//!   ([`ue::BenignUe`]) follow the 3GPP registration ladder with per-device
//!   quirks from [`device::DeviceModel`] profiles; the `xsec-attacks` crate
//!   plugs in rogue behaviors through the same trait.
//! * The air interface runs through `xsec-netsim`'s impairment model; the
//!   network-internal F1/NG interfaces are reliable (they are inside the
//!   trust boundary of the paper's threat model).
//! * A man-in-the-middle can be attached via [`intercept::Interceptor`] to
//!   drop/replace messages on the air interface — how the identity
//!   extraction and downgrade attacks are mounted.
//! * Every message the CU relays is recorded once, as a structured,
//!   ground-truth-labeled [`event::RanEvent`] that the MobiFlow extractor
//!   consumes — the simulator's stand-in for the paper's E2-instrumented
//!   CU. F1AP and NGAP name the hops; no PDU is encoded for them.
//!
//! ## Determinism
//!
//! All randomness flows from one master seed through named RNG streams; two
//! runs of the same scenario produce identical event streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amf;
pub mod auth;
mod device;
mod event;
mod gnb;
pub mod intercept;
pub mod scenario;
pub mod sim;
pub mod stream;
pub mod ue;

pub use amf::{Amf, AmfConfig, SubscriberRecord};
pub use device::DeviceModel;
pub use event::RanEvent;
pub use gnb::{Gnb, GnbConfig};
pub use intercept::{Chain, Intercept, Interceptor, PassThrough};
pub use scenario::{Scenario, ScenarioConfig};
pub use sim::{RanSimulator, SimConfig, SimReport};
pub use stream::{StormConfig, StreamConfig, StreamStats, StreamingScenario};
pub use ue::{BenignUe, SessionPlan, UeActions, UeBehavior};
