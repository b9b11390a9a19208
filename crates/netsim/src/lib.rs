//! # xsec-netsim
//!
//! A small, deterministic discrete-event simulation engine in the spirit of
//! event-driven network stacks: a virtual clock, a priority event queue,
//! reproducible named RNG streams, and a configurable radio channel impairment
//! model.
//!
//! The engine is the substrate on which `xsec-ran` builds the 5G standalone
//! testbed that replaces the paper's OpenAirInterface + USRP + COLOSSEUM
//! setup. Determinism is a hard requirement: every experiment in the paper
//! reproduction must be exactly re-runnable from a seed.
//!
//! ## Design notes
//!
//! * **Virtual time** — no host clocks anywhere. The [`Scheduler`] pops
//!   events in `(time, sequence)` order; ties are broken by insertion order so
//!   runs are stable across platforms.
//! * **Fault injection** — the [`ChannelModel`] decides, per
//!   transmission, whether a message is delivered, lost, or delivered after a
//!   retransmission (and with what latency). This mirrors the fault-injection
//!   options event-driven stacks like smoltcp expose on their examples
//!   (`--drop-chance` etc.) and is what produces the benign false-positive
//!   noise the paper attributes to "network interference (e.g., RRC message
//!   retransmissions)".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod rng;
mod scheduler;

pub use channel::{ChannelConfig, ChannelModel, ChannelOutcome, ChannelStats};
pub use rng::RngStreams;
pub use scheduler::Scheduler;

pub use xsec_types::{Duration, Timestamp};
