//! # xsec-attacks
//!
//! From-scratch implementations of the five cellular attacks the paper
//! evaluates (§4, Table 3), mounted against the `xsec-ran` simulator exactly
//! the way the paper mounts them against OAI on COLOSSEUM — by inserting
//! malicious logic at the UE/radio layer:
//!
//! | Attack | Mechanism here | Literature |
//! |---|---|---|
//! | BTS DoS | rogue-UE flood of fabricated RRC connections that stall at authentication, each on a fresh RNTI | Kim et al., S&P'19 |
//! | Blind DoS | rogue UE replaying a sniffed victim TMSI across sessions, detaching the victim | Kim et al., S&P'19 |
//! | Uplink ID extraction | uplink overshadowing that garbles the victim's SUCI so the network itself demands the plaintext identity | Erni et al. (AdaptOver), MobiCom'22 |
//! | Downlink ID extraction | MiTM overwriting the downlink authentication request with a plaintext identity request | Kotuliak et al. (LTrack), USENIX Sec'22 |
//! | Null cipher & integrity | MiTM stripping UE security capabilities and forging the anti-bidding-down echo | Hussain et al. (5GReasoner), CCS'19 |
//!
//! Every attack honors the paper's threat model: adversaries transmit, flood,
//! or hijack *unprotected* messages only — no AKA keys are ever forged.
//!
//! [`dataset`] assembles the labeled attack datasets (benign traffic with
//! attack episodes mixed in) that the Table 2 / Figure 4 experiments consume.
//!
//! [`rogue_xapp`] adds the one adversary that attacks from *inside* the
//! RIC rather than over the air: a malicious tenant xApp that spoofs
//! findings, forges A1 envelopes, and injects Control Requests — the
//! scenario the platform's capability-scoped authorization exists to stop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blind_dos;
mod bts_dos;
mod dataset;
mod id_extraction;
mod migrate;
mod null_cipher;
mod rogue_xapp;
mod wrap;

pub use blind_dos::{BlindDosUe, TmsiSniffer};
pub use bts_dos::{BtsDosConfig, BtsDosUe};
pub use dataset::{attack_simulator, AttackDataset, DatasetBuilder};
pub use id_extraction::{DownlinkIdExtractor, UplinkIdExtractor};
pub use migrate::{MigrateConfig, MigrationSchedule};
pub use null_cipher::NullCipherMitm;
pub use rogue_xapp::{RogueReport, RogueXApp};
