//! The simulated Access and Mobility Management Function (5G core).
//!
//! Implements the NAS side of registration: identity resolution (SUCI
//! de-concealment, TMSI lookup, plaintext fallback), 5G-AKA challenge /
//! verification, NAS security-mode negotiation, TMSI allocation, service
//! requests, PDU sessions, and deregistration.
//!
//! The AMF is deliberately a pure, synchronous state machine: the simulator
//! feeds it uplink NAS messages and it returns [`AmfAction`]s (downlink NAS
//! to send, connections to release). This keeps it unit-testable without the
//! event loop, and mirrors how the paper treats the core network as a
//! trusted black box behind NGAP.
//!
//! ## Security-relevant policies
//!
//! * **Identity fallback** — when the presented identity cannot be resolved
//!   (unknown TMSI, garbled SUCI), the AMF falls back to an
//!   `IdentityRequest`. [`AmfConfig::identity_fallback_plaintext`] selects
//!   whether it demands the *plaintext* SUPI (the permissive behavior the
//!   uplink identity-extraction attack exploits) or a fresh SUCI.
//! * **TMSI conflict** — a registration/service request presenting a TMSI
//!   that is *currently attached on another connection* detaches the old
//!   connection (the victim), which is exactly the Blind-DoS disruption.

use crate::auth;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use xsec_proto::nas::{IdentityType, NasMessage, NasRejectCause};
use xsec_proto::MobileIdentity;
use xsec_types::{ReleaseCause, SecurityCapabilities, Supi, Tmsi};

/// One provisioned subscriber (SIM profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberRecord {
    /// The permanent identity.
    pub supi: Supi,
    /// The long-term AKA key.
    pub key: u64,
}

/// AMF policy knobs.
#[derive(Debug, Clone)]
pub struct AmfConfig {
    /// When an identity cannot be resolved, demand the plaintext SUPI
    /// (`true`, permissive — the behavior the AdaptOver-style uplink
    /// extraction banks on) or a fresh SUCI (`false`, strict).
    identity_fallback_plaintext: bool,
    /// Maximum authentication attempts per connection before rejecting.
    max_auth_attempts: u32,
    /// Upper bound on remembered TMSI→subscriber bindings. `None` keeps
    /// every binding forever (fine for bounded scenario runs); streaming
    /// runs set a cap so the AMF forgets the oldest *detached* TMSIs first
    /// and its memory stays flat while millions of UEs churn through.
    pub tmsi_retention: Option<usize>,
}

impl Default for AmfConfig {
    fn default() -> Self {
        AmfConfig {
            identity_fallback_plaintext: true,
            max_auth_attempts: 2,
            tmsi_retention: None,
        }
    }
}

/// Something the AMF wants the RAN/simulator to do.
#[derive(Debug, Clone, PartialEq)]
pub enum AmfAction {
    /// Send a downlink NAS message on the given connection.
    SendNas {
        /// RAN UE NGAP id of the target connection.
        conn: u64,
        /// The message.
        msg: NasMessage,
    },
    /// Release a (different) connection — e.g. the victim of a TMSI
    /// conflict, or a deregistered UE.
    ReleaseConnection {
        /// RAN UE NGAP id of the connection to drop.
        conn: u64,
        /// Why.
        cause: ReleaseCause,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPhase {
    Resolving,
    AuthPending,
    SecurityMode,
    Registered,
}

#[derive(Debug)]
struct ConnContext {
    phase: ConnPhase,
    msin: Option<u64>,
    capabilities: SecurityCapabilities,
    challenge: Option<(u64, u64)>, // (rand, expected res)
    auth_attempts: u32,
    tmsi: Option<Tmsi>,
}

/// The AMF state machine.
#[derive(Debug)]
pub struct Amf {
    config: AmfConfig,
    subscribers: HashMap<u64, SubscriberRecord>, // msin → record
    tmsi_owner: HashMap<Tmsi, u64>,              // allocated tmsi → msin
    tmsi_order: VecDeque<Tmsi>,                  // allocation order, for retention eviction
    attached: HashMap<Tmsi, u64>,                // tmsi → active conn
    conns: HashMap<u64, ConnContext>,
    next_tmsi: u32,
    rng: StdRng,
}

impl Amf {
    /// Creates an AMF with the given policy and RNG stream.
    pub fn new(config: AmfConfig, rng: StdRng) -> Self {
        Amf {
            config,
            subscribers: HashMap::new(),
            tmsi_owner: HashMap::new(),
            tmsi_order: VecDeque::new(),
            attached: HashMap::new(),
            conns: HashMap::new(),
            next_tmsi: 0x0100_0000,
            rng,
        }
    }

    /// Provisions a subscriber.
    pub fn provision(&mut self, record: SubscriberRecord) {
        self.subscribers.insert(record.supi.msin, record);
    }

    /// Removes a subscriber's SIM profile (e.g. after the streaming engine
    /// retires the UE for good). Any live attachment is unaffected; the
    /// subscriber simply cannot authenticate fresh registrations anymore.
    pub fn forget_subscriber(&mut self, msin: u64) {
        self.subscribers.remove(&msin);
    }

    /// Provisions a *stale* TMSI binding: the AMF remembers it belongs to
    /// `msin` (e.g. from before a restart) although no connection is
    /// attached under it. A warm-starting UE presenting this TMSI resolves
    /// directly — no identity procedure, exactly like a production AMF with
    /// persistent TMSI state.
    pub fn provision_stale_tmsi(&mut self, tmsi: Tmsi, msin: u64) {
        if self.tmsi_owner.insert(tmsi, msin).is_none() {
            self.tmsi_order.push_back(tmsi);
        }
        self.enforce_tmsi_retention();
    }

    /// Drops the oldest detached TMSI bindings until the retention cap (if
    /// configured) is respected. Currently attached TMSIs are never evicted
    /// — they are re-queued behind the newest allocation instead.
    fn enforce_tmsi_retention(&mut self) {
        let Some(cap) = self.config.tmsi_retention else { return };
        let mut budget = self.tmsi_order.len();
        while self.tmsi_owner.len() > cap && budget > 0 {
            budget -= 1;
            let Some(tmsi) = self.tmsi_order.pop_front() else { break };
            if self.attached.contains_key(&tmsi) {
                self.tmsi_order.push_back(tmsi);
            } else {
                self.tmsi_owner.remove(&tmsi);
            }
        }
    }

    /// Informs the AMF that the RAN dropped a connection (guard timer,
    /// radio failure). Cleans up the association.
    pub fn connection_closed(&mut self, conn: u64) {
        if let Some(ctx) = self.conns.remove(&conn) {
            if let Some(tmsi) = ctx.tmsi {
                if self.attached.get(&tmsi) == Some(&conn) {
                    self.attached.remove(&tmsi);
                }
            }
        }
    }

    /// Feeds one uplink NAS message from connection `conn`.
    pub fn handle_uplink(&mut self, conn: u64, msg: &NasMessage) -> Vec<AmfAction> {
        match msg {
            NasMessage::RegistrationRequest { identity, capabilities } => {
                self.handle_registration(conn, identity, *capabilities)
            }
            NasMessage::IdentityResponse { identity } => self.handle_identity(conn, identity),
            NasMessage::AuthenticationResponse { res } => self.handle_auth_response(conn, *res),
            NasMessage::AuthenticationFailure { .. } => {
                vec![AmfAction::SendNas { conn, msg: NasMessage::AuthenticationReject }]
            }
            NasMessage::SecurityModeComplete => self.handle_smc_complete(conn),
            NasMessage::SecurityModeReject { .. } => vec![
                AmfAction::SendNas {
                    conn,
                    msg: NasMessage::RegistrationReject { cause: NasRejectCause::IllegalUe },
                },
                AmfAction::ReleaseConnection { conn, cause: ReleaseCause::NetworkAbort },
            ],
            NasMessage::RegistrationComplete => Vec::new(),
            NasMessage::ServiceRequest { tmsi } => self.handle_service_request(conn, *tmsi),
            NasMessage::PduSessionEstablishmentRequest { session_id } => {
                match self.conns.get(&conn) {
                    Some(ctx) if ctx.phase == ConnPhase::Registered => vec![AmfAction::SendNas {
                        conn,
                        msg: NasMessage::PduSessionEstablishmentAccept { session_id: *session_id },
                    }],
                    _ => Vec::new(), // session request before registration: ignored
                }
            }
            NasMessage::DeregistrationRequest => {
                let mut actions = vec![AmfAction::SendNas {
                    conn,
                    msg: NasMessage::DeregistrationAccept,
                }];
                if let Some(ctx) = self.conns.get(&conn) {
                    if let Some(tmsi) = ctx.tmsi {
                        self.attached.remove(&tmsi);
                    }
                }
                actions.push(AmfAction::ReleaseConnection { conn, cause: ReleaseCause::Normal });
                actions
            }
            // Downlink-only kinds arriving uplink are dropped silently (the
            // conformance checker, not the AMF, is the anomaly detector).
            _ => Vec::new(),
        }
    }

    fn ctx(&mut self, conn: u64) -> &mut ConnContext {
        self.conns.entry(conn).or_insert_with(|| ConnContext {
            phase: ConnPhase::Resolving,
            msin: None,
            capabilities: SecurityCapabilities::full(),
            challenge: None,
            auth_attempts: 0,
            tmsi: None,
        })
    }

    fn identity_fallback(&self) -> IdentityType {
        if self.config.identity_fallback_plaintext {
            IdentityType::PlainSupi
        } else {
            IdentityType::Suci
        }
    }

    fn handle_registration(
        &mut self,
        conn: u64,
        identity: &MobileIdentity,
        capabilities: SecurityCapabilities,
    ) -> Vec<AmfAction> {
        self.ctx(conn).capabilities = capabilities;
        let mut actions = Vec::new();

        let msin = match identity {
            MobileIdentity::Suci { concealed, .. } => {
                let msin = auth::reveal_supi(*concealed);
                if self.subscribers.contains_key(&msin) {
                    Some(msin)
                } else {
                    None
                }
            }
            MobileIdentity::FiveGSTmsi(tmsi) => {
                // TMSI conflict: if attached elsewhere, detach the victim.
                if let Some(old_conn) = self.attached.get(tmsi).copied() {
                    if old_conn != conn {
                        self.connection_closed(old_conn);
                        actions.push(AmfAction::ReleaseConnection {
                            conn: old_conn,
                            cause: ReleaseCause::NetworkAbort,
                        });
                    }
                }
                self.tmsi_owner.get(tmsi).copied()
            }
            MobileIdentity::PlainSupi(supi) => {
                if self.subscribers.contains_key(&supi.msin) {
                    Some(supi.msin)
                } else {
                    None
                }
            }
        };

        match msin {
            Some(msin) => {
                actions.extend(self.start_authentication(conn, msin));
                actions
            }
            None => {
                // Cannot resolve: identity procedure (the uplink-extraction
                // lever when the fallback is plaintext).
                let id_type = self.identity_fallback();
                self.ctx(conn).phase = ConnPhase::Resolving;
                actions.push(AmfAction::SendNas {
                    conn,
                    msg: NasMessage::IdentityRequest { id_type },
                });
                actions
            }
        }
    }

    fn handle_identity(&mut self, conn: u64, identity: &MobileIdentity) -> Vec<AmfAction> {
        let msin = match identity {
            MobileIdentity::Suci { concealed, .. } => Some(auth::reveal_supi(*concealed)),
            MobileIdentity::PlainSupi(supi) => Some(supi.msin),
            MobileIdentity::FiveGSTmsi(tmsi) => self.tmsi_owner.get(tmsi).copied(),
        };
        match msin.filter(|m| self.subscribers.contains_key(m)) {
            Some(msin) => self.start_authentication(conn, msin),
            None => vec![
                AmfAction::SendNas {
                    conn,
                    msg: NasMessage::RegistrationReject { cause: NasRejectCause::IllegalUe },
                },
                AmfAction::ReleaseConnection { conn, cause: ReleaseCause::NetworkAbort },
            ],
        }
    }

    fn start_authentication(&mut self, conn: u64, msin: u64) -> Vec<AmfAction> {
        let key = self.subscribers[&msin].key;
        let rand: u64 = self.rng.gen();
        let expected = auth::aka_response(key, rand);
        let ctx = self.ctx(conn);
        ctx.msin = Some(msin);
        ctx.challenge = Some((rand, expected));
        ctx.phase = ConnPhase::AuthPending;
        vec![AmfAction::SendNas {
            conn,
            msg: NasMessage::AuthenticationRequest { rand, autn: auth::aka_response(rand, key) },
        }]
    }

    fn handle_auth_response(&mut self, conn: u64, res: u64) -> Vec<AmfAction> {
        let Some(ctx) = self.conns.get_mut(&conn) else {
            return Vec::new();
        };
        let Some((_, expected)) = ctx.challenge else {
            return Vec::new(); // response without outstanding challenge
        };
        if res == expected {
            ctx.phase = ConnPhase::SecurityMode;
            let caps = ctx.capabilities;
            let (cipher, integrity) = caps.negotiate();
            vec![AmfAction::SendNas {
                conn,
                msg: NasMessage::SecurityModeCommand {
                    cipher,
                    integrity,
                    replayed_capabilities: caps,
                },
            }]
        } else {
            ctx.auth_attempts += 1;
            if ctx.auth_attempts >= self.config.max_auth_attempts {
                vec![
                    AmfAction::SendNas { conn, msg: NasMessage::AuthenticationReject },
                    AmfAction::ReleaseConnection { conn, cause: ReleaseCause::NetworkAbort },
                ]
            } else if let Some(msin) = ctx.msin {
                self.start_authentication(conn, msin)
            } else {
                Vec::new()
            }
        }
    }

    fn handle_smc_complete(&mut self, conn: u64) -> Vec<AmfAction> {
        let Some(ctx) = self.conns.get_mut(&conn) else {
            return Vec::new();
        };
        if ctx.phase != ConnPhase::SecurityMode {
            return Vec::new();
        }
        let Some(msin) = ctx.msin else { return Vec::new() };
        let tmsi = Tmsi(self.next_tmsi);
        self.next_tmsi = self.next_tmsi.wrapping_add(1);
        ctx.phase = ConnPhase::Registered;
        ctx.tmsi = Some(tmsi);
        if self.tmsi_owner.insert(tmsi, msin).is_none() {
            self.tmsi_order.push_back(tmsi);
        }
        self.attached.insert(tmsi, conn);
        self.enforce_tmsi_retention();
        vec![AmfAction::SendNas { conn, msg: NasMessage::RegistrationAccept { new_tmsi: tmsi } }]
    }

    fn handle_service_request(&mut self, conn: u64, tmsi: Tmsi) -> Vec<AmfAction> {
        let mut actions = Vec::new();
        // Conflict check first (Blind DoS lever).
        if let Some(old_conn) = self.attached.get(&tmsi).copied() {
            if old_conn != conn {
                self.connection_closed(old_conn);
                actions.push(AmfAction::ReleaseConnection {
                    conn: old_conn,
                    cause: ReleaseCause::NetworkAbort,
                });
            }
        }
        match self.tmsi_owner.get(&tmsi).copied() {
            Some(msin) => {
                // Re-authenticate on service request (conservative policy —
                // also what makes a replayed TMSI stall at the challenge).
                actions.extend(self.start_authentication(conn, msin));
                actions
            }
            None => {
                let id_type = self.identity_fallback();
                actions.push(AmfAction::SendNas {
                    conn,
                    msg: NasMessage::IdentityRequest { id_type },
                });
                actions
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use xsec_types::Plmn;

    fn amf() -> Amf {
        let mut amf = Amf::new(AmfConfig::default(), StdRng::seed_from_u64(7));
        amf.provision(SubscriberRecord { supi: Supi::new(Plmn::TEST, 1000), key: 0xAA });
        amf.provision(SubscriberRecord { supi: Supi::new(Plmn::TEST, 2000), key: 0xBB });
        amf
    }

    fn suci(msin: u64, nonce: u32) -> MobileIdentity {
        MobileIdentity::Suci { plmn: Plmn::TEST, concealed: auth::conceal_supi(msin, nonce) }
    }

    /// Drives a full benign registration; returns the assigned TMSI.
    fn register(amf: &mut Amf, conn: u64, msin: u64, key: u64) -> Tmsi {
        let actions = amf.handle_uplink(
            conn,
            &NasMessage::RegistrationRequest {
                identity: suci(msin, conn as u32),
                capabilities: SecurityCapabilities::full(),
            },
        );
        let AmfAction::SendNas { msg: NasMessage::AuthenticationRequest { rand, .. }, .. } =
            &actions[0]
        else {
            panic!("expected challenge, got {actions:?}");
        };
        let res = auth::aka_response(key, *rand);
        let actions = amf.handle_uplink(conn, &NasMessage::AuthenticationResponse { res });
        assert!(
            matches!(
                actions[0],
                AmfAction::SendNas { msg: NasMessage::SecurityModeCommand { .. }, .. }
            ),
            "expected SMC, got {actions:?}"
        );
        let actions = amf.handle_uplink(conn, &NasMessage::SecurityModeComplete);
        let AmfAction::SendNas { msg: NasMessage::RegistrationAccept { new_tmsi }, .. } =
            &actions[0]
        else {
            panic!("expected accept, got {actions:?}");
        };
        *new_tmsi
    }

    #[test]
    fn full_registration_ladder_succeeds() {
        let mut amf = amf();
        let tmsi = register(&mut amf, 1, 1000, 0xAA);
        assert!(amf.attached.contains_key(&tmsi));
        assert_eq!(amf.attached.len(), 1);
    }

    #[test]
    fn wrong_auth_response_retries_then_rejects() {
        let mut amf = amf();
        amf.handle_uplink(
            1,
            &NasMessage::RegistrationRequest {
                identity: suci(1000, 5),
                capabilities: SecurityCapabilities::full(),
            },
        );
        // First wrong answer → fresh challenge.
        let actions = amf.handle_uplink(1, &NasMessage::AuthenticationResponse { res: 0 });
        assert!(matches!(
            actions[0],
            AmfAction::SendNas { msg: NasMessage::AuthenticationRequest { .. }, .. }
        ));
        // Second wrong answer → reject + release.
        let actions = amf.handle_uplink(1, &NasMessage::AuthenticationResponse { res: 0 });
        assert!(matches!(
            actions[0],
            AmfAction::SendNas { msg: NasMessage::AuthenticationReject, .. }
        ));
        assert!(matches!(actions[1], AmfAction::ReleaseConnection { .. }));
    }

    #[test]
    fn unknown_suci_triggers_identity_request_with_plaintext_fallback() {
        let mut amf = amf();
        // Garbled SUCI that reveals to an unknown MSIN.
        let actions = amf.handle_uplink(
            1,
            &NasMessage::RegistrationRequest {
                identity: MobileIdentity::Suci { plmn: Plmn::TEST, concealed: 0xBAD },
                capabilities: SecurityCapabilities::full(),
            },
        );
        assert_eq!(
            actions,
            vec![AmfAction::SendNas {
                conn: 1,
                msg: NasMessage::IdentityRequest { id_type: IdentityType::PlainSupi },
            }]
        );
    }

    #[test]
    fn strict_fallback_asks_for_suci_instead() {
        let mut amf = Amf::new(
            AmfConfig { identity_fallback_plaintext: false, ..AmfConfig::default() },
            StdRng::seed_from_u64(1),
        );
        let actions = amf.handle_uplink(
            1,
            &NasMessage::RegistrationRequest {
                identity: MobileIdentity::FiveGSTmsi(Tmsi(0xDEAD)),
                capabilities: SecurityCapabilities::full(),
            },
        );
        assert!(matches!(
            actions[0],
            AmfAction::SendNas {
                msg: NasMessage::IdentityRequest { id_type: IdentityType::Suci },
                ..
            }
        ));
    }

    #[test]
    fn identity_response_with_plain_supi_resumes_authentication() {
        let mut amf = amf();
        amf.handle_uplink(
            1,
            &NasMessage::RegistrationRequest {
                identity: MobileIdentity::Suci { plmn: Plmn::TEST, concealed: 0xBAD },
                capabilities: SecurityCapabilities::full(),
            },
        );
        let actions = amf.handle_uplink(
            1,
            &NasMessage::IdentityResponse {
                identity: MobileIdentity::PlainSupi(Supi::new(Plmn::TEST, 1000)),
            },
        );
        assert!(matches!(
            actions[0],
            AmfAction::SendNas { msg: NasMessage::AuthenticationRequest { .. }, .. }
        ));
    }

    #[test]
    fn tmsi_conflict_detaches_the_victim_connection() {
        let mut amf = amf();
        let tmsi = register(&mut amf, 1, 1000, 0xAA);
        // A second connection presents the victim's TMSI.
        let actions = amf.handle_uplink(
            2,
            &NasMessage::RegistrationRequest {
                identity: MobileIdentity::FiveGSTmsi(tmsi),
                capabilities: SecurityCapabilities::full(),
            },
        );
        assert!(
            actions.contains(&AmfAction::ReleaseConnection {
                conn: 1,
                cause: ReleaseCause::NetworkAbort,
            }),
            "victim was not detached: {actions:?}"
        );
        assert!(!amf.attached.contains_key(&tmsi));
        // The imposter still faces an AKA challenge it cannot answer.
        assert!(actions.iter().any(|a| matches!(
            a,
            AmfAction::SendNas { msg: NasMessage::AuthenticationRequest { .. }, .. }
        )));
    }

    #[test]
    fn stripped_capabilities_negotiate_null_algorithms() {
        let mut amf = amf();
        let actions = amf.handle_uplink(
            1,
            &NasMessage::RegistrationRequest {
                identity: suci(1000, 9),
                capabilities: SecurityCapabilities::null_only(),
            },
        );
        let AmfAction::SendNas { msg: NasMessage::AuthenticationRequest { rand, .. }, .. } =
            &actions[0]
        else {
            panic!("expected challenge");
        };
        let res = auth::aka_response(0xAA, *rand);
        let actions = amf.handle_uplink(1, &NasMessage::AuthenticationResponse { res });
        let AmfAction::SendNas {
            msg: NasMessage::SecurityModeCommand { cipher, integrity, .. },
            ..
        } = &actions[0]
        else {
            panic!("expected SMC");
        };
        assert!(cipher.is_null());
        assert!(integrity.is_null());
    }

    #[test]
    fn deregistration_detaches_and_releases() {
        let mut amf = amf();
        let tmsi = register(&mut amf, 1, 1000, 0xAA);
        let actions = amf.handle_uplink(1, &NasMessage::DeregistrationRequest);
        assert!(matches!(
            actions[0],
            AmfAction::SendNas { msg: NasMessage::DeregistrationAccept, .. }
        ));
        assert!(matches!(
            actions[1],
            AmfAction::ReleaseConnection { conn: 1, cause: ReleaseCause::Normal }
        ));
        assert!(!amf.attached.contains_key(&tmsi));
    }

    #[test]
    fn pdu_session_only_after_registration() {
        let mut amf = amf();
        // Before registration: ignored.
        let actions =
            amf.handle_uplink(1, &NasMessage::PduSessionEstablishmentRequest { session_id: 1 });
        assert!(actions.is_empty());
        register(&mut amf, 1, 1000, 0xAA);
        let actions =
            amf.handle_uplink(1, &NasMessage::PduSessionEstablishmentRequest { session_id: 1 });
        assert!(matches!(
            actions[0],
            AmfAction::SendNas {
                msg: NasMessage::PduSessionEstablishmentAccept { session_id: 1 },
                ..
            }
        ));
    }

    #[test]
    fn connection_closed_cleans_attachment() {
        let mut amf = amf();
        let tmsi = register(&mut amf, 1, 1000, 0xAA);
        amf.connection_closed(1);
        assert!(!amf.attached.contains_key(&tmsi));
    }

    #[test]
    fn tmsi_retention_evicts_oldest_detached_binding_first() {
        let mut amf = Amf::new(
            AmfConfig { tmsi_retention: Some(2), ..AmfConfig::default() },
            StdRng::seed_from_u64(3),
        );
        amf.provision(SubscriberRecord { supi: Supi::new(Plmn::TEST, 1000), key: 0xAA });
        let attached = register(&mut amf, 1, 1000, 0xAA);
        // Two stale bindings push past the cap; the attached TMSI must
        // survive while the oldest detached binding is evicted.
        amf.provision_stale_tmsi(Tmsi(0xA1), 1000);
        amf.provision_stale_tmsi(Tmsi(0xA2), 1000);
        assert_eq!(amf.tmsi_owner.len(), 2);
        assert!(amf.tmsi_owner.contains_key(&attached));
        assert!(!amf.tmsi_owner.contains_key(&Tmsi(0xA1)));
        assert!(amf.tmsi_owner.contains_key(&Tmsi(0xA2)));
    }

    #[test]
    fn forget_subscriber_removes_the_sim_profile() {
        let mut amf = amf();
        assert_eq!(amf.subscribers.len(), 2);
        amf.forget_subscriber(1000);
        assert_eq!(amf.subscribers.len(), 1);
        // Fresh registrations for the forgotten MSIN now hit the identity
        // fallback instead of authenticating.
        let actions = amf.handle_uplink(
            9,
            &NasMessage::RegistrationRequest {
                identity: suci(1000, 1),
                capabilities: SecurityCapabilities::full(),
            },
        );
        assert!(matches!(
            actions[0],
            AmfAction::SendNas { msg: NasMessage::IdentityRequest { .. }, .. }
        ));
    }

    #[test]
    fn smc_complete_without_context_is_ignored() {
        let mut amf = amf();
        assert!(amf.handle_uplink(99, &NasMessage::SecurityModeComplete).is_empty());
    }
}
