//! Identity-extraction attacks: force a victim to transmit its permanent
//! identity (SUPI) in plaintext so the attacker can track it.
//!
//! Two variants from the literature, both implemented as air-interface MiTM
//! interceptors against a chosen victim:
//!
//! * **Uplink** ([`UplinkIdExtractor`], AdaptOver — Erni et al.,
//!   MobiCom'22): the attacker overshadows the victim's *uplink*
//!   `RegistrationRequest`, garbling the SUCI. The network cannot resolve
//!   the identity and — following its own permissive fallback — sends a
//!   legitimate `IdentityRequest` for the plaintext SUPI, which the victim
//!   dutifully answers. Every message in the resulting trace is
//!   standards-compliant; only the *content* (a plaintext SUPI on the air)
//!   betrays the attack. This is the trace most LLMs miss in Table 3.
//!
//! * **Downlink** ([`DownlinkIdExtractor`], LTrack — Kotuliak et al.,
//!   USENIX Sec'22; paper Figure 2a): the attacker overwrites the *downlink*
//!   `AuthenticationRequest` with an `IdentityRequest(SUPI)`. The network
//!   then observes an `IdentityResponse` where it expected an
//!   `AuthenticationResponse` — an out-of-order univariate anomaly.

use xsec_proto::nas::IdentityType;
use xsec_proto::{L3Message, MessageKind, MobileIdentity, NasMessage};
use xsec_ran::auth::conceal_supi;
use xsec_ran::intercept::{Intercept, Interceptor, TaintScope};
use xsec_types::{AttackKind, UeId};

/// AdaptOver-style uplink overshadowing against one victim.
pub struct UplinkIdExtractor {
    victim: UeId,
    /// How many registration attempts to garble (each yields one exposure).
    remaining: u32,
}

impl UplinkIdExtractor {
    /// Targets `victim` for `episodes` registration attempts.
    pub fn new(victim: UeId, episodes: u32) -> Self {
        UplinkIdExtractor { victim, remaining: episodes }
    }
}

impl Interceptor for UplinkIdExtractor {
    fn on_uplink(&mut self, ue: UeId, msg: &L3Message) -> Intercept {
        if ue != self.victim || self.remaining == 0 {
            return Intercept::Pass;
        }
        // The registration may be bare NAS or ride inside RRCSetupComplete.
        let Some(&NasMessage::RegistrationRequest { identity, capabilities }) =
            crate::wrap::uplink_nas(msg)
        else {
            return Intercept::Pass;
        };
        self.remaining -= 1;
        // Overshadow: garble the presented identity (SUCI bits flipped / TMSI
        // replaced by an unresolvable SUCI). The network de-conceals to a
        // nonexistent subscriber and falls back to an identity request — a
        // perfectly legal exchange.
        let plmn = match identity {
            MobileIdentity::Suci { plmn, .. } => plmn,
            _ => xsec_types::Plmn::TEST,
        };
        let garbled =
            MobileIdentity::Suci { plmn, concealed: conceal_supi(0xDEAD_BEEF, 0xFFFF_FFFF) };
        Intercept::Replace {
            message: crate::wrap::with_nas(
                msg,
                NasMessage::RegistrationRequest { identity: garbled, capabilities },
            ),
            taint: AttackKind::UplinkIdExtraction,
            // The garbled registration reads exactly like a benign one in
            // telemetry; the observable malicious entries are the provoked
            // identity exchange. Anchoring on message kinds keeps the
            // labels aligned even across channel retransmissions.
            scope: TaintScope::Span {
                from: MessageKind::NasIdentityRequest,
                to: MessageKind::NasIdentityResponse,
            },
        }
    }
}

/// LTrack-style downlink overwrite against one victim.
pub struct DownlinkIdExtractor {
    victim: UeId,
    /// How many authentication requests to overwrite.
    remaining: u32,
}

impl DownlinkIdExtractor {
    /// Targets `victim` for `episodes` authentication exchanges.
    pub fn new(victim: UeId, episodes: u32) -> Self {
        DownlinkIdExtractor { victim, remaining: episodes }
    }
}

impl Interceptor for DownlinkIdExtractor {
    fn on_downlink(&mut self, ue: UeId, msg: &L3Message) -> Intercept {
        if ue != self.victim || self.remaining == 0 {
            return Intercept::Pass;
        }
        if let L3Message::Nas(NasMessage::AuthenticationRequest { .. }) = msg {
            self.remaining -= 1;
            return Intercept::Replace {
                message: L3Message::Nas(NasMessage::IdentityRequest {
                    id_type: IdentityType::PlainSupi,
                }),
                taint: AttackKind::DownlinkIdExtraction,
                // The overwritten transmission slot still shows the original
                // authentication request at the network tap; the observable
                // malicious entry is the out-of-order plaintext identity
                // response (Figure 2a's deviation).
                scope: TaintScope::Span {
                    from: MessageKind::NasIdentityResponse,
                    to: MessageKind::NasIdentityResponse,
                },
            };
        }
        Intercept::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_types::{Plmn, SecurityCapabilities};

    fn registration(concealed: u64) -> L3Message {
        L3Message::Nas(NasMessage::RegistrationRequest {
            identity: MobileIdentity::Suci { plmn: Plmn::TEST, concealed },
            capabilities: SecurityCapabilities::full(),
        })
    }

    #[test]
    fn uplink_extractor_garbles_victim_suci_only() {
        let mut mitm = UplinkIdExtractor::new(UeId(3), 1);
        // Non-victim passes.
        assert_eq!(mitm.on_uplink(UeId(1), &registration(42)), Intercept::Pass);
        // Victim gets garbled.
        match mitm.on_uplink(UeId(3), &registration(42)) {
            Intercept::Replace { message, taint, .. } => {
                assert_eq!(taint, AttackKind::UplinkIdExtraction);
                let L3Message::Nas(NasMessage::RegistrationRequest { identity, .. }) = message
                else {
                    panic!("still a registration request");
                };
                let MobileIdentity::Suci { concealed, .. } = identity else {
                    panic!("still a SUCI — the trace stays compliant-looking");
                };
                assert_ne!(concealed, 42);
            }
            other => panic!("expected Replace, got {other:?}"),
        }
        // Budget exhausted → passes afterward.
        assert_eq!(mitm.on_uplink(UeId(3), &registration(42)), Intercept::Pass);
    }

    #[test]
    fn uplink_extractor_ignores_other_messages() {
        let mut mitm = UplinkIdExtractor::new(UeId(3), 5);
        let msg = L3Message::Nas(NasMessage::SecurityModeComplete);
        assert_eq!(mitm.on_uplink(UeId(3), &msg), Intercept::Pass);
    }

    #[test]
    fn downlink_extractor_swaps_auth_request_for_identity_request() {
        let mut mitm = DownlinkIdExtractor::new(UeId(2), 1);
        let challenge = L3Message::Nas(NasMessage::AuthenticationRequest { rand: 1, autn: 2 });
        match mitm.on_downlink(UeId(2), &challenge) {
            Intercept::Replace { message, taint, .. } => {
                assert_eq!(taint, AttackKind::DownlinkIdExtraction);
                assert!(matches!(
                    message,
                    L3Message::Nas(NasMessage::IdentityRequest {
                        id_type: IdentityType::PlainSupi
                    })
                ));
            }
            other => panic!("expected Replace, got {other:?}"),
        }
        // Non-victims and later exchanges pass.
        assert_eq!(mitm.on_downlink(UeId(1), &challenge), Intercept::Pass);
        assert_eq!(mitm.on_downlink(UeId(2), &challenge), Intercept::Pass);
    }
}
