//! Helpers for seeing through RRC piggybacking.
//!
//! Over the air, the initial uplink NAS message rides inside
//! `RRCSetupComplete` (and later NAS inside `ULInformationTransfer`). A MiTM
//! that wants to tamper with the NAS payload reads the carried message and
//! swaps a substitute into the same carrier — these helpers do exactly that.

use xsec_proto::{L3Message, NasMessage, RrcMessage};

/// The uplink NAS message carried by `msg`, whether bare or piggybacked in
/// RRC. `None` for pure-RRC messages.
pub(crate) fn uplink_nas(msg: &L3Message) -> Option<&NasMessage> {
    match msg {
        L3Message::Nas(nas) => Some(nas),
        L3Message::Rrc(rrc) => rrc.nas(),
    }
}

/// Rebuilds `original` with its NAS payload replaced by `new_nas`,
/// preserving the carrier (bare NAS stays bare, `SetupComplete` stays
/// `SetupComplete`, ...).
pub(crate) fn with_nas(original: &L3Message, new_nas: NasMessage) -> L3Message {
    let mut message = original.clone();
    match &mut message {
        L3Message::Nas(nas) => *nas = new_nas,
        L3Message::Rrc(
            RrcMessage::SetupComplete { nas }
            | RrcMessage::UlInformationTransfer { nas }
            | RrcMessage::DlInformationTransfer { nas },
        ) => **nas = new_nas,
        // No NAS carrier: the original, untouched.
        L3Message::Rrc(_) => {}
    }
    message
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_nas_round_trip() {
        let msg = L3Message::Nas(NasMessage::SecurityModeComplete);
        assert_eq!(uplink_nas(&msg), Some(&NasMessage::SecurityModeComplete));
        let swapped = with_nas(&msg, NasMessage::RegistrationComplete);
        assert_eq!(swapped, L3Message::Nas(NasMessage::RegistrationComplete));
    }

    #[test]
    fn setup_complete_container_round_trip() {
        // And the two information transfers: every carrier keeps its kind.
        let carriers: [fn(Box<NasMessage>) -> RrcMessage; 3] = [
            |nas| RrcMessage::SetupComplete { nas },
            |nas| RrcMessage::UlInformationTransfer { nas },
            |nas| RrcMessage::DlInformationTransfer { nas },
        ];
        for carry in carriers {
            let inner = NasMessage::RegistrationComplete;
            let msg = L3Message::Rrc(carry(Box::new(inner.clone())));
            assert_eq!(uplink_nas(&msg), Some(&inner));

            let swapped = with_nas(&msg, NasMessage::DeregistrationRequest);
            assert_eq!(swapped, L3Message::Rrc(carry(Box::new(NasMessage::DeregistrationRequest))));
        }
    }

    #[test]
    fn pure_rrc_has_no_nas() {
        assert_eq!(uplink_nas(&L3Message::Rrc(RrcMessage::Setup)), None);
        let untouched = with_nas(&L3Message::Rrc(RrcMessage::Setup), NasMessage::ServiceAccept);
        assert_eq!(untouched, L3Message::Rrc(RrcMessage::Setup));
    }
}
