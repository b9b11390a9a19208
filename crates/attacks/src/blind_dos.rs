//! Blind DoS: replay a victim's temporary identity to knock it off the
//! network (Kim et al., S&P'19).
//!
//! Two cooperating components:
//!
//! * [`TmsiSniffer`] — a passive over-the-air observer that records the
//!   TMSIs the network assigns in `RegistrationAccept` messages (they are
//!   transmitted before confidentiality protects them in our model, as the
//!   attack papers assume for paging/accept observation);
//! * [`BlindDosUe`] — a rogue UE that repeatedly opens connections
//!   presenting a sniffed victim TMSI. The AMF sees the "victim" appearing
//!   on a new connection, detaches the real one (`RRCRelease` with
//!   network-abort), and challenges the imposter — who goes silent and
//!   replays again.
//!
//! Telemetry signature (what the paper's LLMs keyed on): *the same TMSI
//! recurring across distinct UE sessions/RNTIs*, each stalling after the
//! challenge, with victim connections dying mid-session.

use rand::rngs::StdRng;
use rand::Rng;
use std::sync::{Arc, Mutex};
use xsec_proto::{L3Message, MobileIdentity, NasMessage, RrcMessage};
use xsec_ran::intercept::{Intercept, Interceptor};
use xsec_ran::ue::{UeActions, UeBehavior};
use xsec_types::{Duration, EstablishmentCause, Timestamp, Tmsi, UeId};

/// Shared sniffer memory: TMSIs observed on the air, oldest first.
pub type SniffedTmsis = Arc<Mutex<Vec<Tmsi>>>;

/// Passive observer recording assigned TMSIs from downlink accepts.
pub struct TmsiSniffer {
    store: SniffedTmsis,
}

impl TmsiSniffer {
    /// Creates a sniffer and the shared store the rogue UE reads.
    pub fn new() -> (Self, SniffedTmsis) {
        let store: SniffedTmsis = Arc::new(Mutex::new(Vec::new()));
        (TmsiSniffer { store: store.clone() }, store)
    }
}

impl Interceptor for TmsiSniffer {
    fn on_downlink(&mut self, _ue: UeId, msg: &L3Message) -> Intercept {
        if let L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi }) = msg {
            self.store.lock().expect("sniffer store").push(*new_tmsi);
        }
        Intercept::Pass // purely passive
    }
}

const REPLAY: u32 = 0xB11D;

/// The replaying rogue UE.
pub struct BlindDosUe {
    sniffed: SniffedTmsis,
    replays: u32,
    done: u32,
    gap: Duration,
    awaiting_setup: bool,
    current_target: Option<Tmsi>,
}

impl BlindDosUe {
    /// Creates the replayer: `replays` connection attempts, `gap` apart,
    /// targeting TMSIs from the shared sniffer store.
    pub fn new(sniffed: SniffedTmsis, replays: u32, gap: Duration) -> Self {
        BlindDosUe { sniffed, replays, done: 0, gap, awaiting_setup: false, current_target: None }
    }

    fn open(&mut self, rng: &mut StdRng) -> UeActions {
        // Lock the newest sniffed TMSI as this round's target; if nothing
        // was sniffed yet, retry shortly.
        let target = { self.sniffed.lock().expect("sniffer store").last().copied() };
        match target {
            None => UeActions::none().timer(self.gap, REPLAY),
            Some(tmsi) => {
                self.current_target = Some(tmsi);
                self.done += 1;
                self.awaiting_setup = true;
                let mut actions =
                    UeActions::none().send(L3Message::Rrc(RrcMessage::SetupRequest {
                        ue_identity: rng.gen(),
                        cause: EstablishmentCause::MoSignalling,
                    }));
                if self.done < self.replays {
                    actions = actions.timer(self.gap, REPLAY);
                }
                actions
            }
        }
    }
}

impl UeBehavior for BlindDosUe {
    fn on_power_on(&mut self, _now: Timestamp, rng: &mut StdRng) -> UeActions {
        self.open(rng)
    }

    fn on_downlink(&mut self, _now: Timestamp, msg: &L3Message, _rng: &mut StdRng) -> UeActions {
        match msg {
            L3Message::Rrc(RrcMessage::Setup) if self.awaiting_setup => {
                self.awaiting_setup = false;
                let Some(tmsi) = self.current_target else {
                    return UeActions::none();
                };
                let reg = NasMessage::RegistrationRequest {
                    identity: MobileIdentity::FiveGSTmsi(tmsi),
                    capabilities: xsec_types::SecurityCapabilities::full(),
                };
                UeActions::none()
                    .send(L3Message::Rrc(RrcMessage::SetupComplete { nas: Box::new(reg) }))
            }
            // Challenges / identity requests: silence. The damage (victim
            // detach) is already done.
            _ => UeActions::none(),
        }
    }

    fn on_timer(&mut self, _now: Timestamp, token: u32, rng: &mut StdRng) -> UeActions {
        if token == REPLAY && self.done < self.replays {
            self.open(rng)
        } else {
            UeActions::none()
        }
    }

    fn response_delay(&self, _rng: &mut StdRng) -> Duration {
        Duration::from_micros(900)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sniffer_records_accepts_and_stays_passive() {
        let (mut sniffer, store) = TmsiSniffer::new();
        let accept = L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi: Tmsi(7) });
        assert_eq!(sniffer.on_downlink(UeId(1), &accept), Intercept::Pass);
        let other = L3Message::Rrc(RrcMessage::Setup);
        assert_eq!(sniffer.on_downlink(UeId(1), &other), Intercept::Pass);
        assert_eq!(*store.lock().unwrap(), vec![Tmsi(7)]);
    }

    #[test]
    fn replayer_waits_until_something_is_sniffed() {
        let (_, store) = TmsiSniffer::new();
        let mut ue = BlindDosUe::new(store.clone(), 2, Duration::from_millis(10));
        let mut rng = StdRng::seed_from_u64(1);
        // Nothing sniffed yet → no send, just a retry timer.
        let actions = ue.on_power_on(Timestamp::ZERO, &mut rng);
        assert!(actions.sends.is_empty());
        assert_eq!(actions.timers.len(), 1);
        // Sniff a TMSI; the retry opens a connection.
        store.lock().unwrap().push(Tmsi(0xAA));
        let actions = ue.on_timer(Timestamp::ZERO, REPLAY, &mut rng);
        assert!(matches!(actions.sends[0], L3Message::Rrc(RrcMessage::SetupRequest { .. })));
    }

    #[test]
    fn replayer_presents_the_sniffed_tmsi() {
        let (_, store) = TmsiSniffer::new();
        store.lock().unwrap().push(Tmsi(0xBEEF));
        let mut ue = BlindDosUe::new(store, 1, Duration::from_millis(10));
        let mut rng = StdRng::seed_from_u64(2);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        let actions = ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
        let L3Message::Rrc(RrcMessage::SetupComplete { nas }) = &actions.sends[0] else {
            panic!("expected SetupComplete");
        };
        let NasMessage::RegistrationRequest { identity, .. } = **nas else {
            panic!("expected RegistrationRequest");
        };
        assert_eq!(identity, MobileIdentity::FiveGSTmsi(Tmsi(0xBEEF)));
    }

    #[test]
    fn replayer_ignores_challenges() {
        let (_, store) = TmsiSniffer::new();
        store.lock().unwrap().push(Tmsi(1));
        let mut ue = BlindDosUe::new(store, 1, Duration::from_millis(10));
        let mut rng = StdRng::seed_from_u64(3);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        let challenge = L3Message::Nas(NasMessage::AuthenticationRequest { rand: 1, autn: 1 });
        assert!(ue.on_downlink(Timestamp::ZERO, &challenge, &mut rng).sends.is_empty());
    }
}
