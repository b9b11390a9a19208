//! UE behaviors: the pluggable state machines driving each simulated device.
//!
//! [`UeBehavior`] is the single integration point for both legitimate
//! devices and the rogue UEs in `xsec-attacks` — the simulator does not know
//! or care which is which (ground-truth labels are attached out-of-band).
//!
//! [`BenignUe`] implements the normal 24.501 registration ladder with
//! device-profile timing and session habits; it is the behavior behind every
//! entry of the benign dataset.

use crate::auth;
use crate::device::DeviceModel;
use rand::rngs::StdRng;
use rand::Rng;
use xsec_proto::nas::IdentityType;
use xsec_proto::{L3Message, MobileIdentity, NasMessage, RrcMessage};
use xsec_types::{Duration, SecurityCapabilities, Supi, Timestamp, Tmsi};

/// What a behavior wants the simulator to do after handling an event.
#[derive(Debug, Default)]
pub struct UeActions {
    /// Uplink messages to transmit, in order.
    pub sends: Vec<L3Message>,
    /// Timers to arm: after `Duration`, deliver `on_timer(token)`.
    pub timers: Vec<(Duration, u32)>,
    /// Tear down local state and go silent (end of this UE's life).
    pub power_off: bool,
}

impl UeActions {
    /// No action.
    pub fn none() -> Self {
        UeActions::default()
    }

    /// Queues an uplink send.
    pub fn send(mut self, msg: L3Message) -> Self {
        self.sends.push(msg);
        self
    }

    /// Arms a timer.
    pub fn timer(mut self, delay: Duration, token: u32) -> Self {
        self.timers.push((delay, token));
        self
    }

    /// Marks the UE as done.
    pub fn off(mut self) -> Self {
        self.power_off = true;
        self
    }
}

/// A pluggable UE state machine.
///
/// The simulator guarantees: `on_power_on` is called exactly once, then
/// `on_downlink`/`on_timer` as events arrive. All randomness must come from
/// the provided RNG so runs stay deterministic.
pub trait UeBehavior: Send {
    /// Called when the UE starts; typically returns an `RRCSetupRequest`.
    fn on_power_on(&mut self, now: Timestamp, rng: &mut StdRng) -> UeActions;

    /// Called for each downlink message delivered to this UE.
    fn on_downlink(&mut self, now: Timestamp, msg: &L3Message, rng: &mut StdRng) -> UeActions;

    /// Called when a previously armed timer fires.
    fn on_timer(&mut self, now: Timestamp, token: u32, rng: &mut StdRng) -> UeActions {
        let _ = (now, token, rng);
        UeActions::none()
    }

    /// The response latency this device adds before its uplink sends.
    fn response_delay(&self, rng: &mut StdRng) -> Duration {
        let _ = rng;
        Duration::from_millis(3)
    }
}

/// The per-session plan a benign UE commits to at power-on.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// Present the cached TMSI instead of a fresh SUCI.
    pub reuse_tmsi: bool,
    /// Open a PDU session after registering.
    pub open_pdu_session: bool,
    /// How long to stay attached after registration completes.
    pub hold: Duration,
}

/// Timer tokens used by [`BenignUe`].
mod timer {
    pub(super) const HOLD_EXPIRED: u32 = 1;
    pub(super) const OPEN_PDU_SESSION: u32 = 2;
}

/// Registration ladder position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Off,
    WaitSetup,
    WaitAuth,
    WaitSecurityMode,
    WaitAccept,
    Registered,
    Deregistering,
}

/// A legitimate device following the 3GPP registration ladder.
#[derive(Debug)]
pub struct BenignUe {
    /// Which commodity device this models.
    pub model: DeviceModel,
    supi: Supi,
    key: u64,
    capabilities: SecurityCapabilities,
    cached_tmsi: Option<Tmsi>,
    plan: SessionPlan,
    stage: Stage,
    sent_capabilities: SecurityCapabilities,
}

impl BenignUe {
    /// Creates a benign UE with the given subscription credentials. The
    /// session plan is drawn from the device profile using `rng`.
    pub fn new(
        model: DeviceModel,
        supi: Supi,
        key: u64,
        cached_tmsi: Option<Tmsi>,
        rng: &mut StdRng,
    ) -> Self {
        let profile = model.profile();
        let plan = SessionPlan {
            reuse_tmsi: cached_tmsi.is_some() && rng.gen_bool(profile.tmsi_reuse_probability),
            open_pdu_session: rng.gen_bool(profile.pdu_session_probability),
            hold: profile.hold_time
                + Duration::from_micros(rng.gen_range(0..=profile.hold_jitter.as_micros())),
        };
        BenignUe {
            model,
            supi,
            key,
            capabilities: SecurityCapabilities::full(),
            cached_tmsi,
            plan,
            stage: Stage::Off,
            sent_capabilities: SecurityCapabilities::full(),
        }
    }

    /// Creates a benign UE with an explicit session plan instead of drawing
    /// one from the device profile. Handover re-registrations use this to
    /// guarantee the UE presents the TMSI it carried from the source cell.
    pub fn with_plan(
        model: DeviceModel,
        supi: Supi,
        key: u64,
        cached_tmsi: Option<Tmsi>,
        plan: SessionPlan,
    ) -> Self {
        BenignUe {
            model,
            supi,
            key,
            capabilities: SecurityCapabilities::full(),
            cached_tmsi,
            plan,
            stage: Stage::Off,
            sent_capabilities: SecurityCapabilities::full(),
        }
    }

    fn fresh_suci(&self, rng: &mut StdRng) -> MobileIdentity {
        MobileIdentity::Suci {
            plmn: self.supi.plmn,
            concealed: auth::conceal_supi(self.supi.msin, rng.gen()),
        }
    }

    fn registration_identity(&self, rng: &mut StdRng) -> MobileIdentity {
        match (self.plan.reuse_tmsi, self.cached_tmsi) {
            (true, Some(tmsi)) => MobileIdentity::FiveGSTmsi(tmsi),
            _ => self.fresh_suci(rng),
        }
    }
}

impl UeBehavior for BenignUe {
    fn on_power_on(&mut self, _now: Timestamp, rng: &mut StdRng) -> UeActions {
        self.stage = Stage::WaitSetup;
        let cause = self.model.draw_cause(rng);
        UeActions::none().send(L3Message::Rrc(RrcMessage::SetupRequest {
            ue_identity: rng.gen(),
            cause,
        }))
    }

    fn on_downlink(&mut self, _now: Timestamp, msg: &L3Message, rng: &mut StdRng) -> UeActions {
        match msg {
            L3Message::Rrc(rrc) => match rrc {
                RrcMessage::Setup => {
                    if self.stage != Stage::WaitSetup {
                        return UeActions::none(); // duplicate grant
                    }
                    self.stage = Stage::WaitAuth;
                    let identity = self.registration_identity(rng);
                    self.sent_capabilities = self.capabilities;
                    let reg = NasMessage::RegistrationRequest {
                        identity,
                        capabilities: self.capabilities,
                    };
                    UeActions::none()
                        .send(L3Message::Rrc(RrcMessage::SetupComplete { nas: Box::new(reg) }))
                }
                RrcMessage::Reject { .. } => {
                    self.stage = Stage::Off;
                    UeActions::none().off()
                }
                RrcMessage::SecurityModeCommand { .. } => {
                    UeActions::none().send(L3Message::Rrc(RrcMessage::SecurityModeComplete))
                }
                RrcMessage::Reconfiguration => {
                    UeActions::none().send(L3Message::Rrc(RrcMessage::ReconfigurationComplete))
                }
                RrcMessage::Release { .. } => {
                    self.stage = Stage::Off;
                    UeActions::none().off()
                }
                _ => UeActions::none(),
            },
            L3Message::Nas(nas) => match nas {
                NasMessage::AuthenticationRequest { rand, .. } => {
                    // Re-answer duplicates: RLC retransmissions make the
                    // network resend, and a real UE re-answers.
                    if matches!(self.stage, Stage::WaitAuth | Stage::WaitSecurityMode) {
                        self.stage = Stage::WaitSecurityMode;
                        let res = auth::aka_response(self.key, *rand);
                        UeActions::none()
                            .send(L3Message::Nas(NasMessage::AuthenticationResponse { res }))
                    } else {
                        UeActions::none()
                    }
                }
                NasMessage::SecurityModeCommand { replayed_capabilities, .. } => {
                    if *replayed_capabilities != self.sent_capabilities {
                        // Anti-bidding-down: the echo does not match what we
                        // sent — a capability-stripping MiTM was detected.
                        return UeActions::none().send(L3Message::Nas(
                            NasMessage::SecurityModeReject { cause: 23 },
                        ));
                    }
                    self.stage = Stage::WaitAccept;
                    UeActions::none().send(L3Message::Nas(NasMessage::SecurityModeComplete))
                }
                NasMessage::RegistrationAccept { new_tmsi } => {
                    if self.stage == Stage::Registered {
                        return UeActions::none(); // duplicate accept
                    }
                    self.stage = Stage::Registered;
                    self.cached_tmsi = Some(*new_tmsi);
                    let mut actions = UeActions::none()
                        .send(L3Message::Nas(NasMessage::RegistrationComplete))
                        .timer(self.plan.hold, timer::HOLD_EXPIRED);
                    if self.plan.open_pdu_session {
                        actions = actions.timer(Duration::from_millis(20), timer::OPEN_PDU_SESSION);
                    }
                    actions
                }
                // Complying with a plaintext identity request is the 24.501
                // §5.4.3 fallback — and the vulnerability identity-extraction
                // attacks exploit.
                NasMessage::IdentityRequest { id_type: IdentityType::PlainSupi } => {
                    let identity = MobileIdentity::PlainSupi(self.supi);
                    UeActions::none()
                        .send(L3Message::Nas(NasMessage::IdentityResponse { identity }))
                }
                NasMessage::RegistrationReject { .. } | NasMessage::AuthenticationReject => {
                    self.stage = Stage::Off;
                    UeActions::none().off()
                }
                NasMessage::DeregistrationAccept => {
                    self.stage = Stage::Off;
                    UeActions::none()
                }
                _ => UeActions::none(),
            },
        }
    }

    fn on_timer(&mut self, _now: Timestamp, token: u32, _rng: &mut StdRng) -> UeActions {
        match token {
            timer::OPEN_PDU_SESSION if self.stage == Stage::Registered => UeActions::none().send(
                L3Message::Nas(NasMessage::PduSessionEstablishmentRequest { session_id: 1 }),
            ),
            timer::HOLD_EXPIRED if self.stage == Stage::Registered => {
                self.stage = Stage::Deregistering;
                UeActions::none().send(L3Message::Nas(NasMessage::DeregistrationRequest))
            }
            _ => UeActions::none(),
        }
    }

    fn response_delay(&self, rng: &mut StdRng) -> Duration {
        let profile = self.model.profile();
        profile.response_delay
            + Duration::from_micros(rng.gen_range(0..=profile.response_jitter.as_micros().max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use xsec_types::Plmn;

    fn ue(seed: u64) -> (BenignUe, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ue = BenignUe::new(
            DeviceModel::Pixel5,
            Supi::new(Plmn::TEST, 1000),
            0xC0FFEE,
            None,
            &mut rng,
        );
        (ue, rng)
    }

    #[test]
    fn power_on_sends_setup_request() {
        let (mut ue, mut rng) = ue(1);
        let actions = ue.on_power_on(Timestamp::ZERO, &mut rng);
        assert_eq!(actions.sends.len(), 1);
        assert!(matches!(actions.sends[0], L3Message::Rrc(RrcMessage::SetupRequest { .. })));
    }

    #[test]
    fn setup_triggers_registration_with_suci_when_no_tmsi() {
        let (mut ue, mut rng) = ue(2);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        let actions = ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
        assert_eq!(actions.sends.len(), 1);
        let L3Message::Rrc(RrcMessage::SetupComplete { nas }) = &actions.sends[0] else {
            panic!("expected SetupComplete");
        };
        let NasMessage::RegistrationRequest { identity, .. } = **nas else {
            panic!("expected RegistrationRequest");
        };
        assert!(matches!(identity, MobileIdentity::Suci { .. }));
    }

    #[test]
    fn auth_request_gets_correct_response() {
        let (mut ue, mut rng) = ue(3);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
        let challenge = L3Message::Nas(NasMessage::AuthenticationRequest { rand: 777, autn: 1 });
        let actions = ue.on_downlink(Timestamp::ZERO, &challenge, &mut rng);
        let L3Message::Nas(NasMessage::AuthenticationResponse { res }) = actions.sends[0] else {
            panic!("expected AuthenticationResponse");
        };
        assert_eq!(res, auth::aka_response(0xC0FFEE, 777));
    }

    #[test]
    fn capability_echo_mismatch_triggers_smc_reject() {
        let (mut ue, mut rng) = ue(4);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
        ue.on_downlink(
            Timestamp::ZERO,
            &L3Message::Nas(NasMessage::AuthenticationRequest { rand: 1, autn: 1 }),
            &mut rng,
        );
        let smc = L3Message::Nas(NasMessage::SecurityModeCommand {
            cipher: xsec_types::CipherAlg::Nea0,
            integrity: xsec_types::IntegrityAlg::Nia0,
            replayed_capabilities: SecurityCapabilities::null_only(), // mismatch
        });
        let actions = ue.on_downlink(Timestamp::ZERO, &smc, &mut rng);
        assert!(matches!(
            actions.sends[0],
            L3Message::Nas(NasMessage::SecurityModeReject { cause: 23 })
        ));
    }

    #[test]
    fn plaintext_identity_request_is_answered_with_supi() {
        let (mut ue, mut rng) = ue(5);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
        let req = L3Message::Nas(NasMessage::IdentityRequest {
            id_type: IdentityType::PlainSupi,
        });
        let actions = ue.on_downlink(Timestamp::ZERO, &req, &mut rng);
        let L3Message::Nas(NasMessage::IdentityResponse { identity }) = &actions.sends[0] else {
            panic!("expected IdentityResponse");
        };
        assert!(matches!(identity, MobileIdentity::PlainSupi(_)), "{identity}");
    }

    #[test]
    fn registration_accept_caches_tmsi_and_arms_timers() {
        let (mut ue, mut rng) = ue(6);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
        let accept = L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi: Tmsi(42) });
        let actions = ue.on_downlink(Timestamp::ZERO, &accept, &mut rng);
        assert_eq!(ue.cached_tmsi, Some(Tmsi(42)));
        assert!(matches!(
            actions.sends[0],
            L3Message::Nas(NasMessage::RegistrationComplete)
        ));
        assert!(!actions.timers.is_empty());
    }

    #[test]
    fn duplicate_accept_is_ignored() {
        let (mut ue, mut rng) = ue(7);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
        let accept = L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi: Tmsi(42) });
        ue.on_downlink(Timestamp::ZERO, &accept, &mut rng);
        let again = ue.on_downlink(Timestamp::ZERO, &accept, &mut rng);
        assert!(again.sends.is_empty());
    }

    #[test]
    fn hold_timer_triggers_deregistration() {
        let (mut ue, mut rng) = ue(8);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
        ue.on_downlink(
            Timestamp::ZERO,
            &L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi: Tmsi(1) }),
            &mut rng,
        );
        let actions = ue.on_timer(Timestamp::ZERO, super::timer::HOLD_EXPIRED, &mut rng);
        assert!(matches!(
            actions.sends[0],
            L3Message::Nas(NasMessage::DeregistrationRequest)
        ));
    }

    #[test]
    fn release_powers_off() {
        let (mut ue, mut rng) = ue(9);
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        let actions = ue.on_downlink(
            Timestamp::ZERO,
            &L3Message::Rrc(RrcMessage::Release { cause: xsec_types::ReleaseCause::Normal }),
            &mut rng,
        );
        assert!(actions.power_off);
    }

    #[test]
    fn tmsi_reuse_presents_cached_tmsi() {
        // Force a plan with TMSI reuse by trying seeds until one reuses.
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ue = BenignUe::new(
                DeviceModel::Pixel6,
                Supi::new(Plmn::TEST, 2000),
                1,
                Some(Tmsi(555)),
                &mut rng,
            );
            if !ue.plan.reuse_tmsi {
                continue;
            }
            ue.on_power_on(Timestamp::ZERO, &mut rng);
            let actions =
                ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
            let L3Message::Rrc(RrcMessage::SetupComplete { nas }) = &actions.sends[0] else {
                panic!("expected SetupComplete");
            };
            let NasMessage::RegistrationRequest { identity, .. } = **nas else {
                panic!("expected RegistrationRequest");
            };
            assert_eq!(identity, MobileIdentity::FiveGSTmsi(Tmsi(555)));
            return;
        }
        panic!("no seed produced a TMSI-reusing plan");
    }
}
