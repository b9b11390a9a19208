//! BTS DoS: flood the gNB with fabricated RRC connections (Kim et al.,
//! S&P'19; paper Figure 2b).
//!
//! The rogue UE opens connection after connection. Each one walks the ladder
//! up to the network's `AuthenticationRequest` and then goes silent — the
//! attacker cannot answer the challenge (it respects the crypto) and does
//! not want to: the point is that every stalled handshake pins a UE context
//! and a C-RNTI at the CU until the guard timer fires. Flooding faster than
//! the guard frees them exhausts admission and locks legitimate UEs out.
//!
//! The observable telemetry signature is exactly the paper's: a rapid
//! succession of `RRC Conn → RRC Setup → RRC Comp → Reg. Req → Auth. Req`
//! prefixes from a stream of unique RNTIs, with no responses.

use rand::rngs::StdRng;
use rand::Rng;
use xsec_proto::{L3Message, MobileIdentity, NasMessage, RrcMessage};
use xsec_ran::auth::conceal_supi;
use xsec_ran::ue::{UeActions, UeBehavior};
use xsec_types::{Duration, EstablishmentCause, Plmn, Timestamp};

/// Flood parameters.
#[derive(Debug, Clone)]
pub struct BtsDosConfig {
    /// How many fabricated connections to open.
    pub connections: u32,
    /// Gap between consecutive connection attempts. Must be well below the
    /// gNB's setup guard for the flood to accumulate contexts.
    pub inter_connection: Duration,
    /// MSIN of the attacker's (valid) SIM — each connection presents a
    /// freshly concealed SUCI of it so the ladder reaches authentication.
    pub attacker_msin: u64,
}

impl Default for BtsDosConfig {
    fn default() -> Self {
        BtsDosConfig {
            connections: 20,
            inter_connection: Duration::from_millis(25),
            attacker_msin: 999_000,
        }
    }
}

const NEXT_CONNECTION: u32 = 0xB75;

/// The flooding rogue UE.
#[derive(Debug)]
pub struct BtsDosUe {
    config: BtsDosConfig,
    opened: u32,
    awaiting_setup: bool,
}

impl BtsDosUe {
    /// Creates the flood behavior.
    pub fn new(config: BtsDosConfig) -> Self {
        BtsDosUe { config, opened: 0, awaiting_setup: false }
    }

    fn open_connection(&mut self, rng: &mut StdRng) -> UeActions {
        self.opened += 1;
        self.awaiting_setup = true;
        let mut actions = UeActions::none().send(L3Message::Rrc(RrcMessage::SetupRequest {
            ue_identity: rng.gen(),
            cause: EstablishmentCause::MoSignalling,
        }));
        if self.opened < self.config.connections {
            actions = actions.timer(self.config.inter_connection, NEXT_CONNECTION);
        }
        actions
    }
}

impl UeBehavior for BtsDosUe {
    fn on_power_on(&mut self, _now: Timestamp, rng: &mut StdRng) -> UeActions {
        self.open_connection(rng)
    }

    fn on_downlink(&mut self, _now: Timestamp, msg: &L3Message, rng: &mut StdRng) -> UeActions {
        match msg {
            L3Message::Rrc(RrcMessage::Setup) if self.awaiting_setup => {
                self.awaiting_setup = false;
                // Complete setup with a registration so the CU+AMF invest in
                // the context — then never answer the challenge.
                let reg = NasMessage::RegistrationRequest {
                    identity: MobileIdentity::Suci {
                        plmn: Plmn::TEST,
                        concealed: conceal_supi(self.config.attacker_msin, rng.gen()),
                    },
                    capabilities: xsec_types::SecurityCapabilities::full(),
                };
                UeActions::none()
                    .send(L3Message::Rrc(RrcMessage::SetupComplete { nas: Box::new(reg) }))
            }
            // AuthenticationRequest, rejects, releases: all ignored — the
            // attacker has already moved on to the next RNTI.
            _ => UeActions::none(),
        }
    }

    fn on_timer(&mut self, _now: Timestamp, token: u32, rng: &mut StdRng) -> UeActions {
        if token == NEXT_CONNECTION && self.opened < self.config.connections {
            self.open_connection(rng)
        } else {
            UeActions::none()
        }
    }

    fn response_delay(&self, _rng: &mut StdRng) -> Duration {
        // Attack tooling answers fast (scripted SDR stack).
        Duration::from_micros(800)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn flood_opens_and_rearms() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ue = BtsDosUe::new(BtsDosConfig { connections: 3, ..BtsDosConfig::default() });
        let first = ue.on_power_on(Timestamp::ZERO, &mut rng);
        assert!(matches!(first.sends[0], L3Message::Rrc(RrcMessage::SetupRequest { .. })));
        assert_eq!(first.timers.len(), 1, "should arm the next connection");

        // Grant arrives → registration follows.
        let actions = ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
        assert!(matches!(
            actions.sends[0],
            L3Message::Rrc(RrcMessage::SetupComplete { .. })
        ));

        // Challenge is ignored.
        let challenge = L3Message::Nas(NasMessage::AuthenticationRequest { rand: 1, autn: 2 });
        assert!(ue.on_downlink(Timestamp::ZERO, &challenge, &mut rng).sends.is_empty());

        // Timer fires twice more, then stops rearming.
        let second = ue.on_timer(Timestamp::ZERO, NEXT_CONNECTION, &mut rng);
        assert_eq!(second.timers.len(), 1);
        let third = ue.on_timer(Timestamp::ZERO, NEXT_CONNECTION, &mut rng);
        assert!(third.timers.is_empty(), "third connection is the last");
        assert!(ue.on_timer(Timestamp::ZERO, NEXT_CONNECTION, &mut rng).sends.is_empty());
    }

    #[test]
    fn each_connection_presents_a_fresh_suci() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ue = BtsDosUe::new(BtsDosConfig::default());
        ue.on_power_on(Timestamp::ZERO, &mut rng);
        let mut concealed_values = Vec::new();
        for _ in 0..3 {
            let actions =
                ue.on_downlink(Timestamp::ZERO, &L3Message::Rrc(RrcMessage::Setup), &mut rng);
            // Re-arm awaiting_setup for the test's repeated grants.
            ue.awaiting_setup = true;
            let L3Message::Rrc(RrcMessage::SetupComplete { nas }) = &actions.sends[0] else {
                panic!("expected SetupComplete");
            };
            let NasMessage::RegistrationRequest { identity, .. } = **nas else {
                panic!("expected RegistrationRequest");
            };
            let MobileIdentity::Suci { concealed, .. } = identity else {
                panic!("expected SUCI");
            };
            concealed_values.push(concealed);
        }
        concealed_values.dedup();
        assert_eq!(concealed_values.len(), 3, "SUCIs must differ per connection");
    }
}
