//! A migrating attacker: the BTS-DoS flood that moves between cells.
//!
//! PR 5 scoped mitigation cooldowns per *(attack, cell)* so a repeat
//! detection in the same cell stands down instead of re-firing. The obvious
//! counter-move for the attacker is to migrate: flood cell A, hop to cell B
//! before A's mitigation can matter, and so on — evading any defense that
//! treats the deployment as one cell. Against per-cell scoping the hop buys
//! nothing: each visited cell raises its own finding and receives its own
//! mitigation.
//!
//! [`MigratingFloodUe`] is a bounded [`BtsDosUe`](crate::bts_dos::BtsDosUe)
//! variant: it opens a fixed number of fabricated connections and then
//! powers off, freeing its slab slot — which is exactly what "the attacker
//! left this cell" looks like to the streaming engine. A
//! [`MigrationSchedule`] strings visits together across the cells of a
//! [`StreamingScenario`], presenting the *same* attacker SIM in each cell.

use rand::rngs::StdRng;
use rand::Rng;
use xsec_proto::{L3Message, MobileIdentity, NasMessage, RrcMessage};
use xsec_ran::amf::SubscriberRecord;
use xsec_ran::auth::conceal_supi;
use xsec_ran::ue::{UeActions, UeBehavior};
use xsec_ran::StreamingScenario;
use xsec_types::{
    AttackKind, Duration, EstablishmentCause, Plmn, Supi, Timestamp, TrafficClass,
};

/// Parameters of one cell visit.
#[derive(Debug, Clone)]
pub struct MigrateConfig {
    /// Fabricated connections opened per visited cell.
    pub connections_per_visit: u32,
    /// Gap between consecutive connection attempts.
    pub inter_connection: Duration,
    /// MSIN of the attacker's SIM — the same identity in every cell.
    pub attacker_msin: u64,
}

/// Subscriber key of the attacker's SIM.
const ATTACKER_KEY: u64 = 0x666;

impl Default for MigrateConfig {
    fn default() -> Self {
        MigrateConfig {
            connections_per_visit: 40,
            inter_connection: Duration::from_millis(6),
            attacker_msin: 999_100,
        }
    }
}

const NEXT_CONNECTION: u32 = 0xA19;

/// A bounded BTS-DoS flood: opens `connections_per_visit` stalled
/// handshakes, then powers off (the migration to the next cell).
#[derive(Debug)]
struct MigratingFloodUe {
    config: MigrateConfig,
    opened: u32,
    awaiting_setup: bool,
}

impl MigratingFloodUe {
    /// Creates one visit's flood behavior.
    fn new(config: MigrateConfig) -> Self {
        MigratingFloodUe { config, opened: 0, awaiting_setup: false }
    }

    fn open_connection(&mut self, rng: &mut StdRng) -> UeActions {
        self.opened += 1;
        self.awaiting_setup = true;
        let mut actions = UeActions::none().send(L3Message::Rrc(RrcMessage::SetupRequest {
            ue_identity: rng.gen(),
            cause: EstablishmentCause::MoSignalling,
        }));
        // One more timer either opens the next connection or — after the
        // last one — powers the UE off, handing its slot back to the slab:
        // the attacker has "left" for the next cell.
        actions = actions.timer(self.config.inter_connection, NEXT_CONNECTION);
        actions
    }
}

impl UeBehavior for MigratingFloodUe {
    fn on_power_on(&mut self, _now: Timestamp, rng: &mut StdRng) -> UeActions {
        self.open_connection(rng)
    }

    fn on_downlink(&mut self, _now: Timestamp, msg: &L3Message, rng: &mut StdRng) -> UeActions {
        match msg {
            L3Message::Rrc(RrcMessage::Setup) if self.awaiting_setup => {
                self.awaiting_setup = false;
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
            _ => UeActions::none(),
        }
    }

    fn on_timer(&mut self, _now: Timestamp, token: u32, rng: &mut StdRng) -> UeActions {
        if token != NEXT_CONNECTION {
            return UeActions::none();
        }
        if self.opened < self.config.connections_per_visit {
            self.open_connection(rng)
        } else {
            UeActions::none().off()
        }
    }

    fn response_delay(&self, _rng: &mut StdRng) -> Duration {
        Duration::from_micros(800)
    }
}

/// When and where the attacker shows up.
#[derive(Debug, Clone)]
pub struct MigrationSchedule {
    /// `(cell index, visit start)` in visit order.
    pub visits: Vec<(usize, Timestamp)>,
    /// Per-visit flood parameters.
    pub config: MigrateConfig,
}

impl MigrationSchedule {
    /// An evenly spaced tour: one visit per listed cell, `dwell` apart,
    /// starting at `start`.
    pub fn tour(cells: &[usize], start: Timestamp, dwell: Duration, config: MigrateConfig) -> Self {
        let visits = cells
            .iter()
            .enumerate()
            .map(|(i, &cell)| (cell, start + Duration::from_micros(dwell.as_micros() * i as u64)))
            .collect();
        MigrationSchedule { visits, config }
    }

    /// Installs the attacker into a streaming deployment: the SIM is
    /// provisioned in every visited cell, and one bounded flood powers on
    /// per visit. Events are labeled [`AttackKind::BtsDos`] — the signature
    /// is the same flood, only itinerant.
    pub fn install(&self, engine: &mut StreamingScenario) {
        let supi = Supi::new(Plmn::TEST, self.config.attacker_msin);
        for &(cell, at) in &self.visits {
            engine.add_subscriber_at(
                cell,
                SubscriberRecord { supi, key: ATTACKER_KEY },
            );
            engine.add_ue_at(
                cell,
                Box::new(MigratingFloodUe::new(self.config.clone())),
                TrafficClass::Attack(AttackKind::BtsDos),
                at,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_ran::StreamConfig;

    #[test]
    fn flood_powers_off_after_its_budget() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let config = MigrateConfig { connections_per_visit: 3, ..MigrateConfig::default() };
        let mut ue = MigratingFloodUe::new(config);
        let mut opened = 0;
        let a = ue.on_power_on(Timestamp::ZERO, &mut rng);
        opened += a.sends.len();
        for _ in 0..10 {
            let a = ue.on_timer(Timestamp::ZERO, NEXT_CONNECTION, &mut rng);
            opened += a.sends.len();
            if a.power_off {
                assert_eq!(opened, 3);
                return;
            }
        }
        panic!("flood never powered off");
    }

    #[test]
    fn migrating_attacker_floods_every_visited_cell_then_leaves() {
        let mut engine = StreamingScenario::new(StreamConfig {
            seed: 50,
            cells: 3,
            total_ues: 30,
            mean_inter_arrival: Duration::from_millis(5),
            mobility_fraction: 0.0,
            ..StreamConfig::default()
        });
        let schedule = MigrationSchedule::tour(
            &[0, 1, 2],
            Timestamp::ZERO + Duration::from_millis(100),
            Duration::from_millis(700),
            MigrateConfig { connections_per_visit: 12, ..MigrateConfig::default() },
        );
        schedule.install(&mut engine);

        let mut events = Vec::new();
        let mut deadline = Timestamp::ZERO + Duration::from_millis(50);
        while !engine.done() {
            events.extend(engine.step(deadline));
            deadline += Duration::from_millis(50);
        }

        // Every visited cell sees the flood's attack-labeled setup storm...
        for cell in 0..3u32 {
            let setups = events
                .iter()
                .filter(|e| {
                    e.cell == xsec_types::CellId(cell + 1)
                        && e.label == TrafficClass::Attack(AttackKind::BtsDos)
                })
                .count();
            assert!(setups >= 12, "cell {cell} saw only {setups} attack events");
        }
        // ...and the attacker is gone at the end: the stream drains fully.
        assert_eq!(engine.live(), 0);
    }
}
