//! Workload scenarios: the stand-in for the paper's dataset collection on
//! commodity phones and COLOSSEUM.
//!
//! A [`Scenario`] provisions a subscriber population, schedules benign UE
//! sessions with exponential-ish inter-arrival times and per-model device
//! mixes, and produces a ready-to-run [`RanSimulator`]. The paper's benign
//! dataset — "over 100 UE sessions" from four phone models plus OAI soft
//! UEs — corresponds to [`ScenarioConfig::benign_sessions`] ≈ 100+ drawn
//! from [`DEVICE_MIX`].

use crate::amf::SubscriberRecord;
use crate::device::DeviceModel;
use crate::sim::{RanSimulator, SimConfig};
use crate::ue::BenignUe;
use rand::Rng;
use xsec_netsim::RngStreams;
use xsec_types::{Duration, Plmn, Supi, Timestamp, TrafficClass, Tmsi};

/// Relative weights over [`DeviceModel::ALL`]: four phone models plus a
/// heavier soft-UE share, like the paper's collection. Both the scenario and
/// the streaming generator draw from it.
pub(crate) const DEVICE_MIX: [u32; DeviceModel::COUNT] = [18, 18, 16, 16, 32];

/// Fraction of sessions that are re-registrations presenting a cached TMSI
/// (the UE is provisioned with one it "remembers").
pub(crate) const WARM_START_FRACTION: f64 = 0.35;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Simulation parameters (seed, channel, gNB, AMF).
    pub sim: SimConfig,
    /// Number of benign UE sessions to schedule.
    pub benign_sessions: usize,
    /// Mean inter-arrival time between session starts.
    pub mean_inter_arrival: Duration,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            sim: SimConfig::default(),
            benign_sessions: 110,
            mean_inter_arrival: Duration::from_millis(120),
        }
    }
}

/// A provisioned, schedulable workload.
pub struct Scenario {
    config: ScenarioConfig,
}

impl Scenario {
    /// Creates a scenario from its config.
    pub fn new(config: ScenarioConfig) -> Self {
        Scenario { config }
    }

    /// Builds the simulator with the benign population installed. Attack
    /// crates take the returned simulator and add their adversarial UEs /
    /// interceptors before running.
    pub fn build(&self) -> RanSimulator {
        let mut sim = RanSimulator::new(self.config.sim.clone());
        self.populate(&mut sim);
        sim
    }

    /// Installs the benign population into an existing simulator.
    fn populate(&self, sim: &mut RanSimulator) {
        let streams = RngStreams::new(self.config.sim.seed);
        let mut rng = streams.stream("scenario");
        let mut at = Timestamp::ZERO;

        for i in 0..self.config.benign_sessions {
            let model = DeviceModel::draw(&DEVICE_MIX, &mut rng);

            // Subscriber provisioning.
            let msin = 100_000 + i as u64;
            let key = 0xAB00_0000 + i as u64;
            let supi = Supi::new(Plmn::TEST, msin);
            sim.add_subscriber(SubscriberRecord { supi, key });

            // Warm-start UEs carry a TMSI from "a previous power cycle" that
            // the AMF can still resolve (persistent TMSI state), so benign
            // re-registrations proceed without identity procedures.
            let cached_tmsi = if rng.gen_bool(WARM_START_FRACTION) {
                let tmsi = Tmsi(0x00F0_0000 + i as u32);
                sim.add_stale_tmsi(tmsi, msin);
                Some(tmsi)
            } else {
                None
            };

            let ue = BenignUe::new(model, supi, key, cached_tmsi, &mut rng);
            sim.add_ue(Box::new(ue), TrafficClass::Benign, at);

            // Exponential inter-arrival (inverse-CDF on a uniform draw).
            let u: f64 = rng.gen_range(1e-6..1.0f64);
            let gap = (-(u.ln()) * self.config.mean_inter_arrival.as_micros() as f64) as u64;
            at += Duration::from_micros(gap.max(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_netsim::ChannelConfig;

    fn small(seed: u64, sessions: usize) -> ScenarioConfig {
        ScenarioConfig {
            sim: SimConfig {
                seed,
                channel: ChannelConfig::ideal(),
                horizon: Duration::from_secs(120),
                ..SimConfig::default()
            },
            benign_sessions: sessions,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn scenario_produces_the_requested_sessions() {
        let report = Scenario::new(small(3, 20)).build().run();
        // With cached TMSIs unknown to the AMF some sessions go through the
        // identity procedure, but everyone should eventually register.
        assert_eq!(report.registrations, 20);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = Scenario::new(small(9, 15)).build().run();
        let b = Scenario::new(small(9, 15)).build().run();
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn benign_scenario_has_no_attack_labels() {
        let report = Scenario::new(small(4, 25)).build().run();
        assert!(report.events.iter().all(|e| !e.label.is_attack()));
        assert!(report.events.len() > 25 * 8, "suspiciously few events: {}", report.events.len());
    }

    #[test]
    fn sessions_are_spread_in_time() {
        let report = Scenario::new(small(5, 30)).build().run();
        let setup_times: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.msg.kind().name() == "RRCSetupRequest")
            .map(|e| e.at)
            .collect();
        assert!(setup_times.len() >= 30);
        assert!(setup_times.windows(2).any(|w| w[1] > w[0]), "all sessions at once");
    }
}
