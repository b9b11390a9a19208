//! Commodity-device profiles.
//!
//! The paper collects benign traffic from four commodity smartphones (Pixel
//! 5/6, Galaxy A22/A53) plus OAI soft UEs on COLOSSEUM. Devices differ in
//! timing, establishment-cause mix, and how eagerly they open data sessions;
//! those differences are what makes the benign distribution *diverse*, which
//! in turn is what the anomaly detector must learn to tolerate.

use xsec_types::{Duration, EstablishmentCause};

/// The device models used for benign dataset collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceModel {
    /// Google Pixel 5.
    Pixel5,
    /// Google Pixel 6.
    Pixel6,
    /// Samsung Galaxy A22.
    GalaxyA22,
    /// Samsung Galaxy A53.
    GalaxyA53,
    /// OpenAirInterface soft UE (COLOSSEUM-style emulated device).
    OaiSoftUe,
}

/// Behavioral parameters of one device model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name, used in reports.
    pub name: &'static str,
    /// Typical delay between receiving a downlink message and answering.
    pub response_delay: Duration,
    /// Extra uniform jitter on top of `response_delay`.
    pub response_jitter: Duration,
    /// Relative weights over [`EstablishmentCause::ALL`] for session starts.
    cause_weights: [u32; 7],
    /// Probability the device opens a PDU session after registering.
    pub pdu_session_probability: f64,
    /// Probability a re-registration presents the stored TMSI instead of a
    /// fresh SUCI (commodity phones cache their TMSI aggressively; soft UEs
    /// start fresh every run).
    pub tmsi_reuse_probability: f64,
    /// How long the device stays attached before tearing down.
    pub hold_time: Duration,
    /// Extra uniform jitter on the hold time.
    pub hold_jitter: Duration,
}

impl DeviceModel {
    /// Number of device models — array types that must stay in sync with
    /// [`DeviceModel::ALL`] (e.g. `ScenarioConfig::device_mix`) should be
    /// sized with this constant so they cannot silently drift.
    pub const COUNT: usize = DeviceModel::ALL.len();

    /// All models, in the order the paper lists them.
    pub const ALL: [DeviceModel; 5] = [
        DeviceModel::Pixel5,
        DeviceModel::Pixel6,
        DeviceModel::GalaxyA22,
        DeviceModel::GalaxyA53,
        DeviceModel::OaiSoftUe,
    ];

    /// The behavioral profile of this model.
    pub fn profile(self) -> DeviceProfile {
        match self {
            DeviceModel::Pixel5 => DeviceProfile {
                name: "Google Pixel 5",
                response_delay: Duration::from_millis(6),
                response_jitter: Duration::from_millis(3),
                // mostly signalling + data, occasional voice/SMS
                cause_weights: [0, 0, 5, 40, 45, 6, 4],
                pdu_session_probability: 0.9,
                tmsi_reuse_probability: 0.7,
                hold_time: Duration::from_millis(600),
                hold_jitter: Duration::from_millis(400),
            },
            DeviceModel::Pixel6 => DeviceProfile {
                name: "Google Pixel 6",
                response_delay: Duration::from_millis(4),
                response_jitter: Duration::from_millis(2),
                cause_weights: [0, 0, 6, 38, 48, 5, 3],
                pdu_session_probability: 0.92,
                tmsi_reuse_probability: 0.75,
                hold_time: Duration::from_millis(700),
                hold_jitter: Duration::from_millis(500),
            },
            DeviceModel::GalaxyA22 => DeviceProfile {
                name: "Samsung Galaxy A22",
                response_delay: Duration::from_millis(9),
                response_jitter: Duration::from_millis(5),
                cause_weights: [0, 0, 8, 42, 38, 7, 5],
                pdu_session_probability: 0.85,
                tmsi_reuse_probability: 0.6,
                hold_time: Duration::from_millis(500),
                hold_jitter: Duration::from_millis(300),
            },
            DeviceModel::GalaxyA53 => DeviceProfile {
                name: "Samsung Galaxy A53",
                response_delay: Duration::from_millis(7),
                response_jitter: Duration::from_millis(4),
                cause_weights: [0, 0, 7, 40, 42, 6, 5],
                pdu_session_probability: 0.88,
                tmsi_reuse_probability: 0.65,
                hold_time: Duration::from_millis(550),
                hold_jitter: Duration::from_millis(350),
            },
            DeviceModel::OaiSoftUe => DeviceProfile {
                name: "OAI soft UE",
                response_delay: Duration::from_millis(2),
                response_jitter: Duration::from_millis(1),
                // emulated devices: almost pure signalling+data
                cause_weights: [0, 0, 2, 55, 43, 0, 0],
                pdu_session_probability: 0.95,
                tmsi_reuse_probability: 0.1,
                hold_time: Duration::from_millis(400),
                hold_jitter: Duration::from_millis(200),
            },
        }
    }

    /// Draws an establishment cause from this model's mix.
    pub fn draw_cause(self, rng: &mut impl rand::Rng) -> EstablishmentCause {
        let profile = self.profile();
        let total: u32 = profile.cause_weights.iter().sum();
        let mut pick = rng.gen_range(0..total);
        for (i, w) in profile.cause_weights.iter().enumerate() {
            if pick < *w {
                return EstablishmentCause::ALL[i];
            }
            pick -= w;
        }
        EstablishmentCause::MoSignalling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_model_has_a_valid_profile() {
        for model in DeviceModel::ALL {
            let p = model.profile();
            assert!(!p.name.is_empty());
            assert!(p.cause_weights.iter().sum::<u32>() > 0, "{:?} has zero weights", model);
            assert!((0.0..=1.0).contains(&p.pdu_session_probability));
            assert!((0.0..=1.0).contains(&p.tmsi_reuse_probability));
        }
    }

    #[test]
    fn cause_draws_respect_zero_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let cause = DeviceModel::Pixel5.draw_cause(&mut rng);
            assert_ne!(cause, EstablishmentCause::Emergency);
            assert_ne!(cause, EstablishmentCause::HighPriorityAccess);
        }
    }

    #[test]
    fn cause_distribution_is_diverse_for_phones() {
        use std::collections::HashSet;
        let mut rng = StdRng::seed_from_u64(2);
        let causes: HashSet<_> =
            (0..1000).map(|_| DeviceModel::GalaxyA22.draw_cause(&mut rng)).collect();
        assert!(causes.len() >= 4, "expected diverse causes, got {causes:?}");
    }

    #[test]
    fn soft_ue_is_faster_than_phones() {
        let soft = DeviceModel::OaiSoftUe.profile();
        for phone in [DeviceModel::Pixel5, DeviceModel::GalaxyA22] {
            assert!(soft.response_delay < phone.profile().response_delay);
        }
    }
}
