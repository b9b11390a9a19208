//! Radio channel impairment model.
//!
//! Stands in for the paper's USRP B210 front-end: the detector only sees L3
//! telemetry, so the radio's observable contribution is *when* messages
//! arrive and *whether* they needed retransmission. The model draws, per
//! transmission, one of three outcomes:
//!
//! * **Delivered** after a propagation + processing latency with jitter;
//! * **Retransmitted** — delivered only after `n ≥ 1` HARQ/RLC retries, each
//!   adding a retransmission interval (these duplicated RRC messages are the
//!   main source of benign anomalies the paper reports as false positives);
//! * **Lost** — never delivered (all retries exhausted).

use rand::rngs::StdRng;
use rand::Rng;
use xsec_obs::{Counter, Obs};
use xsec_types::Duration;

/// Parameters of the impairment model.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Base one-way latency for a control message.
    base_latency: Duration,
    /// Maximum additional uniform jitter.
    jitter: Duration,
    /// Probability a transmission needs at least one retransmission.
    retx_probability: f64,
    /// Probability an individual (re)transmission attempt fails once the
    /// message entered the retransmission path.
    retx_attempt_loss: f64,
    /// Maximum retransmission attempts before the message is declared lost.
    max_retx: u32,
    /// Delay added per retransmission attempt.
    pub retx_interval: Duration,
}

impl ChannelConfig {
    /// A clean lab channel: low latency, no loss. Useful for unit tests that
    /// need deterministic message ladders.
    pub fn ideal() -> Self {
        ChannelConfig {
            base_latency: Duration::from_micros(500),
            jitter: Duration::ZERO,
            retx_probability: 0.0,
            retx_attempt_loss: 0.0,
            max_retx: 0,
            retx_interval: Duration::from_millis(8),
        }
    }

    /// The default over-the-air profile used for dataset generation: a few
    /// percent of messages see a retransmission, a small residue is lost.
    /// Tuned so benign traffic exhibits roughly the noise level behind the
    /// paper's ~1%-outlier assumption for thresholding.
    pub fn lab_over_the_air() -> Self {
        ChannelConfig {
            base_latency: Duration::from_micros(800),
            jitter: Duration::from_micros(400),
            retx_probability: 0.03,
            retx_attempt_loss: 0.15,
            max_retx: 3,
            retx_interval: Duration::from_millis(8),
        }
    }

    /// A noisy channel for stress runs.
    #[cfg(test)]
    fn noisy() -> Self {
        ChannelConfig {
            base_latency: Duration::from_millis(2),
            jitter: Duration::from_millis(1),
            retx_probability: 0.15,
            retx_attempt_loss: 0.3,
            max_retx: 3,
            retx_interval: Duration::from_millis(10),
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in
            [("retx_probability", self.retx_probability), ("retx_attempt_loss", self.retx_attempt_loss)]
        {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("{name} must be within [0,1], got {p}"));
            }
        }
        Ok(())
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self::lab_over_the_air()
    }
}

/// What happened to one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelOutcome {
    /// Delivered after the contained one-way delay.
    Delivered {
        /// Total latency from send to receive.
        latency: Duration,
        /// Number of retransmissions that preceded delivery (0 = first try).
        retransmissions: u32,
    },
    /// All attempts failed; the message never arrives.
    Lost,
}

/// Point-in-time counter snapshot, exposed for experiment reports. The
/// counters themselves live in the `xsec-obs` registry (metric names
/// `xsec_netsim_channel_*_total`); this struct is a read-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages offered to the channel.
    offered: u64,
    /// Messages delivered (with or without retransmission).
    pub delivered: u64,
    /// Messages delivered only after at least one retransmission.
    retransmitted: u64,
    /// Messages lost.
    lost: u64,
}

/// Registry-backed channel counters (the single observability path).
#[derive(Debug, Clone)]
struct ChannelMetrics {
    offered: Counter,
    delivered: Counter,
    retransmitted: Counter,
    lost: Counter,
}

impl ChannelMetrics {
    fn register(obs: &Obs) -> Self {
        ChannelMetrics {
            offered: obs.counter("xsec_netsim_channel_offered_total", &[]),
            delivered: obs.counter("xsec_netsim_channel_delivered_total", &[]),
            retransmitted: obs.counter("xsec_netsim_channel_retransmitted_total", &[]),
            lost: obs.counter("xsec_netsim_channel_lost_total", &[]),
        }
    }
}

/// The stateful impairment model; owns its RNG stream.
#[derive(Debug)]
pub struct ChannelModel {
    config: ChannelConfig,
    rng: StdRng,
    metrics: ChannelMetrics,
}

impl ChannelModel {
    /// Builds a model from a validated config and a dedicated RNG stream.
    ///
    /// # Panics
    /// Panics if the config fails validation — impairment probabilities are
    /// experiment inputs and a typo must not silently skew a dataset.
    pub fn new(config: ChannelConfig, rng: StdRng) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid channel config: {msg}");
        }
        ChannelModel { config, rng, metrics: ChannelMetrics::register(&Obs::new()) }
    }

    /// Re-homes the channel's counters into `obs` (accumulated counts are
    /// carried over), so a simulation attached to a pipeline's registry
    /// reports through it.
    pub fn attach_obs(&mut self, obs: &Obs) {
        let stats = self.stats();
        let metrics = ChannelMetrics::register(obs);
        metrics.offered.add(stats.offered);
        metrics.delivered.add(stats.delivered);
        metrics.retransmitted.add(stats.retransmitted);
        metrics.lost.add(stats.lost);
        self.metrics = metrics;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            offered: self.metrics.offered.get(),
            delivered: self.metrics.delivered.get(),
            retransmitted: self.metrics.retransmitted.get(),
            lost: self.metrics.lost.get(),
        }
    }

    /// Draws the fate of one transmission.
    pub fn transmit(&mut self) -> ChannelOutcome {
        self.metrics.offered.inc();
        let jitter = if self.config.jitter == Duration::ZERO {
            Duration::ZERO
        } else {
            Duration::from_micros(self.rng.gen_range(0..=self.config.jitter.as_micros()))
        };
        let base = self.config.base_latency + jitter;

        if self.config.retx_probability > 0.0 && self.rng.gen_bool(self.config.retx_probability) {
            // The first attempt failed; walk the retry ladder.
            for attempt in 1..=self.config.max_retx {
                let succeeded = !self.rng.gen_bool(self.config.retx_attempt_loss);
                if succeeded {
                    self.metrics.delivered.inc();
                    self.metrics.retransmitted.inc();
                    return ChannelOutcome::Delivered {
                        latency: base + self.config.retx_interval.saturating_mul(attempt as u64),
                        retransmissions: attempt,
                    };
                }
            }
            self.metrics.lost.inc();
            return ChannelOutcome::Lost;
        }

        self.metrics.delivered.inc();
        ChannelOutcome::Delivered { latency: base, retransmissions: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn ideal_channel_never_loses_or_retransmits() {
        let mut ch = ChannelModel::new(ChannelConfig::ideal(), rng());
        for _ in 0..1000 {
            match ch.transmit() {
                ChannelOutcome::Delivered { latency, retransmissions } => {
                    assert_eq!(retransmissions, 0);
                    assert_eq!(latency, Duration::from_micros(500));
                }
                ChannelOutcome::Lost => panic!("ideal channel lost a message"),
            }
        }
        assert_eq!(ch.stats().lost, 0);
        assert_eq!(ch.stats().retransmitted, 0);
        assert_eq!(ch.stats().offered, 1000);
    }

    #[test]
    fn lossy_channel_statistics_track_outcomes() {
        let mut ch = ChannelModel::new(ChannelConfig::noisy(), rng());
        for _ in 0..10_000 {
            ch.transmit();
        }
        let s = ch.stats();
        assert_eq!(s.offered, 10_000);
        assert_eq!(s.delivered + s.lost, s.offered);
        // With retx_probability 0.15 and per-attempt loss 0.3^3 ≈ 2.7% of the
        // retransmission path, losses must exist but stay a small fraction.
        assert!(s.lost > 0, "expected some losses");
        assert!((s.lost as f64) < 0.02 * s.offered as f64, "too many losses: {}", s.lost);
        assert!(s.retransmitted as f64 > 0.05 * s.offered as f64);
    }

    #[test]
    fn retransmission_adds_latency() {
        let config = ChannelConfig {
            retx_probability: 1.0,
            retx_attempt_loss: 0.0,
            max_retx: 3,
            jitter: Duration::ZERO,
            ..ChannelConfig::ideal()
        };
        let mut ch = ChannelModel::new(config, rng());
        match ch.transmit() {
            ChannelOutcome::Delivered { latency, retransmissions } => {
                assert_eq!(retransmissions, 1);
                assert_eq!(latency, Duration::from_micros(500) + Duration::from_millis(8));
            }
            ChannelOutcome::Lost => panic!("retries always succeed here"),
        }
    }

    #[test]
    fn exhausting_retries_loses_the_message() {
        let config = ChannelConfig {
            retx_probability: 1.0,
            retx_attempt_loss: 1.0,
            max_retx: 3,
            ..ChannelConfig::ideal()
        };
        let mut ch = ChannelModel::new(config, rng());
        assert_eq!(ch.transmit(), ChannelOutcome::Lost);
        assert_eq!(ch.stats().lost, 1);
    }

    #[test]
    fn config_validation_rejects_bad_probabilities() {
        let mut config = ChannelConfig::ideal();
        config.retx_probability = 1.5;
        assert!(config.validate().is_err());
        config.retx_probability = f64::NAN;
        assert!(config.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid channel config")]
    fn constructor_panics_on_invalid_config() {
        let mut config = ChannelConfig::ideal();
        config.retx_attempt_loss = -0.1;
        let _ = ChannelModel::new(config, rng());
    }

    #[test]
    fn deterministic_given_same_seed() {
        let mut a = ChannelModel::new(ChannelConfig::noisy(), StdRng::seed_from_u64(9));
        let mut b = ChannelModel::new(ChannelConfig::noisy(), StdRng::seed_from_u64(9));
        for _ in 0..500 {
            assert_eq!(a.transmit(), b.transmit());
        }
    }
}
