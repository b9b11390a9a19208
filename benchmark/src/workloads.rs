//! The four workloads. Names are fixed: later issues cite them.
//!
//! Every input is a fixed size (a UE count), never a duration: `--seconds`
//! only scales the UE count by a constant calibrated at the commit that
//! defined the benchmark, so parent and change do identical work and a
//! faster stack simply finishes sooner.

use sixg_xsec::{Detector, PipelineConfig};
use xsec_attacks::{MigrateConfig, MigrationSchedule};
use xsec_ran::{StormConfig, StreamConfig, StreamingScenario};
use xsec_types::{Duration, Timestamp};

/// E2 report period every workload runs at (the paper's 100 ms).
pub const REPORT_PERIOD_MS: u32 = 100;

/// [`REPORT_PERIOD_MS`] as virtual time: the length of one bucket.
pub fn report_period() -> Duration {
    Duration::from_millis(u64::from(REPORT_PERIOD_MS))
}

/// Buckets driven after the last benign arrival so in-flight detections,
/// controls and acks drain.
pub const GRACE_BUCKETS: u64 = 20;

/// How a workload's buckets are offered to the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Closed loop at saturation: the next bucket is pushed as soon as the
    /// previous one returns.
    Closed,
    /// Open loop: bucket `i` is due at `t0 + i * (period / k)` whatever the
    /// stack is doing; `k` is the time-compression factor.
    Open {
        /// Virtual seconds offered per wall second.
        k: f64,
    },
}

/// Which E2 transport carries the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// crossbeam channel pairs.
    InProc,
    /// Loopback TCP with length-prefix framing.
    Tcp,
}

/// Flood attackers touring the cells of the `flood` workload.
#[derive(Debug, Clone, Copy)]
pub struct FloodPlan {
    /// Virtual time between two visits (consecutive visits go to
    /// consecutive cells).
    pub visit_gap: Duration,
    /// Fabricated connections per visit.
    pub connections_per_visit: u32,
}

/// One workload: traffic shape, deployment shape, and pacing.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Fixed name (the `--workload` argument).
    pub name: &'static str,
    /// One sentence on why the workload exists.
    pub why: &'static str,
    /// Cells, and therefore agents and E2 connections.
    pub cells: usize,
    /// Benign UEs streamed per requested second of run time, calibrated so
    /// the timed section lasts about `--seconds` at the defining commit.
    pub ues_per_second: u64,
    /// Mean inter-arrival of benign sessions.
    pub mean_inter_arrival: Duration,
    /// Simultaneous registrations per storm (every 5 s of virtual time).
    pub storm_burst: usize,
    /// Backpressure ceiling on live UEs.
    pub max_live: usize,
    /// Benign UEs in the training sample (sized for ~10k records).
    pub training_ues: u64,
    /// Deployed detector.
    pub detector: Detector,
    /// `0` = the paper's global window; `n` = per-UE pool with `n` shards.
    pub scoring_shards: usize,
    /// Transport.
    pub link: Link,
    /// Closed or open loop.
    pub pacing: Pacing,
    /// Whether decoded controls are applied to the live engine. When not,
    /// the input is a pure function of the seed.
    pub enforce: bool,
    /// Flood attackers, if any.
    pub flood: Option<FloodPlan>,
    /// When set, the SMO retunes the playbooks over A1 at deploy time: BTS
    /// DoS quarantines the flooded cell for this long, every other attack
    /// kind only escalates (`None` keeps the default playbooks).
    pub quarantine_ttl: Option<Duration>,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        why: "4 cells at ~240 records per indication, autoencoder with the paper's global window: per-record work (record, KPM and E2AP codec, SDL write, featurize, score) dominates",
        cells: 4,
        ues_per_second: 26_000,
        mean_inter_arrival: Duration::from_micros(400),
        storm_burst: 128,
        max_live: 2_048,
        training_ues: 2_000,
        detector: Detector::Autoencoder,
        scoring_shards: 0,
        link: Link::InProc,
        pacing: Pacing::Closed,
        enforce: false,
        flood: None,
        quarantine_ttl: None,
    },
    Workload {
        name: "fanin",
        why: "64 cells at about one record per indication, 1-shard pool: per-indication and per-agent-round overhead (poll, framing, pump dispatch, handler invoke, shard barrier) dominates",
        cells: 64,
        ues_per_second: 1_000,
        mean_inter_arrival: Duration::from_millis(35),
        storm_burst: 4,
        max_live: 2_048,
        training_ues: 500,
        detector: Detector::Autoencoder,
        scoring_shards: 1,
        link: Link::InProc,
        pacing: Pacing::Closed,
        enforce: false,
        flood: None,
        quarantine_ttl: None,
    },
    Workload {
        name: "flood",
        why: "8 lightly loaded cells under touring flood attackers, full closed loop: the only workload where alert, analyzer, policy, control encode and routing, ack and gNB enforcement do real work",
        cells: 8,
        ues_per_second: 1_900,
        mean_inter_arrival: Duration::from_millis(25),
        storm_burst: 0,
        // Enforcement leaves rate-limited benign UEs live forever (see the
        // README's findings); a ceiling would stall arrivals behind them.
        max_live: usize::MAX,
        training_ues: 500,
        detector: Detector::Autoencoder,
        scoring_shards: 0,
        link: Link::InProc,
        pacing: Pacing::Closed,
        enforce: true,
        flood: Some(FloodPlan {
            visit_gap: Duration::from_millis(2_000),
            connections_per_visit: 40,
        }),
        quarantine_ttl: Some(Duration::from_secs(1)),
    },
    Workload {
        name: "tcp_paced",
        why: "steady's traffic thinned onto 2 cells over loopback TCP with the LSTM, open loop at under half of saturation: real sockets, the second model class, and the queueing a slow bucket imposes",
        cells: 2,
        ues_per_second: 6_800,
        mean_inter_arrival: Duration::from_micros(1_200),
        storm_burst: 64,
        max_live: 2_048,
        training_ues: 2_000,
        detector: Detector::Lstm,
        scoring_shards: 0,
        link: Link::Tcp,
        pacing: Pacing::Open { k: 8.0 },
        enforce: false,
        flood: None,
        quarantine_ttl: None,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Benign UEs a run of `seconds` streams (`scale` shrinks it for
    /// `--quick` and the wiring check).
    pub fn total_ues(&self, seconds: u64, scale: f64) -> u64 {
        ((self.ues_per_second * seconds) as f64 * scale).max(1.0) as u64
    }

    /// The generator configuration for `total_ues` subscribers.
    pub fn stream_config(&self, seed: u64, total_ues: u64) -> StreamConfig {
        StreamConfig {
            seed,
            cells: self.cells,
            total_ues,
            mean_inter_arrival: self.mean_inter_arrival,
            mobility_fraction: 0.05,
            max_handovers: 1,
            storm: (self.storm_burst > 0)
                .then(|| StormConfig { period: Duration::from_secs(5), burst: self.storm_burst }),
            max_live: self.max_live,
            ..StreamConfig::default()
        }
    }

    /// Virtual time the benign arrivals of `total_ues` subscribers span.
    pub fn expected_virtual(&self, total_ues: u64) -> Duration {
        let per_second =
            1e6 / self.mean_inter_arrival.as_micros() as f64 + self.storm_burst as f64 / 5.0;
        Duration::from_micros((total_ues as f64 / per_second * 1e6) as u64)
    }

    /// Virtual-time hard stop: four times the expected span plus a minute,
    /// so backpressure stalls are tolerated but a stuck run still ends.
    pub fn hard_stop(&self, total_ues: u64) -> Timestamp {
        Timestamp::ZERO
            + Duration::from_micros(self.expected_virtual(total_ues).as_micros() * 4)
            + Duration::from_secs(60)
    }

    /// The live engine for one run, flood attackers installed.
    pub fn engine(&self, seed: u64, total_ues: u64) -> (StreamingScenario, u64) {
        let mut engine = StreamingScenario::new(self.stream_config(seed, total_ues));
        let mut attack_conns = 0u64;
        if let Some(plan) = self.flood {
            let span = self.expected_virtual(total_ues).as_micros();
            let gap = plan.visit_gap.as_micros();
            let visits = (span.saturating_sub(gap) / gap) as usize;
            let tour: Vec<usize> = (0..visits).map(|i| i % self.cells).collect();
            MigrationSchedule::tour(
                &tour,
                Timestamp::ZERO + plan.visit_gap,
                plan.visit_gap,
                MigrateConfig {
                    connections_per_visit: plan.connections_per_visit,
                    ..MigrateConfig::default()
                },
            )
            .install(&mut engine);
            attack_conns = visits as u64 * u64::from(plan.connections_per_visit);
        }
        (engine, attack_conns)
    }

    /// Whether the delivered record sequence can be regenerated from the
    /// seed alone and replayed through the detector by itself: controls are
    /// not applied (the input is a pure function of the seed), the window is
    /// the global one, and in-process links deliver in push order. Such a
    /// workload (`steady`) carries the reference-detection and wiring checks.
    pub fn replays_from_seed(&self) -> bool {
        !self.enforce && self.scoring_shards == 0 && self.link == Link::InProc
    }

    /// The pipeline configuration the workload trains and deploys with.
    pub fn pipeline_config(&self, seed: u64) -> PipelineConfig {
        let mut config = PipelineConfig::small(seed, 0);
        config.training.seed = seed;
        config.detector = self.detector;
        config.scoring_shards = self.scoring_shards;
        config.report_period_ms = REPORT_PERIOD_MS;
        config
    }
}
