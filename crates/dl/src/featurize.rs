//! Featurization: MobiFlow telemetry → model inputs.
//!
//! Implements the paper's §3.2 formulation: the telemetry time series `τ` is
//! cut into sliding windows of size `N`, and "all categorical variables
//! within each sequence are one-hot encoded". Each record becomes a
//! [`FEATURES_PER_RECORD`]-wide vector:
//!
//! | block | width | content |
//! |---|---|---|
//! | message | 33 | one-hot [`MessageKind`] (identity-procedure kinds weighted) |
//! | direction | 1 | 1.0 = uplink |
//! | cipher | 5 | one-hot (unset + NEA0..3) |
//! | integrity | 5 | one-hot (unset + NIA0..3) |
//! | cause | 8 | one-hot (unset + 7 causes) |
//! | SUPI exposure | 1 | permanent identity in plaintext (weight 4) |
//! | TMSI reuse | 1 | this TMSI was bound to a *different* connection before (weight 4) |
//! | inter-arrival | 4 | one-hot time-gap bucket (<1ms, <10ms, <100ms, ≥100ms) |
//! | setup burst | 1 | RRCSetupRequest density over the last 16 records (weight 3) |
//! | incomplete conns | 1 | live connections stuck before registration (weight 3) |
//! | release burst | 1 | RRCRelease density over the last 16 records (weight 3) |
//! | release cause | 5 | one-hot (none + 4 causes), abnormal causes weighted |
//!
//! The relational features (TMSI reuse, inter-arrival, setup burst) are how
//! the raw identifier columns of Table 1 become learnable: raw 32-bit
//! identifiers cannot be one-hot encoded directly, but their *reuse and
//! arrival patterns* — the thing the Blind-DoS and flood anomalies actually
//! consist of — can.
//!
//! ## Feature weighting
//!
//! Security-critical rare bits (plaintext SUPI, TMSI reuse, the NULL
//! algorithm slots, burst density) are scaled above 1.0 so that their
//! reconstruction/prediction error is not diluted by the ~230 routine
//! dimensions of a window. The weights are domain knowledge applied
//! uniformly to all data — no labels are involved, training stays
//! unsupervised.

use crate::tensor::{Matrix, SparseRows};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xsec_mobiflow::{TelemetryStream, UeMobiFlow};
use xsec_proto::MessageKind;
use xsec_types::{AttackKind, Timestamp, Tmsi};

/// Feature width of one encoded record.
pub const FEATURES_PER_RECORD: usize = 33 + 1 + 5 + 5 + 8 + 1 + 1 + 4 + 1 + 1 + 1 + 5;

/// The most nonzeros one encoded record can have: one per block of the
/// table above (a one-hot block sets one slot, a scalar at most itself).
pub const MAX_NONZEROS_PER_RECORD: usize = 12;

/// Value of the plaintext-SUPI / TMSI-reuse bits and identity-procedure
/// message kinds when active.
const IDENTITY_WEIGHT: f32 = 4.0;
/// Value of the NULL-algorithm slots and abnormal release causes.
const NULL_ALG_WEIGHT: f32 = 3.0;
/// Value of routine categorical bits.
const ROUTINE_WEIGHT: f32 = 1.0;

// The decoder's sigmoid output can only produce values in [0, 1]. The
// featurizer exploits that deliberately: benign feature values stay within
// [0, 1] (reconstructable), while security-critical rarities and
// beyond-benign densities take values above 1 — giving them a *guaranteed*
// reconstruction-error floor of (value − 1)² no matter how the model
// generalizes. Density features are therefore normalized by their
// benign-typical maxima, not their theoretical maxima.
/// How many trailing records the setup-burst density looks at.
const BURST_LOOKBACK: usize = 16;

/// Featurizer parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Sliding-window length `N`.
    pub window: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { window: 4 }
    }
}

/// The last [`BURST_LOOKBACK`] message kinds in a ring, with running counts
/// of the two kinds the burst densities read.
#[derive(Debug, Default)]
struct RecentKinds {
    kinds: [Option<MessageKind>; BURST_LOOKBACK],
    /// The slot the next kind overwrites (the oldest, once full).
    next: usize,
    setups: usize,
    releases: usize,
}

impl RecentKinds {
    fn push(&mut self, kind: MessageKind) {
        let evicted = self.kinds[self.next].replace(kind);
        self.next = (self.next + 1) % BURST_LOOKBACK;
        let counted = [
            (&mut self.setups, MessageKind::RrcSetupRequest),
            (&mut self.releases, MessageKind::RrcRelease),
        ];
        for (count, of) in counted {
            *count = *count + usize::from(kind == of) - usize::from(evicted == Some(of));
        }
    }
}

/// The stateful stream encoder.
#[derive(Debug, Default)]
pub struct Featurizer {
    tmsi_conn: HashMap<Tmsi, u32>,
    last_timestamp: Option<Timestamp>,
    recent_kinds: RecentKinds,
    /// Connections that sent a setup request but have not yet registered or
    /// been released — the CU resource a flood pins down.
    incomplete_conns: std::collections::HashSet<u32>,
}

impl Featurizer {
    /// A fresh encoder (state resets per stream).
    pub fn new() -> Self {
        Featurizer::default()
    }

    /// The one featurize entry: encodes one record onto the end of a
    /// caller-owned buffer, updating relational state, so a stream of
    /// records becomes one flat row-major block — and appends the record's
    /// nonzeros to `nonzeros` as one row, in ascending feature order, as it
    /// writes them. With warm buffers this is the allocation-free path the
    /// online detectors use.
    pub fn append_record(&mut self, r: &UeMobiFlow, v: &mut Vec<f32>, nonzeros: &mut SparseRows) {
        let start = v.len();
        v.resize(start + FEATURES_PER_RECORD, 0.0);
        nonzeros.reserve(1, MAX_NONZEROS_PER_RECORD);
        let row = &mut v[start..];
        // Each block of the table in order: `put(width, slot, value)` sets
        // slot `slot` of the next `width` features, so the list ascends.
        let mut at = 0;
        let mut put = |width: usize, slot: usize, value: f32| {
            debug_assert!(slot < width, "slot {slot} of a {width}-wide block");
            if value != 0.0 {
                row[at + slot] = value;
                nonzeros.push((at + slot) as u32, value);
            }
            at += width;
        };

        // Message one-hot. Identity-procedure messages are weighted: a
        // plaintext identity exchange is the security-critical rarity the
        // extraction attacks consist of, and one record must be able to
        // flag its window.
        let msg_weight = match r.msg {
            MessageKind::NasIdentityRequest | MessageKind::NasIdentityResponse => {
                IDENTITY_WEIGHT
            }
            _ => ROUTINE_WEIGHT,
        };
        put(MessageKind::vocabulary_size(), r.msg.feature_index(), msg_weight);

        // Direction.
        put(1, 0, if r.direction.is_uplink() { ROUTINE_WEIGHT } else { 0.0 });

        // Cipher one-hot (slot 0 = not established); the NULL slot carries
        // extra weight so downgrades stand out of the MSE.
        let slot = r.cipher_alg.map(|c| c.code() as usize + 1).unwrap_or(0);
        put(5, slot, if slot == 1 { NULL_ALG_WEIGHT } else { ROUTINE_WEIGHT });

        // Integrity one-hot, same weighting.
        let slot = r.integrity_alg.map(|c| c.code() as usize + 1).unwrap_or(0);
        put(5, slot, if slot == 1 { NULL_ALG_WEIGHT } else { ROUTINE_WEIGHT });

        // Establishment cause one-hot.
        put(8, r.establishment_cause.map(|c| c.code() as usize + 1).unwrap_or(0), ROUTINE_WEIGHT);

        // SUPI exposure (weighted: one bit must be able to flag a window).
        put(1, 0, if r.supi.is_some() { IDENTITY_WEIGHT } else { 0.0 });

        // TMSI reuse across connections.
        let reused = match r.tmsi {
            Some(tmsi) => match self.tmsi_conn.get(&tmsi) {
                Some(&conn) if conn != r.du_ue_id => true,
                _ => {
                    self.tmsi_conn.insert(tmsi, r.du_ue_id);
                    false
                }
            },
            None => false,
        };
        put(1, 0, if reused { IDENTITY_WEIGHT } else { 0.0 });

        // Inter-arrival bucket.
        let gap_us = match self.last_timestamp {
            Some(prev) => r.timestamp.saturating_since(prev).as_micros(),
            None => u64::MAX,
        };
        self.last_timestamp = Some(r.timestamp);
        let bucket = if gap_us < 1_000 {
            0
        } else if gap_us < 10_000 {
            1
        } else if gap_us < 100_000 {
            2
        } else {
            3
        };
        put(4, bucket, ROUTINE_WEIGHT);

        // Setup-burst density: how much of the recent stream is connection
        // arrivals. Benign traffic interleaves whole ladders, keeping this
        // low; a flood of truncated handshakes drives it up.
        self.recent_kinds.push(r.msg);
        // Benign arrival bursts peak around 5 setups per 16 records.
        put(1, 0, (self.recent_kinds.setups as f32 / 5.0).min(3.0));

        // Incomplete-connection pressure: how many live connections are
        // stuck between setup and registration. Benign registrations finish
        // in ~100 ms, keeping this small; a flood of abandoned handshakes
        // piles them up until the CU guard timer reaps them.
        match r.msg {
            MessageKind::RrcSetupRequest => {
                self.incomplete_conns.insert(r.du_ue_id);
            }
            MessageKind::NasRegistrationAccept
            | MessageKind::NasServiceAccept
            | MessageKind::RrcRelease
            | MessageKind::RrcReject
            | MessageKind::NasRegistrationReject
            | MessageKind::NasAuthenticationReject => {
                self.incomplete_conns.remove(&r.du_ue_id);
            }
            _ => {}
        }
        // Benign concurrency keeps at most ~4 registrations in flight.
        put(1, 0, (self.incomplete_conns.len() as f32 / 4.0).min(4.0));

        // Teardown-burst density: a storm of releases (the CU reaping a
        // flood's stalled contexts) is as anomalous as the flood itself.
        // Benign teardown waves (end-of-busy-hour deregistrations) reach
        // ~6 releases per 16 records; a guard-timer reap of a flood's
        // contexts far exceeds that.
        put(1, 0, (self.recent_kinds.releases as f32 / 6.0).min(3.0));

        // Release cause one-hot: an abnormal teardown (radio-link failure of
        // an abandoned handshake, a network abort detaching a subscriber,
        // congestion shedding) is itself a security state parameter.
        let slot = r.release_cause.map(|c| c.code() as usize + 1).unwrap_or(0);
        put(5, slot, if slot >= 2 { NULL_ALG_WEIGHT } else { ROUTINE_WEIGHT });

        debug_assert_eq!(at, FEATURES_PER_RECORD);
        nonzeros.end_row();
    }

    /// Encodes a whole labeled stream into a windowed dataset.
    pub fn encode_stream(config: &FeatureConfig, stream: &TelemetryStream) -> WindowedDataset {
        assert!(config.window >= 1, "window must be at least 1");
        let mut enc = Featurizer::new();
        let mut record_features = Vec::with_capacity(stream.records.len() * FEATURES_PER_RECORD);
        // The dataset is dense: its consumers take `Matrix` rows and find
        // the nonzeros themselves.
        let mut nonzeros = SparseRows::default();
        for r in &stream.records {
            enc.append_record(r, &mut record_features, &mut nonzeros);
            nonzeros.clear();
        }
        let attack_kinds: Vec<Option<AttackKind>> =
            stream.labels.iter().map(|l| l.attack_kind()).collect();
        WindowedDataset { record_features, attack_kinds, window: config.window }
    }
}

/// A featurized stream plus window bookkeeping.
#[derive(Debug, Clone)]
pub struct WindowedDataset {
    /// Every record's [`FEATURES_PER_RECORD`] features, back to back in
    /// stream order (filled by [`Featurizer::append_record`]).
    pub record_features: Vec<f32>,
    /// Per-record ground-truth attack kind (None = benign).
    attack_kinds: Vec<Option<AttackKind>>,
    /// Window length `N`.
    pub window: usize,
}

impl WindowedDataset {
    /// Number of records `M`.
    fn records(&self) -> usize {
        self.record_features.len() / FEATURES_PER_RECORD
    }

    /// Records `start..end`'s features: one contiguous slice.
    fn rows(&self, start: usize, end: usize) -> &[f32] {
        &self.record_features[start * FEATURES_PER_RECORD..end * FEATURES_PER_RECORD]
    }

    /// Number of autoencoder windows (`M - N + 1`, or 0 if too short).
    pub fn num_windows(&self) -> usize {
        (self.records() + 1).saturating_sub(self.window)
    }

    /// Flattened windows for the autoencoder: `num_windows × (N·F)`.
    ///
    /// # Panics
    /// If the stream is shorter than one window.
    pub fn flat_windows(&self) -> Matrix {
        let n = self.num_windows();
        assert!(n > 0, "stream shorter than one window");
        let width = self.window * FEATURES_PER_RECORD;
        let mut data = Vec::with_capacity(n * width);
        for i in 0..n {
            data.extend_from_slice(self.rows(i, i + self.window));
        }
        Matrix::from_vec(n, width, data)
    }

    /// Ground-truth label per autoencoder window: anomalous if *any* member
    /// record is attack-labeled (the paper's labeling rule).
    pub fn window_labels(&self) -> Vec<bool> {
        (0..self.num_windows())
            .map(|i| self.attack_kinds[i..i + self.window].iter().any(Option::is_some))
            .collect()
    }

    /// Dominant attack kind per window (first attack label found), for
    /// per-attack grouping in Figure 4.
    pub fn window_attack_kinds(&self) -> Vec<Option<AttackKind>> {
        (0..self.num_windows())
            .map(|i| self.attack_kinds[i..i + self.window].iter().flatten().next().copied())
            .collect()
    }

    /// `(window, next)` pairs for the LSTM: `M - N` pairs of an `N × F`
    /// sequence and the `1 × F` vector that followed.
    pub fn lstm_pairs(&self) -> (Vec<Matrix>, Vec<Matrix>) {
        let (m, n) = (self.records(), self.window);
        (0..m.saturating_sub(n))
            .map(|i| {
                let window = Matrix::from_vec(n, FEATURES_PER_RECORD, self.rows(i, i + n).to_vec());
                (window, Matrix::row(self.rows(i + n, i + n + 1).to_vec()))
            })
            .unzip()
    }

    /// Ground-truth label per LSTM pair: anomalous if any of
    /// `x_i .. x_{i+N}` (window plus the predicted step) is attack-labeled.
    pub fn lstm_labels(&self) -> Vec<bool> {
        let m = self.records();
        if m <= self.window {
            return Vec::new();
        }
        (0..m - self.window)
            .map(|i| self.attack_kinds[i..=i + self.window].iter().any(Option::is_some))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_mobiflow::UeMobiFlow;
    use xsec_proto::Direction;
    use xsec_types::{CellId, CipherAlg, Rnti, TrafficClass};

    fn record(msg_id: u64, ts: u64, conn: u32, tmsi: Option<u32>) -> UeMobiFlow {
        UeMobiFlow {
            msg_id,
            timestamp: Timestamp(ts),
            cell: CellId(1),
            rnti: Rnti(0x4601),
            du_ue_id: conn,
            direction: Direction::Uplink,
            msg: MessageKind::RrcSetupRequest,
            tmsi: tmsi.map(Tmsi),
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
        }
    }

    /// One record's features on their own.
    fn encode(enc: &mut Featurizer, r: &UeMobiFlow) -> Vec<f32> {
        let mut v = Vec::new();
        enc.append_record(r, &mut v, &mut SparseRows::default());
        v
    }

    /// `row`'s nonzeros as `(index, value)`, by a plain scan.
    fn nonzeros_of(row: &[f32]) -> Vec<(u32, f32)> {
        row.iter().enumerate().filter(|(_, v)| **v != 0.0).map(|(i, &v)| (i as u32, v)).collect()
    }

    fn stream(records: Vec<UeMobiFlow>) -> TelemetryStream {
        let n = records.len();
        TelemetryStream { records, labels: vec![TrafficClass::Benign; n] }
    }

    #[test]
    fn feature_width_is_declared_width() {
        let mut enc = Featurizer::new();
        let v = encode(&mut enc, &record(0, 0, 1, None));
        assert_eq!(v.len(), FEATURES_PER_RECORD);
    }

    #[test]
    fn append_record_builds_flat_rows_and_reuses_the_buffer() {
        let mut enc_a = Featurizer::new();
        let mut enc_b = Featurizer::new();
        let (mut flat, mut lists) = (Vec::new(), SparseRows::default());
        for i in 0..40usize {
            let mut r = record(i as u64, i as u64 * 700, (i % 3) as u32, Some((i % 5) as u32));
            if i % 4 == 0 {
                r.cipher_alg = Some(CipherAlg::Nea0);
            }
            let fresh = encode(&mut enc_a, &r);
            enc_b.append_record(&r, &mut flat, &mut lists);
            assert_eq!(flat.len(), (i + 1) * FEATURES_PER_RECORD);
            assert_eq!(fresh, flat[i * FEATURES_PER_RECORD..], "record {i} diverged");
            assert_eq!(lists.rows(), i + 1);
            assert_eq!(lists.row(i), nonzeros_of(&fresh), "record {i}'s list");
        }
        let caps = (flat.capacity(), lists.capacity());
        flat.clear();
        lists.clear();
        enc_b.append_record(&record(99, 99_000, 1, None), &mut flat, &mut lists);
        assert_eq!((flat.capacity(), lists.capacity()), caps, "warm buffers must not reallocate");
    }

    #[test]
    fn burst_densities_count_the_last_sixteen_kinds() {
        // The running counts against a recount of a trailing `Vec`, over a
        // stream of setups, releases and others in an irregular pattern.
        let (setup_idx, release_idx) = (FEATURES_PER_RECORD - 8, FEATURES_PER_RECORD - 6);
        let mut enc = Featurizer::new();
        let mut recent: Vec<MessageKind> = Vec::new();
        for i in 0..200u64 {
            let mut r = record(i, i * 300, (i % 7) as u32, None);
            r.msg = match (i * i + 3 * i) % 5 {
                0 | 3 => MessageKind::RrcSetupRequest,
                1 => MessageKind::RrcRelease,
                _ => MessageKind::NasIdentityRequest,
            };
            recent.push(r.msg);
            if recent.len() > BURST_LOOKBACK {
                recent.remove(0);
            }
            let count = |kind| recent.iter().filter(|k| **k == kind).count() as f32;
            let v = encode(&mut enc, &r);
            assert_eq!(v[setup_idx], (count(MessageKind::RrcSetupRequest) / 5.0).min(3.0), "record {i}");
            assert_eq!(v[release_idx], (count(MessageKind::RrcRelease) / 6.0).min(3.0), "record {i}");
        }
    }

    #[test]
    fn one_hot_blocks_have_exactly_one_active_bit() {
        let mut enc = Featurizer::new();
        let mut r = record(0, 0, 1, None);
        r.cipher_alg = Some(CipherAlg::Nea2);
        let v = encode(&mut enc, &r);
        let msg_block = &v[0..33];
        assert_eq!(msg_block.iter().filter(|&&x| x > 0.0).count(), 1);
        let cipher_block = &v[34..39];
        assert_eq!(cipher_block.iter().filter(|&&x| x > 0.0).count(), 1);
        assert_eq!(cipher_block[CipherAlg::Nea2.code() as usize + 1], ROUTINE_WEIGHT);
    }

    #[test]
    fn tmsi_reuse_fires_only_across_connections() {
        let mut enc = Featurizer::new();
        let reuse_idx = FEATURES_PER_RECORD - 13; // before gaps, bursts, pressure, release
        // First sighting on conn 1: not reused.
        let v = encode(&mut enc, &record(0, 0, 1, Some(77)));
        assert_eq!(v[reuse_idx], 0.0);
        // Same TMSI, same connection: still fine.
        let v = encode(&mut enc, &record(1, 10, 1, Some(77)));
        assert_eq!(v[reuse_idx], 0.0);
        // Same TMSI on a different connection: the Blind-DoS signature,
        // weighted so one bit can flag a window.
        let v = encode(&mut enc, &record(2, 20, 9, Some(77)));
        assert_eq!(v[reuse_idx], IDENTITY_WEIGHT);
    }

    #[test]
    fn inter_arrival_buckets() {
        let mut enc = Featurizer::new();
        let base = FEATURES_PER_RECORD - 12;
        // First record: no previous → slowest bucket.
        let v = encode(&mut enc, &record(0, 0, 1, None));
        assert_eq!(v[base + 3], ROUTINE_WEIGHT);
        // 500us later → fastest bucket.
        let v = encode(&mut enc, &record(1, 500, 1, None));
        assert_eq!(v[base], ROUTINE_WEIGHT);
        // 5ms later.
        let v = encode(&mut enc, &record(2, 5_500, 1, None));
        assert_eq!(v[base + 1], ROUTINE_WEIGHT);
        // 50ms later.
        let v = encode(&mut enc, &record(3, 55_500, 1, None));
        assert_eq!(v[base + 2], ROUTINE_WEIGHT);
    }

    #[test]
    fn windowing_counts_and_shapes() {
        let s = stream((0..10).map(|i| record(i, i * 1000, 1, None)).collect());
        let ds = Featurizer::encode_stream(&FeatureConfig { window: 4 }, &s);
        assert_eq!(ds.num_windows(), 7);
        let flat = ds.flat_windows();
        assert_eq!(flat.rows(), 7);
        assert_eq!(flat.cols(), 4 * FEATURES_PER_RECORD);
        let (windows, nexts) = ds.lstm_pairs();
        assert_eq!(windows.len(), 6);
        assert_eq!(windows[0].rows(), 4);
        assert_eq!(nexts[0].cols(), FEATURES_PER_RECORD);
    }

    #[test]
    fn window_labels_follow_the_paper_rule() {
        let mut s = stream((0..6).map(|i| record(i, i * 1000, 1, None)).collect());
        // Record 3 is malicious → windows containing index 3 are malicious.
        s.labels[3] = TrafficClass::Attack(AttackKind::BtsDos);
        let ds = Featurizer::encode_stream(&FeatureConfig { window: 2 }, &s);
        assert_eq!(ds.window_labels(), vec![false, false, true, true, false]);
        assert_eq!(
            ds.window_attack_kinds(),
            vec![None, None, Some(AttackKind::BtsDos), Some(AttackKind::BtsDos), None]
        );
        // LSTM pairs include the predicted step in the label span.
        assert_eq!(ds.lstm_labels(), vec![false, true, true, true]);
    }

    #[test]
    fn short_streams_yield_no_windows() {
        let s = stream(vec![record(0, 0, 1, None)]);
        let ds = Featurizer::encode_stream(&FeatureConfig { window: 4 }, &s);
        assert_eq!(ds.num_windows(), 0);
        let (w, n) = ds.lstm_pairs();
        assert!(w.is_empty() && n.is_empty());
        assert!(ds.lstm_labels().is_empty());
    }
}
