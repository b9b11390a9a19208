//! Per-UE sharded MobiWatch scoring: fan inference out across worker
//! threads without changing what gets detected.
//!
//! The single-threaded [`MobiWatch`](crate::mobiwatch::MobiWatch) scores one
//! global sliding window; past a few hundred thousand records per second one
//! core becomes the ceiling. This module splits the *scoring* work by UE:
//!
//! * **Featurization stays global and sequential** on the ingest thread.
//!   The relational features (TMSI reuse across connections, inter-arrival
//!   gaps, setup/release burst density) are stream-level state — computing
//!   them per shard would change their values. Every record's feature vector
//!   is therefore identical to the single-threaded pipeline's.
//! * **Windowing and scoring are per UE.** Each `du_ue_id` hashes to exactly
//!   one shard, which keeps that UE's [`FeatureRing`] and alert cooldown.
//!   A UE's records arrive at its shard in stream order,
//!   so per-UE state evolves deterministically — the score and alert sets
//!   are *invariant in the shard count*, which is what makes the pool safe
//!   to widen with the machine.
//! * **Merging is a fork/join per E2 batch.** The ingest thread sends each
//!   shard **one message per batch** — its slice of the featurized records —
//!   and collects one reply each; results are ordered by global record index
//!   before they touch the shared state, so downstream consumers observe one
//!   deterministic stream. Batched dispatch matters: a channel send is a
//!   lock + wakeup, and paying it per *record* made one shard slower than
//!   the unsharded xApp it was supposed to scale past.

use crate::mobiwatch::{AnomalyAlert, MobiWatchConfig, MobiWatchState};
use crate::smo::DeployedModels;
use crate::window::{Ingest, Scorer, Verdict, WindowCore};
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use xsec_dl::{FeatureRing, FEATURES_PER_RECORD};
use xsec_mobiflow::UeMobiFlow;
use xsec_obs::Obs;
use xsec_ric::{XApp, XAppContext};
use xsec_types::Timestamp;

/// Which shard owns a connection. A fixed multiplicative hash keeps the
/// mapping deterministic across runs and spreads sequential IDs.
fn shard_of(du_ue_id: u32, shards: usize) -> usize {
    (du_ue_id.wrapping_mul(0x9E37_79B1) as usize) % shards
}

/// One featurized record owned by a shard's UE set. Only what scoring
/// needs crosses the channel — the raw record stays on the ingest thread,
/// which owns alert context. A shard's work message is its `Vec` of these
/// for one E2 batch (possibly empty), in stream order: exactly one message
/// per shard per batch, and the reply is the fork/join barrier.
struct ShardRecord {
    index: u64,
    du_ue_id: u32,
    /// The record is an RRC release: score it, then drop the UE's state.
    evict: bool,
    features: Vec<f32>,
}

/// One shard's results for one batch.
#[derive(Default)]
struct ShardBatch {
    /// `(global record index, verdict)` in this shard's arrival order.
    verdicts: Vec<(u64, Verdict)>,
    /// UEs this shard still tracks after the batch (leak telemetry).
    tracked: usize,
    /// The drained work buffer, returned for the ingest thread to reuse.
    spent: Vec<ShardRecord>,
}

/// The sharded anomaly-detection xApp. Drop-in replacement for `MobiWatch`
/// in the platform: same name, same topics, same shared-state type — the
/// scores it records are per-UE windows rather than one global window.
pub struct ShardedMobiWatch {
    /// Featurization, flight recording, the shared state and alert context
    /// all stay on the ingest thread, in global record order — so every
    /// output of the pool is invariant in the shard count. Its scorer is
    /// the template each worker forks.
    ingest: Ingest,
    shards: usize,
    tracked_ues: usize,
    workers: Vec<JoinHandle<()>>,
    to_shards: Vec<Sender<Vec<ShardRecord>>>,
    /// Per-shard staging for the current batch, reused across batches (the
    /// `Vec`s round-trip through the workers and come back with the
    /// replies).
    staging: Vec<Vec<ShardRecord>>,
    from_shards: Option<Receiver<ShardBatch>>,
}

impl ShardedMobiWatch {
    /// Creates the pool (threads start lazily on the first batch, after
    /// [`attach_obs`](Self::attach_obs) has had a chance to run).
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn new(
        models: DeployedModels,
        config: MobiWatchConfig,
        shards: usize,
    ) -> (Self, Arc<Mutex<MobiWatchState>>) {
        assert!(shards > 0, "shard count must be positive");
        let (ingest, state) = Ingest::new(models, config);
        let pool = ShardedMobiWatch {
            ingest,
            shards,
            tracked_ues: 0,
            workers: Vec::new(),
            to_shards: Vec::new(),
            staging: Vec::new(),
            from_shards: None,
        };
        (pool, state)
    }

    /// Re-homes the pool's instruments into `obs`'s registry. Call before
    /// the first batch — worker threads capture the instruments at spawn.
    pub fn attach_obs(&mut self, obs: &Obs) {
        assert!(self.workers.is_empty(), "attach_obs must precede the first batch");
        self.ingest.attach_obs(obs);
    }

    /// UEs with live window state across all shards, as of the last batch.
    /// Flat over a churning stream; growth here is the per-UE state leak the
    /// eviction-on-release path exists to prevent.
    pub fn tracked_ues(&self) -> usize {
        self.tracked_ues
    }

    fn ensure_started(&mut self) {
        if !self.workers.is_empty() {
            return;
        }
        let (reply_tx, reply_rx) = unbounded::<ShardBatch>();
        self.staging = (0..self.shards).map(|_| Vec::new()).collect();
        for _ in 0..self.shards {
            let (tx, rx) = unbounded::<Vec<ShardRecord>>();
            let scorer = self.ingest.scorer.fork();
            let reply = reply_tx.clone();
            self.to_shards.push(tx);
            self.workers.push(std::thread::spawn(move || shard_loop(scorer, rx, reply)));
        }
        self.from_shards = Some(reply_rx);
    }

    /// Featurizes, dispatches, and joins one batch of records; returns the
    /// alerts raised, ordered by global record index.
    pub fn process_batch(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        self.ensure_started();
        let batch_start = self.ingest.seen();
        // Featurize sequentially (stream-level state), staging each record
        // on its owner shard; every shard then gets exactly one send.
        for record in records {
            let mut features = Vec::with_capacity(FEATURES_PER_RECORD);
            let index = self.ingest.featurize(record, &mut features);
            self.staging[shard_of(record.du_ue_id, self.shards)].push(ShardRecord {
                index,
                du_ue_id: record.du_ue_id,
                evict: record.msg == xsec_proto::MessageKind::RrcRelease,
                features,
            });
        }
        // Fork/join: one work message per shard (empty slices included — the
        // reply is the barrier), one reply per shard.
        for (tx, staged) in self.to_shards.iter().zip(&mut self.staging) {
            tx.send(std::mem::take(staged)).expect("shard alive");
        }
        let rx = self.from_shards.as_ref().expect("started");
        let mut verdicts = Vec::new();
        self.tracked_ues = 0;
        for _ in 0..self.shards {
            let batch = rx.recv().expect("shard replies");
            verdicts.extend(batch.verdicts);
            self.tracked_ues += batch.tracked;
            if let Some(slot) = self.staging.iter_mut().find(|s| s.capacity() == 0) {
                *slot = batch.spent;
            }
        }
        // Deterministic merge: shard arrival order is per-UE only; global
        // record index restores the stream order regardless of shard count.
        verdicts.sort_unstable_by_key(|(index, _)| *index);
        // Emit in global record order, each alert seeing the stream's tail
        // *as of its record* — exactly what the single-threaded MobiWatch
        // logs and attaches. Shards can't build the context (each sees only
        // its own UEs), and a per-UE context would hide stream-level
        // signatures like a storm of one-shot connections.
        let mut alerts = Vec::new();
        let mut verdicts = verdicts.into_iter().peekable();
        for (record, index) in records.iter().zip(batch_start..) {
            self.ingest.remember(record);
            if let Some((_, verdict)) = verdicts.next_if(|(scored, _)| *scored == index) {
                let trace = self.ingest.trace_for(record);
                alerts.extend(self.ingest.emit(record, index, trace, verdict));
            }
        }
        alerts
    }
}

impl Drop for ShardedMobiWatch {
    fn drop(&mut self) {
        self.to_shards.clear(); // hang up: workers exit on channel close
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl XApp for ShardedMobiWatch {
    fn name(&self) -> &str {
        "mobiwatch"
    }

    fn on_records(
        &mut self,
        ctx: &mut XAppContext<'_>,
        records: &[UeMobiFlow],
        _window_end: Timestamp,
    ) {
        for alert in self.process_batch(records) {
            self.ingest.publish(ctx, &alert);
        }
    }
}

/// The worker body: per-UE windowing and scoring over this shard's UE set —
/// a map of window cores, one per `du_ue_id`.
fn shard_loop(mut scorer: Scorer, rx: Receiver<Vec<ShardRecord>>, reply: Sender<ShardBatch>) {
    let window = scorer.window();
    let mut ues: HashMap<u32, WindowCore> = HashMap::new();
    let mut ring_pool: Vec<FeatureRing> = Vec::new();
    let mut batch = ShardBatch::default();
    while let Ok(mut spent) = rx.recv() {
        for ShardRecord { index, du_ue_id, evict, features } in spent.drain(..) {
            let core = ues
                .entry(du_ue_id)
                .or_insert_with(|| WindowCore::new(window, &mut ring_pool));
            // The trace id, like the alert context, is stamped by the
            // ingest thread on merge.
            if let Some(verdict) = core.push(&mut scorer, &features, 0) {
                batch.verdicts.push((index, verdict));
            }
            // An RRC release ends the connection for good — DU ids are
            // never reused within a run — so once the release record
            // itself is scored, the UE's window state is dead weight, and
            // a million-UE stream would pin a million rings.
            if evict {
                if let Some(core) = ues.remove(&du_ue_id) {
                    core.retire(&mut ring_pool);
                }
            }
        }
        batch.tracked = ues.len();
        batch.spent = spent;
        if reply.send(std::mem::take(&mut batch)).is_err() {
            return; // pool is shutting down
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobiwatch::Detector;
    use crate::smo::quick_models;
    use crate::window::window_truth;
    use xsec_attacks::DatasetBuilder;
    use xsec_mobiflow::{extract_from_events, TelemetryStream};
    use xsec_types::AttackKind;

    fn run_sharded(
        models: &DeployedModels,
        config: &MobiWatchConfig,
        shards: usize,
        stream: &TelemetryStream,
    ) -> MobiWatchState {
        let (mut pool, state) = ShardedMobiWatch::new(models.clone(), config.clone(), shards);
        // Mixed batch sizes exercise the fork/join on uneven boundaries.
        for chunk in stream.records.chunks(23) {
            pool.process_batch(chunk);
        }
        drop(pool);
        Arc::try_unwrap(state).expect("pool dropped").into_inner()
    }

    #[test]
    fn alert_and_score_sets_are_shard_count_invariant() {
        let models = quick_models(30);
        let config = MobiWatchConfig::default();
        let ds = DatasetBuilder::small(31, 10).attack(AttackKind::NullCipher);
        let stream = extract_from_events(&ds.report.events);

        let single = run_sharded(&models, &config, 1, &stream);
        let quad = run_sharded(&models, &config, 4, &stream);

        assert!(!single.scores.is_empty(), "stream must produce scores");
        assert_eq!(single.scores, quad.scores, "scores must not depend on shard count");
        assert_eq!(single.alerts.len(), quad.alerts.len());
        for (a, b) in single.alerts.iter().zip(&quad.alerts) {
            assert_eq!(a.at_record, b.at_record);
            assert_eq!(a.score, b.score);
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn scores_arrive_in_global_record_order() {
        let models = quick_models(32);
        let ds = DatasetBuilder::small(33, 8).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        let state = run_sharded(&models, &MobiWatchConfig::default(), 3, &stream);
        let indices: Vec<u64> = state.scores.iter().map(|(i, _, _)| *i).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "merged scores must be stream-ordered");
    }

    #[test]
    fn released_ues_are_evicted_from_shard_state() {
        let models = quick_models(36);
        let ds = DatasetBuilder::small(37, 12).attack(AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);

        let (mut pool, _state) =
            ShardedMobiWatch::new(models.clone(), MobiWatchConfig::default(), 3);
        for chunk in stream.records.chunks(50) {
            pool.process_batch(chunk);
        }

        // The pool should only still track connections that never saw an
        // RRC release (e.g. admission-rejected setups); everything released
        // — benign teardowns and guard-expired DoS contexts alike — must be
        // evicted.
        let mut open: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for record in &stream.records {
            if record.msg == xsec_proto::MessageKind::RrcRelease {
                open.remove(&record.du_ue_id);
            } else {
                open.insert(record.du_ue_id);
            }
        }
        let distinct: std::collections::HashSet<u32> =
            stream.records.iter().map(|r| r.du_ue_id).collect();
        assert_eq!(
            pool.tracked_ues(),
            open.len(),
            "tracked state diverged from open connections"
        );
        assert!(
            pool.tracked_ues() < distinct.len() / 2,
            "eviction barely fired: {} tracked of {} distinct",
            pool.tracked_ues(),
            distinct.len()
        );
        drop(pool);
    }

    #[test]
    fn detections_are_shard_invariant_under_churn() {
        use xsec_ran::{StreamConfig, StreamingScenario};
        use xsec_types::Duration;

        // A stream where UEs register, hand over between cells, and retire
        // mid-run — slab slots and DU ranges churn constantly.
        let mut engine = StreamingScenario::new(StreamConfig {
            seed: 41,
            cells: 3,
            total_ues: 50,
            mean_inter_arrival: Duration::from_millis(4),
            mobility_fraction: 0.5,
            max_handovers: 2,
            max_live: 24,
            ..StreamConfig::default()
        });
        let stream = crate::scale::drained(&mut engine);
        assert!(engine.stats().handovers > 0, "churn stream must hand over");

        let models = quick_models(38);
        let config = MobiWatchConfig::default();
        let single = run_sharded(&models, &config, 1, &stream);
        let quad = run_sharded(&models, &config, 4, &stream);

        assert!(!single.scores.is_empty(), "churn stream must produce scores");
        assert_eq!(single.scores, quad.scores, "churn broke shard invariance");
        assert_eq!(single.alerts.len(), quad.alerts.len());
        for (a, b) in single.alerts.iter().zip(&quad.alerts) {
            assert_eq!(a.at_record, b.at_record);
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn per_ue_truth_matches_emission_accounting() {
        let models = quick_models(34);
        let ds = DatasetBuilder::small(35, 8).attack(AttackKind::NullCipher);
        let stream = extract_from_events(&ds.report.events);
        for detector in [Detector::Autoencoder, Detector::Lstm] {
            let config = MobiWatchConfig { detector, ..MobiWatchConfig::default() };
            let state = run_sharded(&models, &config, 2, &stream);
            let span = detector.span(models.feature_config.window);
            let truth = window_truth(&stream, span, |r| r.du_ue_id);
            assert_eq!(
                state.scores.len(),
                truth.len(),
                "{detector:?}: emission accounting diverged from truth helper"
            );
        }
    }
}
