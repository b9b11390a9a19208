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
//! * **Merging is a fork/join per E2 batch — when there is something to
//!   join.** Shards are parked in the pool between batches. The ingest
//!   thread stages each record on its owner shard, sends every busy shard
//!   but one to a worker thread — state travels with the work and comes
//!   back with the verdicts — and scores the remaining one itself. So an
//!   empty batch returns at once, idle shards are never woken, and a batch
//!   that touched one shard (always, in a 1-shard pool, which never spawns
//!   a thread) costs no hand-off. Each shard makes one batched model pass
//!   per E2 batch; results are ordered by global record index before they
//!   touch the shared state, so downstream consumers observe one
//!   deterministic stream.

use crate::mobiwatch::{AnomalyAlert, MobiWatchConfig, MobiWatchState};
use crate::smo::DeployedModels;
use crate::window::{Ingest, Scorer, Verdict};
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;
use xsec_mobiflow::UeMobiFlow;
use xsec_obs::Obs;
use xsec_proto::MessageKind;
use xsec_ric::{XApp, XAppContext};
use xsec_types::Timestamp;

/// Which shard owns a connection. A fixed multiplicative hash keeps the
/// mapping deterministic across runs and spreads sequential IDs.
fn shard_of(du_ue_id: u32, shards: usize) -> usize {
    (du_ue_id.wrapping_mul(0x9E37_79B1) as usize) % shards
}

/// A shard on its way to or from a worker, with its position in the pool.
type Forked = (usize, Box<Scorer>);

/// The threads a pool of two or more shards forks busy shards to. They
/// hold no state: a shard arrives with its batch and leaves with its
/// verdicts.
struct Workers {
    to_workers: Sender<Forked>,
    from_workers: Receiver<Forked>,
    threads: Vec<JoinHandle<()>>,
}

/// The sharded anomaly-detection xApp. Drop-in replacement for `MobiWatch`
/// in the platform: same name, same topics, same shared-state type — the
/// scores it records are per-UE windows rather than one global window.
pub struct ShardedMobiWatch {
    /// Featurization, flight recording, the shared state and alert context
    /// all stay on the ingest thread, in global record order — so every
    /// output of the pool is invariant in the shard count. Its scorer is
    /// the template each shard forks.
    ingest: Ingest,
    /// Every shard's per-UE windows, parked here between batches (a slot is
    /// empty only while its shard is out with a worker).
    shards: Vec<Option<Box<Scorer>>>,
    /// The threads busy shards are forked to: `shards - 1` of them, spawned
    /// on the first batch that needs one.
    workers: Option<Workers>,
    /// The current batch's verdicts, merged across shards.
    verdicts: Vec<(u64, Verdict)>,
    tracked_ues: usize,
}

impl ShardedMobiWatch {
    /// Creates the pool (threads start lazily).
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
        let shards = (0..shards).map(|_| Some(Box::new(ingest.scorer.fork()))).collect();
        let pool =
            ShardedMobiWatch { ingest, shards, workers: None, verdicts: Vec::new(), tracked_ues: 0 };
        (pool, state)
    }

    /// Re-homes the pool's instruments into `obs`'s registry. Call before
    /// the first batch — samples and window state do not carry over.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.ingest.attach_obs(obs);
        for shard in &mut self.shards {
            *shard = Some(Box::new(self.ingest.scorer.fork()));
        }
    }

    /// UEs with live window state across all shards, as of the last batch.
    /// Flat over a churning stream; growth here is the per-UE state leak the
    /// eviction-on-release path exists to prevent.
    pub fn tracked_ues(&self) -> usize {
        self.tracked_ues
    }

    /// The worker threads, spawned on first use: one busy shard is always
    /// scored on the ingest thread, so `shards - 1` can be out at once.
    fn workers(&mut self) -> &Workers {
        let threads = self.shards.len() - 1;
        self.workers.get_or_insert_with(|| {
            let (to_workers, work) = unbounded::<Forked>();
            let (done, from_workers) = unbounded::<Forked>();
            let threads = (0..threads)
                .map(|_| {
                    let (work, done) = (work.clone(), done.clone());
                    std::thread::spawn(move || {
                        while let Ok((id, mut shard)) = work.recv() {
                            // The trace id, like the alert context, is
                            // stamped by the ingest thread on merge.
                            shard.score(0);
                            if done.send((id, shard)).is_err() {
                                return; // pool is shutting down
                            }
                        }
                    })
                })
                .collect();
            Workers { to_workers, from_workers, threads }
        })
    }

    /// Featurizes, scores, and merges one batch of records; returns the
    /// alerts raised, ordered by global record index.
    pub fn process_batch(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        let alerts = self.detect(records);
        self.ingest.file(alerts.clone());
        alerts
    }

    /// [`Self::process_batch`] up to its alerts, which the caller files.
    fn detect(&mut self, records: &[UeMobiFlow]) -> Vec<AnomalyAlert> {
        if records.is_empty() {
            return Vec::new();
        }
        // Featurize sequentially (stream-level state), staging each record
        // on its owner shard. An RRC release ends the connection for good —
        // DU ids are never reused within a run — so once the release record
        // itself is scored the UE's window state is dead weight, and a
        // million-UE stream would pin a million rings.
        let shards = &mut self.shards;
        let count = shards.len();
        let first = self.ingest.featurize(records, |featurizer, index, record| {
            let ue = record.du_ue_id;
            let shard = shards[shard_of(ue, count)].as_mut().expect("parked between batches");
            shard.push(featurizer, index, record, ue, record.msg == MessageKind::RrcRelease);
        });
        // Fork only when there is something to join: the first busy shard
        // is scored right here, any other goes to a worker.
        let mut local = None;
        let mut forked = 0;
        for id in 0..count {
            if !self.shards[id].as_ref().is_some_and(|shard| shard.is_busy()) {
                continue;
            }
            if local.is_none() {
                local = Some(id);
                continue;
            }
            let shard = self.shards[id].take().expect("checked busy");
            self.workers().to_workers.send((id, shard)).expect("workers alive");
            forked += 1;
        }
        let local = local.expect("a non-empty batch has a busy shard");
        self.shards[local].as_mut().expect("never forked").score(0);
        for _ in 0..forked {
            let (id, shard) = self.workers().from_workers.recv().expect("worker replies");
            self.shards[id] = Some(shard);
        }
        // Deterministic merge: shard arrival order is per-UE only; global
        // record index restores the stream order regardless of shard count.
        self.tracked_ues = 0;
        for shard in self.shards.iter_mut().flatten() {
            self.verdicts.append(&mut shard.verdicts);
            self.tracked_ues += shard.tracked();
        }
        self.verdicts.sort_unstable_by_key(|(index, _)| *index);
        // Emit in global record order, each alert seeing the stream's tail
        // *as of its record* — exactly what the single-threaded MobiWatch
        // logs and attaches. Shards can't build the context (each sees only
        // its own UEs), and a per-UE context would hide stream-level
        // signatures like a storm of one-shot connections.
        self.ingest.emit(records, first, &mut self.verdicts)
    }
}

impl Drop for ShardedMobiWatch {
    fn drop(&mut self) {
        if let Some(Workers { to_workers, threads, .. }) = self.workers.take() {
            drop(to_workers); // hang up: workers exit on channel close
            for thread in threads {
                let _ = thread.join();
            }
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
        let alerts = self.detect(records);
        self.ingest.publish(ctx, alerts);
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
        // An odd batch size exercises the fork/join on uneven boundaries.
        run_chunked(models, config, shards, 23, stream)
    }

    fn run_chunked(
        models: &DeployedModels,
        config: &MobiWatchConfig,
        shards: usize,
        chunk: usize,
        stream: &TelemetryStream,
    ) -> MobiWatchState {
        let (mut pool, state) = ShardedMobiWatch::new(models.clone(), config.clone(), shards);
        for chunk in stream.records.chunks(chunk) {
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
        // Nor on how the stream was cut into batches: a UE released and
        // recycled mid-batch scores as it does record at a time.
        for (shards, chunk) in [(1, 1), (4, 1), (1, 240), (4, stream.records.len())] {
            let other = run_chunked(&models, &config, shards, chunk, &stream);
            assert_eq!(single.scores, other.scores, "{shards} shards, batches of {chunk}");
            let positions = |s: &MobiWatchState| -> Vec<u64> {
                s.alerts.iter().map(|a| a.at_record).collect()
            };
            assert_eq!(positions(&single), positions(&other), "{shards} shards/{chunk}");
        }
    }

    #[test]
    fn one_busy_shard_is_scored_without_a_hand_off() {
        let models = quick_models(39);
        let ds = DatasetBuilder::small(31, 4).benign();
        let stream = extract_from_events(&ds.events);
        let (mut pool, state) = ShardedMobiWatch::new(models.clone(), MobiWatchConfig::default(), 1);
        assert!(pool.process_batch(&[]).is_empty());
        // A 1-shard pool never has anyone to hand work to.
        for chunk in stream.records.chunks(23) {
            pool.process_batch(chunk);
        }
        assert!(pool.workers.is_none(), "a 1-shard pool spawned a worker");
        assert!(!state.lock().scores.is_empty());
        // A wider pool spawns no thread for batches that touch one shard,
        // and parks every shard again after each batch, forked or not, with
        // nothing left in flight.
        let (mut pool, _state) = ShardedMobiWatch::new(models, MobiWatchConfig::default(), 3);
        for chunk in stream.records.chunks(1).chain(stream.records.chunks(50)) {
            assert!(chunk.len() > 1 || pool.workers.is_none(), "a lone record was handed off");
            pool.process_batch(chunk);
            for shard in &pool.shards {
                let shard = shard.as_ref().expect("parked");
                assert!(!shard.is_busy() && shard.verdicts.is_empty());
            }
        }
        assert_eq!(pool.workers.as_ref().map(|w| w.threads.len()), Some(2));
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
