//! The SMO / non-RT-RIC side: offline model training and deployment.
//!
//! Per the paper (§3.2 "Deployment"), model training happens outside the
//! near-RT loop — in the Service Management and Orchestration framework —
//! and trained models are deployed into the MobiWatch xApp. [`Smo::train`]
//! is that offline job: benign telemetry in, serialized [`DeployedModels`]
//! out.
//!
//! The SMO also owns the A1 side of runtime policy governance:
//! [`A1PolicyClient`] speaks the A1-flavoured message API to the live
//! mitigation xApp over the platform router — under a registered identity,
//! every operation in a signed envelope — so playbooks can be installed,
//! replaced, disabled, or withdrawn mid-run without redeploying anything.

use crate::mitigator::{A1SignedRequest, A1_POLICY_STATUS_TOPIC, A1_POLICY_TOPIC};
use crossbeam_channel::Receiver;
use serde::{Deserialize, Serialize};
use xsec_control::{A1Request, A1Response, PolicyRule};
use xsec_ric::{PublishError, RouterHandle};
use xsec_dl::{
    Autoencoder, AutoencoderConfig, FeatureConfig, Featurizer, Lstm, LstmConfig, Threshold,
    Workspace, FEATURES_PER_RECORD,
};
use xsec_mobiflow::TelemetryStream;
use xsec_types::{Result, XsecError};

/// Training hyperparameters for both model classes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Sliding-window length `N`.
    pub window: usize,
    /// Threshold percentile over training errors (paper: 99.0).
    pub threshold_pct: f64,
    /// Autoencoder hyperparameters (input width is derived).
    pub autoencoder_hidden: Vec<usize>,
    /// Autoencoder epochs.
    pub autoencoder_epochs: usize,
    /// LSTM hidden width.
    pub lstm_hidden: usize,
    /// LSTM epochs.
    pub lstm_epochs: usize,
    /// Seed for deterministic training.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            window: 4,
            threshold_pct: 99.0,
            autoencoder_hidden: vec![64, 16],
            autoencoder_epochs: 100,
            lstm_hidden: 48,
            lstm_epochs: 8,
            seed: 42,
        }
    }
}

/// The deployment artifact the SMO hands to MobiWatch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeployedModels {
    /// Featurization parameters (must match at inference).
    pub feature_config: FeatureConfig,
    /// The trained autoencoder.
    pub autoencoder: Autoencoder,
    /// Its fitted decision threshold.
    pub ae_threshold: Threshold,
    /// The trained LSTM.
    pub lstm: Lstm,
    /// Its fitted decision threshold.
    pub lstm_threshold: Threshold,
}

impl DeployedModels {
    /// Serializes the artifact (what the SMO ships to the RIC).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("models serialize")
    }

    /// Loads a shipped artifact.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| XsecError::Model(e.to_string()))
    }
}

/// The SMO's handle on the near-RT RIC's live policy store: an A1-flavoured
/// message client over the platform router.
///
/// Requests are published on the `a1-policies` topic; the mitigation xApp
/// consumes them on its next pump, applies them to its
/// [`xsec_control::PolicyStore`], and answers with an [`A1Response`] on the
/// `a1-policy-status` topic, which [`A1PolicyClient::drain_responses`]
/// collects. The client is bound to a registered identity
/// ([`A1PolicyClient::scoped`]) and wraps each request in an
/// [`A1SignedRequest`] envelope carrying that identity and its token — the
/// only form the mitigator accepts.
///
/// Every send returns `Err` instead of silently dropping when the operation
/// cannot reach a mitigator: [`PublishError::Unrouted`] when the topic has
/// no live subscriber, [`PublishError::Denied`] when the sender lacks the
/// publish grant.
pub struct A1PolicyClient {
    scope: RouterHandle,
    responses: Receiver<Vec<u8>>,
}

impl A1PolicyClient {
    /// A client bound to a registered identity; requests go out in signed
    /// envelopes the mitigator can verify. The handle needs
    /// `publish:a1-policies` and `subscribe:a1-policy-status` grants plus
    /// A1 op rights for the operations it will issue.
    pub fn scoped(handle: RouterHandle) -> Self {
        let responses = handle.subscribe(A1_POLICY_STATUS_TOPIC);
        A1PolicyClient { scope: handle, responses }
    }

    /// Publishes one A1 operation; returns how many mailboxes accepted it.
    ///
    /// # Errors
    /// [`PublishError::Unrouted`] when no mitigator is subscribed (the op
    /// would otherwise vanish), [`PublishError::Denied`] when the publish
    /// grant is missing.
    pub fn send(&self, request: &A1Request) -> std::result::Result<usize, PublishError> {
        let signed = A1SignedRequest {
            xapp: self.scope.name().to_string(),
            token: self.scope.token(),
            request: request.clone(),
        };
        let json = serde_json::to_vec(&signed).expect("A1 requests serialize");
        self.scope.try_publish(A1_POLICY_TOPIC, &json)
    }

    /// Replaces an installed rule in place.
    ///
    /// # Errors
    /// See [`A1PolicyClient::send`].
    pub fn update(&self, rule: PolicyRule) -> std::result::Result<usize, PublishError> {
        self.send(&A1Request::UpdatePolicy { rule })
    }

    /// Toggles a rule without removing it.
    ///
    /// # Errors
    /// See [`A1PolicyClient::send`].
    pub fn set_enabled(
        &self,
        id: &str,
        enabled: bool,
    ) -> std::result::Result<usize, PublishError> {
        self.send(&A1Request::SetEnabled { id: id.to_string(), enabled })
    }

    /// Asks for the live rule inventory.
    ///
    /// # Errors
    /// See [`A1PolicyClient::send`].
    pub fn query_status(&self) -> std::result::Result<usize, PublishError> {
        self.send(&A1Request::QueryStatus)
    }

    /// Drains every A1 answer that has arrived since the last call.
    pub fn drain_responses(&self) -> Vec<A1Response> {
        let mut out = Vec::new();
        while let Ok(payload) = self.responses.try_recv() {
            if let Ok(response) = serde_json::from_slice::<A1Response>(&payload) {
                out.push(response);
            }
        }
        out
    }
}

/// The offline training service.
#[derive(Debug, Default)]
pub struct Smo;

impl Smo {
    /// Trains both detectors on a benign telemetry stream.
    ///
    /// # Errors
    /// Fails if the stream contains attack labels (training must be
    /// benign-only, §3.2) or is too short to window.
    pub fn train(config: &TrainingConfig, benign: &TelemetryStream) -> Result<DeployedModels> {
        if benign.attack_count() > 0 {
            return Err(XsecError::Model(format!(
                "training stream contains {} attack-labeled records; unsupervised training \
                 requires benign-only data",
                benign.attack_count()
            )));
        }
        let feature_config = FeatureConfig { window: config.window };
        let dataset = Featurizer::encode_stream(&feature_config, benign);
        if dataset.num_windows() < 10 {
            return Err(XsecError::Model(format!(
                "only {} windows; need at least 10 to train",
                dataset.num_windows()
            )));
        }

        // Hold out a benign validation slice for threshold fitting: scores
        // on *unseen* benign data reflect deployment conditions better than
        // training-set errors, which underestimate the benign tail on small
        // datasets (see DESIGN.md ablations).
        let mut ws = Workspace::new();
        let flat = dataset.flat_windows();
        let n = flat.rows();
        let val_start = n - n / 5 - 1;
        let train = flat.slice_rows(0, val_start);
        let ae_config = AutoencoderConfig {
            input_dim: config.window * FEATURES_PER_RECORD,
            hidden: config.autoencoder_hidden.clone(),
            epochs: config.autoencoder_epochs,
            seed: config.seed,
            ..AutoencoderConfig::for_input(config.window * FEATURES_PER_RECORD)
        };
        let autoencoder = Autoencoder::train(ae_config, &train);
        let val_scores = autoencoder.score_rows(&flat.slice_rows(val_start, n), &mut ws);
        let ae_threshold = Threshold::fit(&val_scores, config.threshold_pct);

        let (windows, nexts) = dataset.lstm_pairs();
        let lstm_val_start = windows.len() - windows.len() / 5 - 1;
        let lstm_config = LstmConfig {
            input_dim: FEATURES_PER_RECORD,
            hidden: config.lstm_hidden,
            epochs: config.lstm_epochs,
            seed: config.seed,
            ..LstmConfig::for_input(FEATURES_PER_RECORD)
        };
        let lstm = Lstm::train(
            lstm_config,
            &windows[..lstm_val_start],
            &nexts[..lstm_val_start],
        );
        let lstm_val =
            lstm.score_batch(&windows[lstm_val_start..], &nexts[lstm_val_start..], &mut ws);
        let lstm_threshold = Threshold::fit(&lstm_val, config.threshold_pct);

        Ok(DeployedModels { feature_config, autoencoder, ae_threshold, lstm, lstm_threshold })
    }
}

/// Small models trained on a seeded benign collection — the shared fixture
/// of the detector unit tests.
#[cfg(test)]
pub(crate) fn quick_models(seed: u64) -> DeployedModels {
    let report = xsec_attacks::DatasetBuilder::small(seed, 15).benign();
    let stream = xsec_mobiflow::extract_from_events(&report.events);
    Smo::train(
        &TrainingConfig {
            autoencoder_epochs: 12,
            lstm_epochs: 3,
            autoencoder_hidden: vec![48, 12],
            lstm_hidden: 24,
            ..TrainingConfig::default()
        },
        &stream,
    )
    .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_attacks::DatasetBuilder;
    use xsec_mobiflow::extract_from_events;

    fn quick_config() -> TrainingConfig {
        TrainingConfig {
            autoencoder_epochs: 5,
            lstm_epochs: 2,
            autoencoder_hidden: vec![32, 8],
            lstm_hidden: 16,
            ..TrainingConfig::default()
        }
    }

    #[test]
    fn a1_sends_surface_unrouted_topics_as_errors() {
        use xsec_ric::{Grants, XAppIdentity};
        let router = xsec_ric::Router::new();
        let obs = xsec_obs::Obs::new();
        router.attach_obs(&obs);
        let smo = router
            .register(
                XAppIdentity::named("smo"),
                Grants::none().publish(A1_POLICY_TOPIC).subscribe(A1_POLICY_STATUS_TOPIC),
            )
            .unwrap();
        let client = A1PolicyClient::scoped(smo);
        // No mitigator subscribed yet: the op must not vanish silently.
        let err = client.query_status().unwrap_err();
        assert_eq!(err, PublishError::Unrouted { topic: A1_POLICY_TOPIC.to_string() });
        let unrouted = obs.counter("xsec_router_unrouted_total", &[("topic", A1_POLICY_TOPIC)]);
        assert_eq!(unrouted.get(), 1);
        // Once a mitigator mailbox is live the same op is delivered.
        let _rx = router
            .register(XAppIdentity::named("mitigator"), Grants::none().subscribe(A1_POLICY_TOPIC))
            .unwrap()
            .subscribe(A1_POLICY_TOPIC);
        assert_eq!(client.query_status().unwrap(), 1);
    }

    #[test]
    fn trains_on_benign_data() {
        let report = DatasetBuilder::small(1, 10).benign();
        let stream = extract_from_events(&report.events);
        let models = Smo::train(&quick_config(), &stream).unwrap();
        assert!(models.ae_threshold.value > 0.0);
        assert!(models.lstm_threshold.value > 0.0);
    }

    /// What [`pinned_artifact`] trains, split the way the pins read it.
    struct PinnedArtifact {
        /// FNV-1a of each model's JSON without its Adam state (AE, LSTM).
        models: (u64, u64),
        /// FNV-1a of each model's Adam state alone (AE, LSTM).
        moments: (u64, u64),
        /// Every Adam moment of both models.
        moment_values: Vec<f32>,
        /// Both threshold bit patterns (AE, LSTM).
        thresholds: (u32, u32),
    }

    /// The deployed shapes (AE `[48, 12]` × 12 epochs, LSTM 24 × 3) trained
    /// once on a fixed benign stream and shared by the pins below.
    fn pinned_artifact() -> &'static PinnedArtifact {
        static ARTIFACT: std::sync::OnceLock<PinnedArtifact> = std::sync::OnceLock::new();
        ARTIFACT.get_or_init(|| {
            let config = TrainingConfig {
                autoencoder_epochs: 12,
                lstm_epochs: 3,
                autoencoder_hidden: vec![48, 12],
                lstm_hidden: 24,
                ..TrainingConfig::default()
            };
            let stream = extract_from_events(&DatasetBuilder::small(77, 500).benign().events);
            assert_eq!(stream.len(), 9_532);
            let models = Smo::train(&config, &stream).unwrap();
            let mut moment_values = Vec::new();
            let mut split = |mut json: serde_json::Value| {
                let mut adam = Vec::new();
                take_adam(&mut json, &mut adam);
                let adam = serde_json::Value::Array(adam);
                numbers(&adam, &mut moment_values);
                (fnv1a(&json.to_string()), fnv1a(&adam.to_string()))
            };
            let ae = split(serde_json::to_value(&models.autoencoder).unwrap());
            let lstm = split(serde_json::to_value(&models.lstm).unwrap());
            PinnedArtifact {
                models: (ae.0, lstm.0),
                moments: (ae.1, lstm.1),
                moment_values,
                thresholds: (models.ae_threshold.value.to_bits(), models.lstm_threshold.value.to_bits()),
            }
        })
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Moves the value of every `adam_*` key, at any depth, out of `v`.
    fn take_adam(v: &mut serde_json::Value, adam: &mut Vec<serde_json::Value>) {
        match v {
            serde_json::Value::Object(entries) => entries.retain_mut(|(key, value)| {
                if key.starts_with("adam_") {
                    adam.push(std::mem::replace(value, serde_json::Value::Null));
                    return false;
                }
                take_adam(value, adam);
                true
            }),
            serde_json::Value::Array(items) => items.iter_mut().for_each(|item| take_adam(item, adam)),
            _ => {}
        }
    }

    /// Every number in `v`, as the `f32` it was written from.
    fn numbers(v: &serde_json::Value, out: &mut Vec<f32>) {
        match v {
            serde_json::Value::Number(_) => out.push(v.as_f64().unwrap() as f32),
            serde_json::Value::Object(entries) => entries.iter().for_each(|(_, v)| numbers(v, out)),
            serde_json::Value::Array(items) => items.iter().for_each(|v| numbers(v, out)),
            _ => {}
        }
    }

    /// The trained artifact, pinned to the bit: a change to the training
    /// path that moves one weight, bias, training error or threshold fails
    /// here (the trainers' own unit tests only compare a trainer with
    /// itself). The constants are edited only by a change that means to
    /// retrain — and then re-pins every digest and table with them.
    #[test]
    fn trained_models_are_bit_stable() {
        let a = pinned_artifact();
        let got = (a.models.0, a.models.1, a.thresholds.0, a.thresholds.1);
        let want =
            (0x877d_4183_4384_8935_u64, 0x5f1d_bb46_b3f8_f9b7_u64, 0x3d51_7272_u32, 0x3def_b95a_u32);
        assert_eq!(got, want, "got {:016x} {:016x} {:08x} {:08x}", got.0, got.1, got.2, got.3);
    }

    /// The optimizer state the artifact carries beside the model, pinned
    /// apart from it: a change to Adam alone (how dead moments decay) moves
    /// this pin and not [`trained_models_are_bit_stable`]'s.
    #[test]
    fn trained_adam_moments_are_bit_stable() {
        let a = pinned_artifact();
        let want = (0xc3c7_c19b_58c0_e17e_u64, 0x9dc4_f6f9_ce65_30f9_u64);
        assert_eq!(a.moments, want, "got {:016x} {:016x}", a.moments.0, a.moments.1);
    }

    /// Adam flushes a moment that decays below `f32::MIN_POSITIVE` to zero,
    /// so the deployed shapes' ReLU-dead and seen-once weights carry `0.0`,
    /// not a denormal every later update would pay a microcode assist on.
    #[test]
    fn trained_adam_moments_hold_no_subnormal() {
        let moments = &pinned_artifact().moment_values;
        let subnormal = moments.iter().filter(|m| m.is_subnormal()).count();
        assert_eq!(subnormal, 0, "{subnormal} of {} Adam moments are subnormal", moments.len());
    }

    #[test]
    fn refuses_attack_contaminated_training_data() {
        let ds = DatasetBuilder::small(2, 10).attack(xsec_types::AttackKind::BtsDos);
        let stream = extract_from_events(&ds.report.events);
        let err = Smo::train(&quick_config(), &stream).unwrap_err();
        assert_eq!(err.category(), "model");
    }

    #[test]
    fn refuses_tiny_streams() {
        let stream = TelemetryStream::default();
        assert!(Smo::train(&quick_config(), &stream).is_err());
    }

    #[test]
    fn deployment_artifact_round_trips() {
        let report = DatasetBuilder::small(3, 10).benign();
        let stream = extract_from_events(&report.events);
        let models = Smo::train(&quick_config(), &stream).unwrap();
        let back = DeployedModels::from_json(&models.to_json()).unwrap();
        assert_eq!(back.ae_threshold, models.ae_threshold);
        assert_eq!(back.feature_config.window, models.feature_config.window);
    }
}
