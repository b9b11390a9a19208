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
use std::fmt;
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

/// Why an A1 operation never left the SMO side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum A1ClientError {
    /// The router refused the publish for lack of a grant.
    Denied {
        /// Identity the denial was counted against.
        xapp: String,
        /// The capability label that was missing.
        capability: String,
    },
    /// No live subscriber on the topic — the operation would have vanished
    /// silently (typically: the mitigator is not deployed / already gone).
    Unrouted {
        /// The subscriber-less topic.
        topic: String,
    },
}

impl From<PublishError> for A1ClientError {
    fn from(e: PublishError) -> Self {
        match e {
            PublishError::Denied { xapp, capability } => A1ClientError::Denied { xapp, capability },
            PublishError::Unrouted { topic } => A1ClientError::Unrouted { topic },
        }
    }
}

impl fmt::Display for A1ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            A1ClientError::Denied { xapp, capability } => {
                write!(f, "A1 publish denied for {xapp:?} (missing {capability})")
            }
            A1ClientError::Unrouted { topic } => {
                write!(f, "no live subscriber on {topic:?}; A1 operation not delivered")
            }
        }
    }
}

impl std::error::Error for A1ClientError {}

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
/// cannot reach a mitigator: [`A1ClientError::Unrouted`] when the topic has
/// no live subscriber, [`A1ClientError::Denied`] when the sender lacks the
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
    /// [`A1ClientError::Unrouted`] when no mitigator is subscribed (the op
    /// would otherwise vanish), [`A1ClientError::Denied`] when the publish
    /// grant is missing.
    pub fn send(&self, request: &A1Request) -> std::result::Result<usize, A1ClientError> {
        let signed = A1SignedRequest {
            xapp: self.scope.name().to_string(),
            token: self.scope.token(),
            request: request.clone(),
        };
        let json = serde_json::to_vec(&signed).expect("A1 requests serialize");
        Ok(self.scope.try_publish(A1_POLICY_TOPIC, &json)?)
    }

    /// Installs a rule (supersedes an existing rule with the same id).
    ///
    /// # Errors
    /// See [`A1PolicyClient::send`].
    pub fn create(&self, rule: PolicyRule) -> std::result::Result<usize, A1ClientError> {
        self.send(&A1Request::CreatePolicy { rule })
    }

    /// Replaces an installed rule in place.
    ///
    /// # Errors
    /// See [`A1PolicyClient::send`].
    pub fn update(&self, rule: PolicyRule) -> std::result::Result<usize, A1ClientError> {
        self.send(&A1Request::UpdatePolicy { rule })
    }

    /// Removes an installed rule.
    ///
    /// # Errors
    /// See [`A1PolicyClient::send`].
    pub fn delete(&self, id: &str) -> std::result::Result<usize, A1ClientError> {
        self.send(&A1Request::DeletePolicy { id: id.to_string() })
    }

    /// Toggles a rule without removing it.
    ///
    /// # Errors
    /// See [`A1PolicyClient::send`].
    pub fn set_enabled(
        &self,
        id: &str,
        enabled: bool,
    ) -> std::result::Result<usize, A1ClientError> {
        self.send(&A1Request::SetEnabled { id: id.to_string(), enabled })
    }

    /// Asks for the live rule inventory.
    ///
    /// # Errors
    /// See [`A1PolicyClient::send`].
    pub fn query_status(&self) -> std::result::Result<usize, A1ClientError> {
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
        let smo = router
            .register(
                XAppIdentity::named("smo"),
                Grants::none().publish(A1_POLICY_TOPIC).subscribe(A1_POLICY_STATUS_TOPIC),
            )
            .unwrap();
        let client = A1PolicyClient::scoped(smo);
        // No mitigator subscribed yet: the op must not vanish silently.
        let err = client.query_status().unwrap_err();
        assert_eq!(err, A1ClientError::Unrouted { topic: A1_POLICY_TOPIC.to_string() });
        assert_eq!(router.unrouted(A1_POLICY_TOPIC), 1);
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

    /// The trained artifact, pinned to the bit: a change to the training
    /// path that moves one weight, Adam moment or threshold fails here
    /// (the trainers' own unit tests only compare a trainer with itself).
    /// The constants are edited only by a PR that means to retrain — and
    /// then re-pins every digest and table with them.
    #[test]
    fn trained_models_are_bit_stable() {
        fn fnv1a(text: &str) -> u64 {
            text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        }
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
        let got = (
            fnv1a(&models.autoencoder.to_json()),
            fnv1a(&models.lstm.to_json()),
            models.ae_threshold.value.to_bits(),
            models.lstm_threshold.value.to_bits(),
        );
        let want =
            (0xb4b8_1c01_4409_c29e_u64, 0x81ae_96e7_2c3e_579b_u64, 0x3d51_7273_u32, 0x3def_b958_u32);
        assert_eq!(got, want, "got {:016x} {:016x} {:08x} {:08x}", got.0, got.1, got.2, got.3);
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
