//! # xsec-dl
//!
//! A from-scratch, dependency-light deep-learning stack — the stand-in for
//! the Python/Keras models the paper trains. It implements exactly the two
//! model classes §3.2 evaluates, plus everything they need:
//!
//! * [`Matrix`] — a minimal f32 matrix with the ops the nets use, and
//!   [`SparseRows`] — rows given by their nonzeros, which is how both
//!   models' first layers read a featurized window;
//! * [`Dense`] — fully-connected layers with Adam;
//! * [`Autoencoder`] — reconstruction-error outlier scoring
//!   (`ŝ = f_AE(s)`, score = MSE(s, ŝ));
//! * [`Lstm`] — a full LSTM (BPTT) predicting the next telemetry vector
//!   (`x̂_{i+N} = f_LSTM(x_i..x_{i+N-1})`, score = MSE(x̂, x));
//! * [`featurize`] — one-hot sliding-window featurization of MobiFlow
//!   telemetry (the paper's categorical encoding), with the stateful
//!   identifier-relation features that make group anomalies visible;
//! * [`metrics`] — accuracy/precision/recall/F1 and the 99th-percentile
//!   thresholding rule the paper uses;
//! * [`Workspace`] — reusable scratch buffers making steady-state inference
//!   allocation-free, and [`FeatureRing`] — the flat per-stream window ring
//!   the online detectors score from without rebuilding windows;
//! * [`kernels`] — the products everything above runs on: a register-tiled
//!   wide-lane GEMM in safe Rust and its sparse-row twins.
//!
//! Each learning stage has one entry. [`Featurizer::append_record`]
//! featurizes onto a flat buffer and lists each record's nonzeros as it
//! writes them; [`Dense::forward_into`] is the one layer
//! pass, for training and inference alike; each model scores through its
//! `score_spans`, and `score_rows` / `score_batch` are the one convenience
//! wrapper over it. Their parity oracles are the libm references written
//! out in the tests.
//!
//! All training is deterministic given a seed. Models serialize to JSON so
//! the SMO can "deploy" them to xApps, as in Figure 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoencoder;
pub mod dense;
mod featurize;
pub mod kernels;
mod lstm;
pub mod metrics;
mod ring;
mod tensor;
mod workspace;

pub use autoencoder::{Autoencoder, AutoencoderConfig};
pub use dense::{Activation, Dense};
pub use featurize::{
    FeatureConfig, Featurizer, WindowedDataset, FEATURES_PER_RECORD, MAX_NONZEROS_PER_RECORD,
};
pub use lstm::{Lstm, LstmConfig};
pub use metrics::{percentile, Confusion, Threshold};
pub use ring::FeatureRing;
pub use tensor::{Matrix, SparseRows};
pub use workspace::Workspace;

/// Numeric path a detector scores with. There is one — f32 through the
/// GEMM kernel; the enum and the `precision` config
/// fields that carry it remain only because the frozen `benchmark/`
/// package names them (see ROADMAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// Full f32 math.
    #[default]
    F32,
}

#[cfg(test)]
mod tests {
    use super::Precision;

    #[test]
    fn precision_serde_round_trip() {
        let s = serde_json::to_string(&Precision::F32).unwrap();
        assert_eq!(s, "\"F32\"");
        assert_eq!(serde_json::from_str::<Precision>(&s).unwrap(), Precision::F32);
    }
}
