//! Table 3 — can LLMs explain cellular anomalies?
//!
//! Protocol (paper §4.2): for each of the five attacks, take a flagged
//! trace (window + context) from the attack dataset, render the zero-shot
//! Figure 5 prompt, ask each of the five baseline models, and mark ✓ when
//! the model classifies the trace correctly (anomalous with the right
//! attack among its top suggestions; benign for the two control traces).

use super::flagged_trace;
use crate::pipeline::{Pipeline, PipelineConfig};
use serde::{Deserialize, Serialize};
use xsec_attacks::DatasetBuilder;
use xsec_llm::{LlmBackend, ParsedResponse, PromptTemplate, SimulatedExpert};
use xsec_llm::ModelPersonality;
use xsec_mobiflow::{extract_from_events, UeMobiFlow};
use xsec_types::{AttackKind, TrafficClass};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Table3Config {
    /// Pipeline/training parameters (the detector picks the traces).
    pub pipeline: PipelineConfig,
}

impl Default for Table3Config {
    fn default() -> Self {
        Table3Config { pipeline: PipelineConfig::paper(1) }
    }
}

impl Table3Config {
    /// A fast variant for tests.
    pub fn quick(seed: u64) -> Self {
        Table3Config { pipeline: PipelineConfig::small(seed, 25) }
    }
}

/// One row: a trace and each model's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Trace label ("BTS DoS", ..., "Benign Sequence 1").
    pub trace: String,
    /// Per-model correctness, in [`ModelPersonality::ALL`] column order.
    pub correct: Vec<bool>,
}

/// The full matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Result {
    /// Column headers (model names).
    pub models: Vec<String>,
    /// Rows: 5 attacks + 2 benign control traces.
    pub rows: Vec<Table3Row>,
}

impl Table3Result {
    /// Renders the matrix in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::from("Table 3: LLM evaluation results (✓ correct, ✗ wrong)\n");
        out.push_str(&format!("{:<22}", "Attack / Trace"));
        for m in &self.models {
            out.push_str(&format!("{:<18}", m));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<22}", row.trace));
            for c in &row.correct {
                out.push_str(&format!("{:<18}", if *c { "\u{2713}" } else { "\u{2717}" }));
            }
            out.push('\n');
        }
        out
    }

    /// The matrix as the paper reports it, for comparison.
    pub fn paper_reference() -> Vec<(&'static str, [bool; 5])> {
        vec![
            ("BTS DoS", [true, true, true, false, false]),
            ("Blind DoS", [true, false, false, true, false]),
            ("Uplink ID Extr", [false, false, false, false, true]),
            ("Downlink ID Extr", [true, true, false, true, true]),
            ("Null Cipher & Int.", [true, true, false, true, true]),
            ("Benign Sequence 1", [true, true, true, true, true]),
            ("Benign Sequence 2", [true, true, true, true, true]),
        ]
    }
}

/// Finds the representative flagged trace for one attack: the
/// [`flagged_trace`] of the trained detector over the attack dataset.
fn representative_trace(pipeline: &Pipeline, kind: AttackKind) -> Vec<UeMobiFlow> {
    let stream = pipeline.eval_stream(TrafficClass::Attack(kind));
    if let Some(trace) = flagged_trace(pipeline.models(), &stream) {
        return trace.to_vec();
    }
    // Detector missed entirely (should not happen): fall back to the
    // ground-truth attack region plus context.
    let first = stream.labels.iter().position(|l| l.is_attack()).unwrap_or(0);
    let start = first.saturating_sub(40);
    let end = (first + 24).min(stream.records.len());
    stream.records[start..end].to_vec()
}

/// A benign control trace: a contiguous slice of a fresh benign dataset.
fn benign_trace(config: &PipelineConfig, variant: u64) -> Vec<UeMobiFlow> {
    let report =
        DatasetBuilder::small(config.seed + 3_000 + variant, config.benign_sessions).benign();
    let stream = extract_from_events(&report.events);
    let start = (20 * variant as usize).min(stream.records.len().saturating_sub(40));
    stream.records[start..(start + 40).min(stream.records.len())].to_vec()
}

/// Whether the model's answer counts as correct for this trace.
fn graded(parsed: &ParsedResponse, expected: Option<AttackKind>) -> bool {
    match expected {
        None => !parsed.anomalous,
        Some(kind) => {
            if !parsed.anomalous {
                return false;
            }
            // The right attack must appear among the (≤3) suggestions.
            let needle = match kind {
                AttackKind::BtsDos => "BTS DoS",
                AttackKind::BlindDos => "Blind DoS",
                AttackKind::UplinkIdExtraction => "Uplink identity extraction",
                AttackKind::DownlinkIdExtraction => "Downlink identity extraction",
                AttackKind::NullCipher => "bidding-down",
            };
            parsed.attacks.iter().any(|a| a.contains(needle))
        }
    }
}

/// Runs the experiment.
pub fn run(config: &Table3Config) -> Table3Result {
    let pipeline = Pipeline::train(&config.pipeline);

    let mut traces: Vec<(String, Option<AttackKind>, Vec<UeMobiFlow>)> = AttackKind::ALL
        .into_iter()
        .map(|kind| {
            (
                kind.short_name().to_string(),
                Some(kind),
                representative_trace(&pipeline, kind),
            )
        })
        .collect();
    traces.push(("Benign Sequence 1".into(), None, benign_trace(&config.pipeline, 1)));
    traces.push(("Benign Sequence 2".into(), None, benign_trace(&config.pipeline, 2)));

    let template = PromptTemplate::default();
    let models: Vec<String> =
        ModelPersonality::ALL.iter().map(|p| p.name.to_string()).collect();

    let rows = traces
        .into_iter()
        .map(|(trace, expected, records)| {
            let prompt = template.render(&records);
            let correct = ModelPersonality::ALL
                .into_iter()
                .map(|personality| {
                    let mut backend = SimulatedExpert::new(personality);
                    let answer = backend.complete(&prompt).expect("simulated expert answers");
                    graded(&ParsedResponse::parse(&answer), expected)
                })
                .collect();
            Table3Row { trace, correct }
        })
        .collect();

    Table3Result { models, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table3_matches_the_papers_matrix() {
        let result = run(&Table3Config::quick(31));
        let reference = Table3Result::paper_reference();
        assert_eq!(result.rows.len(), reference.len());
        for (row, (name, expected)) in result.rows.iter().zip(&reference) {
            assert_eq!(&row.trace, name);
            assert_eq!(
                row.correct,
                expected.to_vec(),
                "row {name}: got {:?}, paper says {:?}",
                row.correct,
                expected
            );
        }
        let render = result.render();
        assert!(render.contains("ChatGPT-4o"));
        assert!(render.contains('\u{2713}'));
    }
}
