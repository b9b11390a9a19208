//! Figure 5 — the prompt template and an example expert response for a BTS
//! DoS event, regenerated end-to-end: the detector flags the flood, the
//! flagged window (plus context) becomes the zero-shot prompt, and the
//! ChatGPT-4o-calibrated expert produces the signaling-storm analysis the
//! paper screenshots.

use super::flagged_trace;
use crate::pipeline::{Pipeline, PipelineConfig};
use serde::{Deserialize, Serialize};
use xsec_llm::{LlmBackend, ModelPersonality, PromptTemplate, SimulatedExpert};
use xsec_types::{AttackKind, TrafficClass};

/// The rendered figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// The full rendered prompt (template + data).
    pub prompt: String,
    /// The model's response.
    pub response: String,
    /// The model that answered.
    pub model: String,
}

impl Fig5Result {
    /// Renders prompt and response side by side (paper layout).
    pub fn render(&self) -> String {
        format!(
            "Figure 5: prompt template and response ({})\n\n\
             ======== Prompt ========\n{}\n\n======== Response ========\n{}\n",
            self.model, self.prompt, self.response
        )
    }
}

/// Runs the figure regeneration.
pub fn run(config: &PipelineConfig) -> Fig5Result {
    let pipeline = Pipeline::train(config);
    let stream = pipeline.eval_stream(TrafficClass::Attack(AttackKind::BtsDos));

    let records =
        flagged_trace(pipeline.models(), &stream).expect("the flood flags at least one window");
    let prompt = PromptTemplate::default().render(records);
    let mut backend = SimulatedExpert::new(ModelPersonality::CHATGPT_4O);
    let response = backend.complete(&prompt).expect("expert answers");

    Fig5Result { prompt, response, model: backend.name().to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_reproduces_the_signaling_storm_analysis() {
        let fig = run(&PipelineConfig::small(61, 20));
        // The prompt carries the Figure 5 template and telemetry data.
        assert!(fig.prompt.contains("AI security analyst"));
        assert!(fig.prompt.contains("top 3 most possible attacks"));
        assert!(fig.prompt.contains("RRCSetupRequest"));
        // The response mirrors the paper's example: anomalous, signaling
        // storm, gNodeB load.
        assert!(fig.response.contains("ANOMALOUS"), "{}", fig.response);
        assert!(fig.response.contains("Signaling storm"), "{}", fig.response);
        assert!(fig.response.to_lowercase().contains("gnodeb"), "{}", fig.response);
        assert!(fig.render().contains("======== Response ========"));
    }
}
