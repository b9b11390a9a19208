//! The zero-shot prompt template of Figure 5.
//!
//! > *"You are an AI security analyst tasked with identifying potential
//! > attacks within a 5G network. You have access to a cellular traffic
//! > sequence of attributes: `<DATA_DESCRIPTIONS>` `<DATA>` Determine
//! > whether this sequence is anomalous or benign and explain why. Next, if
//! > the sequence constitutes attacks, provide the top 3 most possible
//! > attacks, and describe the implications."*
//!
//! `<DATA>` is the flagged window (plus context) rendered one MobiFlow
//! record per line in the semicolon encoding, which keeps the prompt
//! parseable by both real LLM endpoints and the simulated expert.

use xsec_mobiflow::{encode_ue_record, UeMobiFlow};

/// Markers bracketing the data block inside a rendered prompt.
pub const DATA_BEGIN: &str = "<DATA>";
/// Closing marker of the data block.
pub const DATA_END: &str = "</DATA>";

/// The Figure 5 prompt template.
#[derive(Debug, Clone)]
pub struct PromptTemplate {
    /// The analyst role instruction.
    pub role: String,
    /// The schema explanation substituted for `<DATA_DESCRIPTIONS>`.
    pub data_description: String,
    /// The task instruction following the data.
    pub task: String,
}

impl Default for PromptTemplate {
    fn default() -> Self {
        PromptTemplate {
            role: "You are an AI security analyst tasked with identifying potential attacks \
                   within a 5G network. You have access to a cellular traffic sequence of \
                   attributes:"
                .to_string(),
            data_description: "Each line is one control-plane telemetry record in the form \
                 `v2;UE;msg_id;timestamp_us;cell;rnti_hex;connection;direction;message;tmsi;\
                 supi;cipher_alg;integrity_alg;establishment_cause;release_cause` — message \
                 is the RRC/NAS message name, rnti/tmsi/supi are the UE's radio, temporary \
                 and permanent identifiers ('-' when absent), cipher_alg/integrity_alg are \
                 the negotiated 5G security algorithms (0 means the NULL algorithm), \
                 establishment_cause is the RRC connection establishment cause code, and \
                 release_cause is the RRC release cause (0 normal, 1 radio-link failure, \
                 2 network abort, 3 congestion)."
                .to_string(),
            task: "Determine whether this sequence is anomalous or benign and explain why. \
                   Next, if the sequence constitutes attacks, provide the top 3 most possible \
                   attacks, and describe the implications."
                .to_string(),
        }
    }
}

impl PromptTemplate {
    /// Renders the full prompt for a telemetry window.
    pub fn render(&self, records: &[UeMobiFlow]) -> String {
        self.render_lines(records.iter().map(encode_ue_record))
    }

    /// Renders the full prompt around record lines already in the
    /// semicolon encoding — what a caller holding an alert's lines passes,
    /// instead of decoding them only for [`Self::render`] to encode again.
    pub fn render_lines<S: AsRef<str>>(&self, lines: impl Iterator<Item = S>) -> String {
        // A line runs 50–80 bytes; sized so a full alert renders without
        // regrowing.
        let data = lines.size_hint().1.unwrap_or(0) * 96;
        let frame = self.role.len() + self.data_description.len() + self.task.len() + 32;
        let mut out = String::with_capacity(frame + data);
        out.push_str(&self.role);
        out.push('\n');
        out.push_str(&self.data_description);
        out.push('\n');
        out.push_str(DATA_BEGIN);
        out.push('\n');
        for line in lines {
            out.push_str(line.as_ref());
            out.push('\n');
        }
        out.push_str(DATA_END);
        out.push('\n');
        out.push_str(&self.task);
        out
    }

    /// The record lines of a rendered prompt, borrowed from it — how the
    /// simulated expert "reads" its input without any side channel.
    pub fn extract_data(prompt: &str) -> Option<impl Iterator<Item = &str>> {
        let begin = prompt.find(DATA_BEGIN)? + DATA_BEGIN.len();
        let end = prompt[begin..].find(DATA_END)? + begin;
        Some(prompt[begin..end].lines().map(str::trim).filter(|l| !l.is_empty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_proto::{Direction, MessageKind};
    use xsec_types::{CellId, Rnti, Timestamp};

    fn record(id: u64) -> UeMobiFlow {
        UeMobiFlow {
            msg_id: id,
            timestamp: Timestamp(id),
            cell: CellId(1),
            rnti: Rnti(0x4601),
            du_ue_id: 1,
            direction: Direction::Uplink,
            msg: MessageKind::RrcSetupRequest,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
        }
    }

    #[test]
    fn render_contains_all_sections() {
        let prompt = PromptTemplate::default().render(&[record(0), record(1)]);
        assert!(prompt.contains("AI security analyst"));
        assert!(prompt.contains("anomalous or benign"));
        assert!(prompt.contains("top 3 most possible attacks"));
        assert!(prompt.contains(DATA_BEGIN) && prompt.contains(DATA_END));
        assert_eq!(prompt.matches("RRCSetupRequest").count(), 2);
    }

    #[test]
    fn extract_data_round_trips() {
        let records = [record(0), record(1), record(2)];
        let prompt = PromptTemplate::default().render(&records);
        let lines: Vec<&str> = PromptTemplate::extract_data(&prompt).unwrap().collect();
        assert_eq!(lines.len(), 3);
        for (line, r) in lines.iter().zip(&records) {
            assert_eq!(xsec_mobiflow::decode_ue_record(line).unwrap(), *r);
        }
    }

    #[test]
    fn rendering_lines_equals_rendering_their_records() {
        let records = [record(0), record(1), record(2)];
        let lines: Vec<String> = records.iter().map(encode_ue_record).collect();
        let template = PromptTemplate::default();
        assert_eq!(template.render_lines(lines.iter()), template.render(&records));
    }

    #[test]
    fn extract_data_handles_missing_markers() {
        assert!(PromptTemplate::extract_data("no data here").is_none());
    }

    #[test]
    fn empty_window_renders_and_extracts_empty() {
        let prompt = PromptTemplate::default().render(&[]);
        assert_eq!(PromptTemplate::extract_data(&prompt).unwrap().count(), 0);
    }
}
