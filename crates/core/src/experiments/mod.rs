//! Reproductions of every table and figure in the paper's evaluation (§4).
//!
//! Each experiment is a pure function from a seed/config to a structured
//! result plus a `render()` that prints the same rows/series the paper
//! reports. The `xsec-bench` crate exposes one binary per experiment:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 2 (detection performance) | [`table2`] | `cargo run -p xsec-bench --bin table2` |
//! | Table 3 (LLM evaluation matrix) | [`table3`] | `cargo run -p xsec-bench --bin table3` |
//! | Figure 2 (attack message ladders) | [`fig2`] | `cargo run -p xsec-bench --bin fig2` |
//! | Figure 4 (reconstruction errors) | [`fig4`] | `cargo run -p xsec-bench --bin fig4` |
//! | Figure 5 (prompt & response) | [`fig5`] | `cargo run -p xsec-bench --bin fig5` |

pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod table2;
pub mod table3;

use crate::mobiwatch::{Detector, MobiWatch, MobiWatchConfig};
use crate::smo::DeployedModels;
use xsec_mobiflow::{TelemetryStream, UeMobiFlow};

/// The flagged trace an analyst would pick from `stream` (the paper picks
/// them by hand): runs the autoencoder detector with no publish cooldown and,
/// of every flagged window, returns the records an alert at its last record
/// would carry — the window plus its context, the stream's trailing
/// `context_records + window` records — with the most attack-labelled
/// records, the latest on a tie. `None` if nothing was flagged.
///
/// It reads the flags, not the published alerts, so which windows the
/// incident gate merges does not move the pick.
pub(crate) fn flagged_trace<'a>(
    models: &DeployedModels,
    stream: &'a TelemetryStream,
) -> Option<&'a [UeMobiFlow]> {
    let config = MobiWatchConfig {
        detector: Detector::Autoencoder,
        publish_cooldown: 0,
        ..MobiWatchConfig::default()
    };
    let keep = config.context_records + models.feature_config.window;
    let (mut watch, state) = MobiWatch::new(models.clone(), config);
    for record in &stream.records {
        watch.process_record(record);
    }
    let state = state.lock();
    let trace = |&(index, _, _): &(u64, f32, bool)| {
        let end = index as usize + 1;
        end - end.min(keep)..end
    };
    let attacks = |range: &std::ops::Range<usize>| {
        stream.labels[range.clone()].iter().filter(|label| label.is_attack()).count()
    };
    let best =
        state.scores.iter().filter(|(_, _, flagged)| *flagged).map(trace).max_by_key(attacks)?;
    Some(&stream.records[best])
}
