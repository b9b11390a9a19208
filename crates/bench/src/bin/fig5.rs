//! Regenerates Figure 5: the zero-shot prompt template and an expert
//! response for a detector-flagged BTS DoS window.

use sixg_xsec::experiments::fig5;
use sixg_xsec::pipeline::PipelineConfig;

fn main() {
    let config = if xsec_bench::quick_mode() {
        PipelineConfig::small(61, 20)
    } else {
        PipelineConfig::paper(61)
    };
    eprintln!("fig5: running Figure 5 (training + flagging a flood window) ...");
    let result = fig5::run(&config);
    let text = result.render();
    println!("{text}");
    xsec_bench::save_report("fig5", &text);
}
