//! Regenerates Figure 4: the autoencoder's reconstruction-error series over
//! the five attack datasets, with the detection threshold and the grouping
//! statistics behind the paper's ①/② observation. Also writes the raw
//! series as CSV for external plotting.

use sixg_xsec::experiments::fig4::{self, Fig4Config};

fn main() {
    let config =
        if xsec_bench::quick_mode() { Fig4Config::quick(1) } else { Fig4Config::default() };
    eprintln!(
        "fig4: running Figure 4 (seed {}, {} sessions) ...",
        config.seed,
        config.benign_sessions
    );
    let result = fig4::run(&config);
    let text = result.render();
    println!("{text}");
    xsec_bench::save_report("fig4", &text);
    let csv = result.to_csv();
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("fig4.csv"), csv).unwrap();
    eprintln!("fig4: series saved to target/experiments/fig4.csv");
}
