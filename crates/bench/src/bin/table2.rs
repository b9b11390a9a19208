//! Regenerates Table 2: detection performance of the Autoencoder and LSTM
//! on the benign (cross-validated) and attack datasets.

use sixg_xsec::experiments::table2::{self, Table2Config};

fn main() {
    let config = if xsec_bench::quick_mode() {
        Table2Config::quick(1)
    } else {
        Table2Config::default()
    };
    eprintln!(
        "table2: running Table 2 (seed {}, {} benign sessions, {} folds) ...",
        config.seed,
        config.benign_sessions,
        config.folds
    );
    let result = table2::run(&config);
    let text = result.render();
    println!("{text}");
    println!("\nPaper's reference values:");
    println!("  Benign  Autoencoder  93.23%  93.23%  N/A     N/A");
    println!("  Benign  LSTM         91.15%  91.15%  N/A     N/A");
    println!("  Attack  Autoencoder  100%    100%    100%    100%");
    println!("  Attack  LSTM         95.00%  88.68%  100%    94.00%");
    xsec_bench::save_report("table2", &text);
}
