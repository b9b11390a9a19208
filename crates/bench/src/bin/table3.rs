//! Regenerates Table 3: five LLM baselines × (5 attacks + 2 benign traces),
//! zero-shot, with traces picked by the trained detector.

use sixg_xsec::experiments::table3::{self, Table3Config, Table3Result};

fn main() {
    let config = if xsec_bench::quick_mode() {
        Table3Config::quick(1)
    } else {
        Table3Config::default()
    };
    eprintln!("table3: running Table 3 (training the detector to pick the traces) ...");
    let result = table3::run(&config);
    let mut text = result.render();
    text.push_str("\nAgreement with the paper's matrix:\n");
    let reference = Table3Result::paper_reference();
    let mut matches = 0;
    let mut cells = 0;
    for (row, (name, expected)) in result.rows.iter().zip(&reference) {
        let ok = row.correct == expected.to_vec();
        matches += usize::from(ok);
        cells += 1;
        text.push_str(&format!("  {:<22} {}\n", name, if ok { "matches" } else { "DIFFERS" }));
    }
    text.push_str(&format!("  => {matches}/{cells} rows identical to the paper\n"));
    println!("{text}");
    xsec_bench::save_report("table3", &text);
}
