//! Table 3: average MSE of NN-LUT, GQA-LUT w/o RM and GQA-LUT w/ RM on all
//! five operators, for 8- and 16-entry INT8 LUTs.
//!
//! Protocol (§4.1): GELU/HSWISH/EXP are scored on the dequantized grid
//! averaged over `S ∈ {2^0 … 2^-6}`; DIV/RSQRT on the FXP grid through the
//! multi-range datapath.
//!
//! Run with: `cargo run -p gqa-bench --release --bin table3_operator_mse`
//!
//! Set `GQA_LUT_SNAPSHOT=<path>` to warm-start from (and refresh) a LUT
//! artifact snapshot: the shared `gqa_bench::registry()` loads it before
//! the first build and this binary saves the merged registry back on
//! exit, so a re-run performs zero search generations.

use gqa_bench::table::{sci, Table};
use gqa_bench::{build_lut, mse_scale_average, wide_range_mse, Method};
use gqa_funcs::NonLinearOp;

fn main() {
    println!("Table 3: Comparison of average MSE (INT8 LUT approximation)\n");
    let mut t = Table::new(vec![
        "Method".into(),
        "Entry".into(),
        "GELU".into(),
        "HSWISH".into(),
        "EXP".into(),
        "DIV".into(),
        "RSQRT".into(),
    ]);
    for method in Method::ALL {
        for entries in [8usize, 16] {
            let mut cells = vec![method.label().to_owned(), entries.to_string()];
            for &op in NonLinearOp::PAPER_OPS.iter() {
                let lut = build_lut(method, op, entries, 2024);
                let mse = if op.scale_dependent() {
                    mse_scale_average(&lut, op)
                } else {
                    wide_range_mse(&lut, op)
                };
                cells.push(sci(mse));
            }
            t.row(cells);
        }
    }
    t.print();
    println!(
        "\nPaper reference (8-entry): NN-LUT 1.3e-3/1.2e-3/6.4e-4/2.7e-3/1.1e-2, \
         w/o RM 1.5e-4/3.1e-4/1.3e-4/7.8e-4/1.2e-3, w/ RM 9.4e-5/2.9e-4/1.2e-4/8.3e-4/1.7e-3"
    );
    let registry = gqa_bench::registry();
    eprintln!("[table3] registry: {}", registry.stats());
    if let Ok(path) = std::env::var("GQA_LUT_SNAPSHOT") {
        match registry.save_snapshot(&path) {
            Ok(()) => eprintln!("[table3] saved LUT snapshot to {path}"),
            Err(e) => eprintln!("[table3] failed to save snapshot {path}: {e}"),
        }
    }
}
