//! **E7 + E9 — Table II**: ProSparse-Llama2-13B(-sim) benchmark accuracy as
//! a function of alpha, plus the random-90% sanity check.
//!
//! ```text
//! cargo run --release -p sparseinfer-bench --bin table2_accuracy_13b
//! # quick mode: SPARSEINFER_BENCH_QUICK=1 cargo run --release -p sparseinfer-bench --bin table2_accuracy_13b
//! ```
//!
//! Paper shape to reproduce (Table II): degradation is largest at
//! alpha = 1.00 and shrinks monotonically, becoming negligible (< 1 point)
//! at alpha = 1.03; random 90% skipping scores zero.

use sparseinfer_bench::{build_sim_13b, run_accuracy_table, BASELINES_13B};

fn main() {
    let model = build_sim_13b();
    run_accuracy_table(
        &model,
        5120,
        BASELINES_13B,
        "Table II — ProSparse-Llama2-13B",
    );
    println!("Paper reference (average column): baseline 37.76; alpha 1.00 -> 35.33 (-2.43);");
    println!("1.01 -> 36.15; 1.02 -> 37.04; 1.03 -> 37.49 (-0.27).");
}
