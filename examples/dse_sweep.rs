//! Design-space exploration with the alpha knob (the paper's §IV-A claim:
//! a training-free, tunable predictor makes (latency, accuracy) DSE cheap).
//!
//! Sweeps alpha and the early-layer depth it applies to, measuring for each
//! configuration: predicted/effective sparsity, teacher-forced accuracy
//! against the dense gold, and projected Jetson Orin AGX per-token latency.
//! Prints the Pareto frontier.
//!
//! ```text
//! cargo run --release --example dse_sweep
//! ```

use sparseinfer::eval::tasks::TaskSuite;
use sparseinfer::eval::teacher_forced_engine_matches;
use sparseinfer::gpu_sim::latency::{
    dense_token_latency, sparseinfer_token_latency, MlpStepSparsity, SparseVariant, DEFAULT_CTX,
};
use sparseinfer::gpu_sim::GpuSpec;
use sparseinfer::model::{generator::WeightGenerator, ModelConfig};
use sparseinfer::predictor::AlphaSchedule;
use sparseinfer::sparse::engine::EngineBuilder;

fn main() {
    let mut config = ModelConfig::sim_7b();
    config.vocab_size = 512;
    let model = WeightGenerator::new(&config, 11).build();
    let paper_cfg = ModelConfig::prosparse_7b_paper();
    let spec = GpuSpec::jetson_orin_agx_64gb();

    // Three seeded prompts, as the accuracy tables draw theirs, so the
    // sweep stays quick at sim_7b dims.
    let suite = TaskSuite::gsm8k_syn(3, 33);
    println!(
        "evaluating over {} prompts, {} prompt tokens\n",
        suite.len(),
        suite.tasks.iter().map(|t| t.tokens.len()).sum::<usize>()
    );
    let gold: Vec<Vec<u32>> = suite
        .tasks
        .iter()
        .map(|t| model.generate_greedy(&t.tokens, 10, sparseinfer::model::tokenizer::EOS))
        .collect();

    let dense_ms = dense_token_latency(&spec, &paper_cfg).total_ms();
    println!("dense reference: {dense_ms:.1} ms/token\n");
    println!(
        "{:>7} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "alpha", "depth", "pred-spar", "eff-spar", "latency(ms)", "accuracy"
    );

    let mut frontier: Vec<(f64, f64)> = Vec::new(); // (latency, accuracy)
    for alpha in [1.0, 1.05, 1.1, 1.2] {
        for depth in [8usize, 16, 32] {
            let schedule = AlphaSchedule::early_layers(alpha, depth);
            let mut engine = EngineBuilder::new(&model)
                .signbit(schedule)
                .build()
                .expect("signbit predictor covers every layer");

            // Teacher-forced accuracy over the suite.
            let mut matches = 0usize;
            let mut total = 0usize;
            for (task, gold_tokens) in suite.tasks.iter().zip(&gold) {
                let m = teacher_forced_engine_matches(engine.as_mut(), &task.tokens, gold_tokens);
                matches += m.iter().filter(|x| **x).count();
                total += m.len();
            }
            let accuracy = matches as f64 / total.max(1) as f64;

            // Measured sparsity → projected device latency at paper dims.
            let stats = engine.stats().expect("sparse engine has stats");
            let predicted = stats.mean_predicted();
            let effective = stats.mean_effective();
            let per_layer: Vec<MlpStepSparsity> = predicted
                .iter()
                .zip(&effective)
                .map(|(p, e)| MlpStepSparsity::with_actual(*p, *e))
                .collect();
            let ms = sparseinfer_token_latency(
                &spec,
                &paper_cfg,
                &per_layer,
                SparseVariant::fused(),
                DEFAULT_CTX,
            )
            .total_ms();

            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            println!(
                "{alpha:>7.2} {depth:>8} {:>10.3} {:>10.3} {ms:>12.1} {accuracy:>10.3}",
                mean(&predicted),
                mean(&effective)
            );
            frontier.push((ms, accuracy));
        }
    }

    // Pareto: keep configs not dominated (faster AND at least as accurate).
    let mut pareto: Vec<(f64, f64)> = Vec::new();
    for &(ms, acc) in &frontier {
        if !frontier
            .iter()
            .any(|&(m2, a2)| (m2 < ms && a2 >= acc) || (m2 <= ms && a2 > acc))
        {
            pareto.push((ms, acc));
        }
    }
    pareto.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    println!("\nPareto frontier (latency ms, accuracy):");
    for (ms, acc) in pareto {
        println!("  {ms:>7.1} ms  {acc:.3}");
    }
    println!("\nEvery point above cost one predictor *configuration change*, not a retraining —");
    println!("the paper's argument for training-free DSE.");
}
