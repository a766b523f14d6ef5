//! Shared plumbing for the experiment binaries that regenerate every table
//! and figure of the SparseInfer paper.
//!
//! Each binary in `src/bin/` reproduces one artifact (see DESIGN.md §4 for
//! the index); this library holds the pieces they share: standard model
//! construction, trace capture, per-alpha sparsity measurement, and table
//! formatting.

use sparseinfer::gpu_sim::latency::MlpStepSparsity;
use sparseinfer::model::generator::WeightGenerator;
use sparseinfer::model::{Model, ModelConfig};
use sparseinfer::predictor::{AlphaSchedule, SparsityPredictor};
use sparseinfer::sparse::engine::{Engine, EngineBuilder, EngineOptions};
use sparseinfer::sparse::request::{generate, GenerateRequest};

/// Seed shared by all experiment binaries so results are reproducible and
/// mutually consistent.
pub const EXPERIMENT_SEED: u64 = 20250331;

/// Number of leading layers the paper applies `alpha > 1` to.
pub const EARLY_LAYERS: usize = 20;

/// The alpha grid of Fig. 4 / Tables II–III.
pub const ALPHA_GRID: [f64; 4] = [1.00, 1.01, 1.02, 1.03];

/// Builds the scaled simulation model standing in for ProSparse-Llama2-13B.
pub fn build_sim_13b() -> Model {
    let mut cfg = ModelConfig::sim_13b();
    cfg.vocab_size = 512; // covers the byte tokenizer's 259 ids
    WeightGenerator::new(&cfg, EXPERIMENT_SEED).build()
}

/// Builds the scaled simulation model standing in for ProSparse-Llama2-7B.
pub fn build_sim_7b() -> Model {
    let mut cfg = ModelConfig::sim_7b();
    cfg.vocab_size = 512;
    WeightGenerator::new(&cfg, EXPERIMENT_SEED + 1).build()
}

/// Maps a paper alpha onto the scaled simulation model, preserving the
/// *statistical strength* of the threshold shift.
///
/// The decision rule `alpha·N_pos < N_neg` moves the skip threshold by
/// `≈ d·(alpha−1)/2` counts, while the count noise is `≈ sqrt(d)/2`; the
/// shift measured in noise units is therefore `(alpha−1)·sqrt(d)`. To make
/// `alpha = 1.03` mean the same thing on a `d = 448` simulacrum as on the
/// paper's `d = 5120` model, the sim uses
/// `1 + (alpha−1)·sqrt(d_paper/d_sim)` (documented in DESIGN.md §2).
pub fn sim_alpha(paper_alpha: f64, sim_dim: usize, paper_dim: usize) -> f64 {
    1.0 + (paper_alpha - 1.0) * (paper_dim as f64 / sim_dim as f64).sqrt()
}

/// The paper-style alpha schedule on a simulation model standing in for a
/// paper model of hidden dimension `paper_dim`: the (dimension-corrected)
/// `alpha` on the first [`EARLY_LAYERS`] layers, 1.0 after.
pub fn paper_schedule_for(alpha: f64, sim_dim: usize, paper_dim: usize) -> AlphaSchedule {
    AlphaSchedule::early_layers(sim_alpha(alpha, sim_dim, paper_dim), EARLY_LAYERS)
}

/// Measures per-layer (predicted, effective) sparsity of the sign-bit
/// predictor on `model` at a given schedule by decoding `tokens` greedy
/// tokens from a fixed prompt.
pub fn measure_sparsity(
    model: &Model,
    schedule: AlphaSchedule,
    tokens: usize,
) -> Vec<MlpStepSparsity> {
    let mut engine = EngineBuilder::new(model)
        .signbit(schedule)
        .options(EngineOptions::sparseinfer())
        .build()
        .expect("signbit predictor covers every model layer");
    let prompt: Vec<u32> = (1..=8).collect();
    let _ = generate(
        engine.as_mut(),
        &GenerateRequest::new(&prompt).max_new(tokens),
    )
    .expect("non-empty prompt");
    let stats = engine.stats().expect("sparse engine has stats");
    let predicted = stats.mean_predicted();
    let effective = stats.mean_effective();
    predicted
        .iter()
        .zip(&effective)
        .map(|(p, e)| MlpStepSparsity::with_actual(*p, *e))
        .collect()
}

/// Measures per-layer sparsity delivered by an arbitrary predictor without
/// actual-sparsity compensation (the PowerInfer path).
pub fn measure_predictor_sparsity<P: SparsityPredictor + 'static>(
    model: &Model,
    predictor: P,
    tokens: usize,
) -> Vec<MlpStepSparsity> {
    let mut engine = EngineBuilder::new(model)
        .predictor(Box::new(predictor))
        .options(EngineOptions::base())
        .build()
        .expect("predictor covers every model layer");
    let prompt: Vec<u32> = (1..=8).collect();
    let _ = generate(
        engine.as_mut(),
        &GenerateRequest::new(&prompt).max_new(tokens),
    )
    .expect("non-empty prompt");
    engine
        .stats()
        .expect("sparse engine has stats")
        .mean_predicted()
        .iter()
        .map(|p| MlpStepSparsity::uniform(*p))
        .collect()
}

/// Right-aligns a float into a fixed-width cell.
pub fn cell(v: f64, width: usize, precision: usize) -> String {
    format!("{v:>width$.precision$}")
}

/// Times `f` over `iters` runs (after a short warmup), prints the mean in
/// microseconds, and returns it — the self-timed backbone of the bench
/// binaries (criterion is unavailable offline).
pub fn time_us<T>(name: &str, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..3 {
        std::hint::black_box(f());
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
    println!("{name:<44} {us:>12.2} us/iter");
    us
}

/// Whether `SPARSEINFER_BENCH_QUICK` is set — the smoke mode of the benches
/// (one iteration, no ratio floors) and of the accuracy tables (fewer tasks,
/// shorter continuations): everything keeps compiling *and running* without
/// paying for stable numbers.
pub fn quick() -> bool {
    std::env::var_os("SPARSEINFER_BENCH_QUICK").is_some()
}

/// Scales an iteration count down to 1 in [`quick`] mode.
pub fn bench_iters(iters: usize) -> usize {
    if quick() {
        1
    } else {
        iters
    }
}

/// Baseline benchmark scores from the paper's accuracy tables.
#[derive(Debug, Clone, Copy)]
pub struct PaperBaselines {
    /// GSM8K baseline score.
    pub gsm8k: f64,
    /// BBH baseline score.
    pub bbh: f64,
}

/// Table II baselines (ProSparse-Llama2-13B).
pub const BASELINES_13B: PaperBaselines = PaperBaselines {
    gsm8k: 30.71,
    bbh: 44.80,
};
/// Table III baselines (ProSparse-Llama2-7B).
pub const BASELINES_7B: PaperBaselines = PaperBaselines {
    gsm8k: 13.42,
    bbh: 35.80,
};

/// Per-suite outcome of one engine configuration in the accuracy protocol.
#[derive(Debug, Clone, Copy)]
pub struct SuiteScore {
    /// Mean teacher-forced token match rate over tasks.
    pub match_rate: f64,
    /// `baseline × match_rate`, the paper-style benchmark score.
    pub score: f64,
}

/// Teacher-forced accuracy of one engine over a suite: the prompt is
/// prefilled densely (the paper exploits sparsity only in decode), then each
/// gold position is scored by whether the engine's argmax reproduces the
/// dense engine's token, with the gold token forced afterwards. Delegates
/// to [`sparseinfer::eval::teacher_forced_engine_matches`].
pub fn teacher_forced_suite_score(
    engine: &mut dyn Engine,
    suite: &sparseinfer::eval::TaskSuite,
    gold: &[Vec<u32>],
    baseline: f64,
) -> SuiteScore {
    let mut total_positions = 0usize;
    let mut total_matches = 0usize;
    for (task, gold_tokens) in suite.tasks.iter().zip(gold) {
        let matches =
            sparseinfer::eval::teacher_forced_engine_matches(engine, &task.tokens, gold_tokens);
        total_matches += matches.iter().filter(|m| **m).count();
        total_positions += matches.len();
    }
    let match_rate = if total_positions == 0 {
        1.0
    } else {
        total_matches as f64 / total_positions as f64
    };
    SuiteScore {
        match_rate,
        score: baseline * match_rate,
    }
}

/// Runs the full Table II/III accuracy protocol on `model` (a simulacrum of
/// a paper model with hidden dimension `paper_dim`): dense gold, SparseInfer
/// at every alpha in [`ALPHA_GRID`], plus the random-90% sanity row. Prints
/// a paper-style table.
pub fn run_accuracy_table(model: &Model, paper_dim: usize, baselines: PaperBaselines, label: &str) {
    use sparseinfer::eval::harness::gold_continuations;
    use sparseinfer::eval::TaskSuite;

    let n_tasks = if quick() { 2 } else { 6 };
    let max_new = if quick() { 8 } else { 12 };

    let suites = [
        ("GSM8K", baselines.gsm8k, TaskSuite::gsm8k_syn(n_tasks, 101)),
        ("BBH", baselines.bbh, TaskSuite::bbh_syn(n_tasks, 202)),
    ];

    println!("=== {label}: accuracy vs alpha (teacher-forced vs dense gold) ===\n");
    println!(
        "{:<22} {:>8} {:>8} {:>8} | {:>8} {:>8}",
        "method", "GSM8K", "BBH", "Average", "matchG", "matchB"
    );
    println!("{}", rule(72));

    // Baseline row: the dense model scores its paper baseline by definition.
    println!(
        "{:<22} {:>8.2} {:>8.2} {:>8.2} | {:>8.3} {:>8.3}",
        "Baseline (dense)",
        baselines.gsm8k,
        baselines.bbh,
        (baselines.gsm8k + baselines.bbh) / 2.0,
        1.0,
        1.0
    );

    let golds: Vec<Vec<Vec<u32>>> = suites
        .iter()
        .map(|(_, _, suite)| gold_continuations(model, suite, max_new))
        .collect();

    for alpha in ALPHA_GRID {
        let schedule = paper_schedule_for(alpha, model.config().hidden_dim, paper_dim);
        let mut engine = EngineBuilder::new(model)
            .signbit(schedule)
            .options(EngineOptions::sparseinfer())
            .build()
            .expect("signbit predictor covers every model layer");
        let mut results = Vec::new();
        for ((_, baseline, suite), gold) in suites.iter().zip(&golds) {
            results.push(teacher_forced_suite_score(
                engine.as_mut(),
                suite,
                gold,
                *baseline,
            ));
        }
        println!(
            "{:<22} {:>8.2} {:>8.2} {:>8.2} | {:>8.3} {:>8.3}",
            format!("SparseInfer a={alpha:.2}"),
            results[0].score,
            results[1].score,
            (results[0].score + results[1].score) / 2.0,
            results[0].match_rate,
            results[1].match_rate
        );
    }

    // E9: random selection at 90% sparsity (paper: 0% accuracy).
    let mut engine = EngineBuilder::new(model)
        .random(0.9, 7)
        .options(EngineOptions::sparseinfer())
        .build()
        .expect("random predictor covers every model layer");
    let mut results = Vec::new();
    for ((_, baseline, suite), gold) in suites.iter().zip(&golds) {
        results.push(teacher_forced_suite_score(
            engine.as_mut(),
            suite,
            gold,
            *baseline,
        ));
    }
    println!(
        "{:<22} {:>8.2} {:>8.2} {:>8.2} | (paper: 0% accuracy)",
        "Random 90% skip",
        results[0].score,
        results[1].score,
        (results[0].score + results[1].score) / 2.0
    );
    println!();
}

/// Prints a rule line of `width` dashes.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_configs_are_tokenizer_compatible() {
        // (Building the sim models is release-bench territory; the debug
        // test validates the configuration contract only.)
        for cfg in [ModelConfig::sim_13b(), ModelConfig::sim_7b()] {
            assert!(cfg.vocab_size >= sparseinfer::model::tokenizer::VOCAB_SIZE);
            cfg.validate().unwrap();
        }
        assert_eq!(ModelConfig::sim_13b().n_layers, 40);
        assert_eq!(ModelConfig::sim_7b().n_layers, 32);
    }

    #[test]
    fn paper_schedule_matches_paper_description() {
        // At paper scale the correction factor is 1: the schedule is exactly
        // the paper's (alpha on the first 20 layers, 1.0 after).
        let s = paper_schedule_for(1.03, 5120, 5120);
        assert_eq!(s.alpha_percent(0), 103);
        assert_eq!(s.alpha_percent(EARLY_LAYERS - 1), 103);
        assert_eq!(s.alpha_percent(EARLY_LAYERS), 100);
    }

    #[test]
    fn sim_alpha_preserves_threshold_strength() {
        // (alpha_sim − 1)·sqrt(d_sim) == (alpha_paper − 1)·sqrt(d_paper)
        let a = sim_alpha(1.03, 448, 5120);
        assert!(((a - 1.0) * (448f64).sqrt() - 0.03 * (5120f64).sqrt()).abs() < 1e-12);
        // Identity at equal dimensions.
        assert!((sim_alpha(1.02, 4096, 4096) - 1.02).abs() < 1e-12);
    }

    #[test]
    fn cell_formats_fixed_width() {
        assert_eq!(cell(1.2345, 8, 2), "    1.23");
    }
}
