//! Dense-gold accuracy evaluation.
//!
//! Candidate engines plug in through the unified
//! [`sparseinfer_sparse::Engine`] trait: [`evaluate_engine`] decodes
//! every task through the request layer, and
//! [`teacher_forced_engine_matches`] scores per-position argmax agreement
//! with dense prefill (the protocol behind the paper's Tables II/III).

use sparseinfer_model::{Model, PrefillScratch, PREFILL_CHUNK};
use sparseinfer_sparse::request::{generate, GenerateRequest};
use sparseinfer_sparse::Engine;
use sparseinfer_tensor::ThreadPool;

use crate::tasks::TaskSuite;

/// Outcome of one task: gold vs candidate continuation comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutcome {
    /// Task identifier.
    pub id: String,
    /// Whole-continuation exact match.
    pub exact: bool,
    /// Position-wise token overlap in `[0, 1]` (over the gold length).
    pub overlap: f64,
}

/// Aggregate accuracy of a candidate engine against the dense gold.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Per-task outcomes.
    pub outcomes: Vec<TaskOutcome>,
}

impl AccuracyReport {
    /// Fraction of tasks with exact-match continuations.
    pub fn exact_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.exact).count() as f64 / self.outcomes.len() as f64
    }

    /// Mean token overlap across tasks.
    pub fn mean_overlap(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.overlap).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Fraction of tasks counted correct at an overlap threshold — the
    /// tolerance for answer-preserving near-misses.
    pub fn match_rate(&self, threshold: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.exact || o.overlap >= threshold)
            .count() as f64
            / self.outcomes.len() as f64
    }
}

/// Greedy gold continuations for every task (dense decode).
pub fn gold_continuations(model: &Model, suite: &TaskSuite, max_new: usize) -> Vec<Vec<u32>> {
    suite
        .tasks
        .iter()
        .map(|t| model.generate_greedy(&t.tokens, max_new, sparseinfer_model::tokenizer::EOS))
        .collect()
}

/// Evaluates a candidate decoding function against precomputed gold
/// continuations. The candidate is any closure mapping a prompt to a
/// generated continuation (dense engine, SparseInfer at some alpha,
/// PowerInfer-style, random baseline, ...).
///
/// # Panics
///
/// Panics if `gold.len() != suite.len()`.
pub fn evaluate_against_gold(
    suite: &TaskSuite,
    gold: &[Vec<u32>],
    mut candidate: impl FnMut(&[u32]) -> Vec<u32>,
) -> AccuracyReport {
    assert_eq!(gold.len(), suite.len(), "gold/suite length mismatch");
    let outcomes = suite
        .tasks
        .iter()
        .zip(gold)
        .map(|(task, gold_tokens)| {
            let generated = candidate(&task.tokens);
            TaskOutcome {
                id: task.id.clone(),
                exact: &generated == gold_tokens,
                overlap: token_overlap(gold_tokens, &generated),
            }
        })
        .collect();
    AccuracyReport { outcomes }
}

/// Evaluates an [`Engine`] against precomputed gold continuations: each
/// task prompt is decoded greedily through the request layer with `eos` as
/// the stop token and `max_new` as the budget. The request pins the greedy
/// sampler explicitly, so an engine whose default sampler is stochastic is
/// still scored on its argmax decode (gold continuations are greedy).
///
/// # Panics
///
/// Panics if `gold.len() != suite.len()` or a task prompt is empty.
pub fn evaluate_engine(
    engine: &mut dyn Engine,
    suite: &TaskSuite,
    gold: &[Vec<u32>],
    max_new: usize,
    eos: u32,
) -> AccuracyReport {
    evaluate_against_gold(suite, gold, |prompt| {
        generate(
            engine,
            &GenerateRequest::new(prompt)
                .max_new(max_new)
                .stop_at(eos)
                .sampler(sparseinfer_model::Sampler::greedy()),
        )
        .expect("task prompts are non-empty")
        .tokens
    })
}

/// Position-wise overlap of `candidate` with `gold`, normalized by the gold
/// length. Empty gold counts as full overlap only if the candidate is empty
/// too.
pub fn token_overlap(gold: &[u32], candidate: &[u32]) -> f64 {
    if gold.is_empty() {
        return if candidate.is_empty() { 1.0 } else { 0.0 };
    }
    let matches = gold.iter().zip(candidate).filter(|(g, c)| g == c).count();
    matches as f64 / gold.len() as f64
}

/// Teacher-forced scoring of an [`Engine`]: the prompt is prefilled
/// *densely* up to its last token through [`Model::prefill_step`],
/// [`PREFILL_CHUNK`] positions per step (the paper exploits sparsity only
/// in decode), the last prompt token and every gold token go through the
/// engine, and each position is scored by whether the engine's argmax
/// reproduces the gold token.
///
/// Free-running comparison compounds a single flipped token into total
/// divergence, which is far harsher than what happens on a real LLM (whose
/// decoding is robust to small logit perturbations). Teacher forcing
/// measures the per-position flip probability caused by mispredicted skips —
/// the actual degradation mechanism the paper's alpha knob controls — while
/// keeping the comparison well-defined on a synthetic model.
///
/// # Panics
///
/// Panics if `prompt` is empty.
pub fn teacher_forced_engine_matches(
    engine: &mut dyn Engine,
    prompt: &[u32],
    gold: &[u32],
) -> Vec<bool> {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    let mut session = engine
        .model()
        .start_session_with_capacity(prompt.len() + gold.len());
    let (pool, mut scratch) = (ThreadPool::single(), PrefillScratch::new());
    for chunk in prompt[..prompt.len() - 1].chunks(PREFILL_CHUNK) {
        let batch = &mut [(chunk, &mut session)];
        engine.model().prefill_step(batch, &pool, &mut scratch);
    }
    // One recycled logits buffer for the whole teacher-forced pass.
    let mut logits = sparseinfer_tensor::Vector::zeros(0);
    engine.step_into(prompt[prompt.len() - 1], &mut session, &mut logits);
    let mut out = Vec::with_capacity(gold.len());
    for g in gold {
        let predicted = logits.argmax().expect("nonzero vocab") as u32;
        out.push(predicted == *g);
        engine.step_into(*g, &mut session, &mut logits);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::model::DecodeSession;
    use sparseinfer_model::ModelConfig;
    use sparseinfer_sparse::engine::EngineBuilder;
    use sparseinfer_sparse::OpCounter;
    use sparseinfer_tensor::Vector;

    fn small_suite() -> TaskSuite {
        TaskSuite::gsm8k_syn(4, 9)
    }

    fn sim_model() -> Model {
        // Tiny has vocab 64 < 259 needed by the byte tokenizer, so tests use
        // a slightly larger config.
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 300;
        WeightGenerator::new(&cfg, 55).build()
    }

    #[test]
    fn token_overlap_basics() {
        assert_eq!(token_overlap(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(token_overlap(&[1, 2, 3], &[1, 9, 3]), 2.0 / 3.0);
        assert_eq!(token_overlap(&[1, 2, 3], &[]), 0.0);
        assert_eq!(token_overlap(&[], &[]), 1.0);
        assert_eq!(token_overlap(&[], &[1]), 0.0);
    }

    #[test]
    fn dense_candidate_scores_perfectly() {
        let model = sim_model();
        let suite = small_suite();
        let gold = gold_continuations(&model, &suite, 8);
        let report = evaluate_against_gold(&suite, &gold, |prompt| {
            model.generate_greedy(prompt, 8, sparseinfer_model::tokenizer::EOS)
        });
        assert_eq!(report.exact_rate(), 1.0);
        assert_eq!(report.mean_overlap(), 1.0);
        assert_eq!(report.match_rate(0.85), 1.0);
    }

    #[test]
    fn oracle_sparse_candidate_scores_perfectly() {
        let model = sim_model();
        let suite = small_suite();
        let gold = gold_continuations(&model, &suite, 8);
        let mut engine = EngineBuilder::new(&model).oracle().build().unwrap();
        let report = evaluate_engine(
            engine.as_mut(),
            &suite,
            &gold,
            8,
            sparseinfer_model::tokenizer::EOS,
        );
        assert_eq!(report.exact_rate(), 1.0, "oracle masking must be lossless");
    }

    #[test]
    fn random_ninety_percent_skipping_scores_near_zero() {
        // Paper §V-C: random selection at 90% sparsity → 0% accuracy.
        let model = sim_model();
        let suite = small_suite();
        let gold = gold_continuations(&model, &suite, 8);
        let mut engine = EngineBuilder::new(&model).random(0.9, 3).build().unwrap();
        let report = evaluate_engine(
            engine.as_mut(),
            &suite,
            &gold,
            8,
            sparseinfer_model::tokenizer::EOS,
        );
        assert_eq!(report.exact_rate(), 0.0);
        assert!(
            report.mean_overlap() < 0.5,
            "overlap {}",
            report.mean_overlap()
        );
        assert_eq!(report.match_rate(0.85), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_gold_panics() {
        let suite = small_suite();
        let _ = evaluate_against_gold(&suite, &[], |_| vec![]);
    }

    #[test]
    fn teacher_forcing_dense_model_matches_itself_exactly() {
        let model = sim_model();
        let prompt = [1u32, 2, 3];
        let gold = model.generate_greedy(&prompt, 6, u32::MAX);
        let mut engine = EngineBuilder::new(&model).build().unwrap();
        let matches = teacher_forced_engine_matches(engine.as_mut(), &prompt, &gold);
        assert_eq!(matches.len(), gold.len());
        assert!(
            matches.iter().all(|m| *m),
            "dense vs itself must agree everywhere"
        );
    }

    /// Scores every position as the same token, whatever it is fed.
    #[derive(Debug)]
    struct ConstantEngine<'m> {
        model: &'m Model,
        token: u32,
        ops: OpCounter,
    }

    impl Engine for ConstantEngine<'_> {
        fn model(&self) -> &Model {
            self.model
        }

        fn score_block_into(
            &mut self,
            tokens: &[u32],
            session: &mut DecodeSession,
            logits: &mut [Vector],
        ) {
            session.position += tokens.len();
            for out in logits {
                *out = Vector::zeros(self.model.config().vocab_size);
                out[self.token as usize] = 1.0;
            }
        }

        fn ops(&self) -> &OpCounter {
            &self.ops
        }

        fn reset_ops(&mut self) {}

        fn name(&self) -> &str {
            "constant"
        }
    }

    #[test]
    fn teacher_forcing_counts_flips_without_cascade() {
        // A candidate that parrots a constant token matches gold exactly at
        // the positions where gold happens to be that token — teacher
        // forcing localizes errors instead of cascading them.
        let model = sim_model();
        let prompt = [4u32, 5];
        let gold = model.generate_greedy(&prompt, 6, u32::MAX);
        let mut engine = ConstantEngine {
            model: &model,
            token: gold[1],
            ops: OpCounter::default(),
        };
        let matches = teacher_forced_engine_matches(&mut engine, &prompt, &gold);
        let expected: Vec<bool> = gold.iter().map(|g| *g == gold[1]).collect();
        assert_eq!(matches, expected);
    }

    #[test]
    #[should_panic(expected = "prompt must be non-empty")]
    fn teacher_forcing_rejects_empty_prompt() {
        let model = sim_model();
        let mut engine = EngineBuilder::new(&model).build().unwrap();
        let _ = teacher_forced_engine_matches(engine.as_mut(), &[], &[1]);
    }
}
