//! Accuracy evaluation harness (the substitute for lm-harness GSM8K/BBH runs;
//! see DESIGN.md §2).
//!
//! The paper's Tables II/III measure how much the sparse engine *degrades*
//! the model relative to its own dense baseline as a function of `alpha`.
//! With synthetic weights the absolute benchmark semantics are meaningless,
//! but the degradation mechanism is identical: mispredicted skips perturb
//! the MLP outputs, perturbed logits flip greedily decoded tokens, flipped
//! tokens change answers. We therefore score candidate engines against the
//! **dense model's greedy continuation as gold**:
//!
//! * [`tasks`] generates two prompt suites shaped like the paper's
//!   benchmarks — `gsm8k-syn` (few-shot arithmetic word problems) and
//!   `bbh-syn` (symbolic multi-step puzzles);
//! * [`harness`] decodes each prompt with the dense engine (gold) and the
//!   candidate engine, and reports exact-match and token-overlap rates;
//! * paper-style table scores are obtained by scaling the baseline scores
//!   (30.71 GSM8K / 44.80 BBH for 13B) by the measured match quality.
//!
//! The paper's sanity check — random skipping at 90% sparsity scores 0 —
//! falls out of the same pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;
pub mod tasks;

pub use harness::{evaluate_engine, teacher_forced_engine_matches, AccuracyReport, TaskOutcome};
pub use tasks::{EvalTask, TaskSuite};
