//! Engine construction and request errors.

/// Errors surfaced by [`EngineBuilder`](crate::engine::EngineBuilder) and
/// the request layer. Configuration mistakes are data, not panics, so a
/// serving frontend can reject a bad request without dying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The predictor covers a different number of layers than the model.
    LayerCountMismatch {
        /// Layers in the model.
        model_layers: usize,
        /// Layers the predictor covers.
        predictor_layers: usize,
    },
    /// A generate request arrived with an empty prompt.
    EmptyPrompt,
    /// The engine produced no logits to sample from (zero-sized
    /// vocabulary) — a degenerate model configuration, not a crash.
    EmptyVocab,
    /// A request's worst-case KV footprint (`prompt + max_new` tokens
    /// across every layer) exceeds the scheduler's total block budget: it
    /// could never be admitted, so [`submit`](crate::scheduler::Scheduler::submit)
    /// rejects it up front instead of queueing it forever. (Prefix
    /// sharing does not relax this bound — shared blocks dedupe memory
    /// *across* requests, but one request's shared-plus-private blocks
    /// all exist physically. Defensively, the same error can also
    /// surface as a [`FinishReason::Failed`](crate::request::FinishReason)
    /// if an accounting gap ever left an admitted head request unable to
    /// fit — failing one request instead of deadlocking the queue.)
    KvBudgetExceeded {
        /// Blocks the request needs in the worst case.
        required_blocks: usize,
        /// The scheduler's total KV block budget.
        budget_blocks: usize,
    },
    /// A speculative draft/verify pairing was invalid: the two engines
    /// must execute the *same* model (same weights, same tokenizer — the
    /// lossless-acceleration contract compares their logits position by
    /// position) and the draft length `k` must be at least 1.
    SpeculativeConfig {
        /// What was wrong with the pairing.
        reason: &'static str,
    },
    /// A shared quantized-weight set
    /// ([`QuantizedWeights`](crate::engine::QuantizedWeights)) was built
    /// from a different model than the engine executes — layer count or
    /// MLP dimensions disagree.
    QuantizedWeightsMismatch {
        /// What disagreed.
        reason: &'static str,
    },
    /// The engine's model uses a different KV dimension than the models
    /// already submitted to this scheduler. One scheduler pages every
    /// session out of one fixed-block-size [`KvBlockPool`](sparseinfer_model::kv::KvBlockPool),
    /// so all of its models must agree on the per-position KV width;
    /// [`submit`](crate::scheduler::Scheduler::submit) rejects the
    /// mismatch up front instead of panicking mid-decode.
    KvDimensionMismatch {
        /// KV dimension the scheduler's pool serves.
        scheduler_dim: usize,
        /// KV dimension of the submitted engine's model.
        model_dim: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::LayerCountMismatch {
                model_layers,
                predictor_layers,
            } => write!(
                f,
                "predictor/model layer count mismatch: model has {model_layers} layers, \
                 predictor covers {predictor_layers}"
            ),
            EngineError::EmptyPrompt => write!(f, "prompt must be non-empty"),
            EngineError::EmptyVocab => {
                write!(
                    f,
                    "engine produced no logits to sample from (empty vocabulary)"
                )
            }
            EngineError::KvBudgetExceeded {
                required_blocks,
                budget_blocks,
            } => write!(
                f,
                "request needs up to {required_blocks} KV blocks but the scheduler's \
                 budget is {budget_blocks}: it can never be admitted"
            ),
            EngineError::SpeculativeConfig { reason } => {
                write!(f, "invalid speculative draft/verify pairing: {reason}")
            }
            EngineError::QuantizedWeightsMismatch { reason } => {
                write!(
                    f,
                    "shared quantized weights do not fit this model: {reason}"
                )
            }
            EngineError::KvDimensionMismatch {
                scheduler_dim,
                model_dim,
            } => write!(
                f,
                "engine's model has KV dimension {model_dim} but this scheduler's \
                 pool serves dimension {scheduler_dim}: one scheduler pages one \
                 KV width"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_both_counts() {
        let e = EngineError::LayerCountMismatch {
            model_layers: 4,
            predictor_layers: 1,
        };
        let msg = e.to_string();
        assert!(msg.contains('4') && msg.contains('1'), "{msg}");
    }

    #[test]
    fn is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(EngineError::EmptyPrompt);
        assert_eq!(e.to_string(), "prompt must be non-empty");
    }
}
