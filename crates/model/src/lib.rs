//! ReLU-fied Llama-style transformer substrate for the SparseInfer
//! reproduction.
//!
//! The paper evaluates on ProSparse-Llama2-7B/13B — Llama-2 models whose SiLU
//! activations were replaced with ReLU and fine-tuned to ~90% activation
//! sparsity. Those weights are not available in this environment, so this
//! crate implements the *architecture* faithfully (RMSNorm → multi-head
//! attention with RoPE and a KV cache → RMSNorm → gated MLP, all with
//! residual connections) and pairs it with a **synthetic weight generator**
//! ([`generator`]) whose statistics are calibrated to the distributions the
//! paper observes:
//!
//! * MLP inputs `X` and gate rows `W_gate,i` are approximately Gaussian
//!   (paper Fig. 2) — the assumption the sign-bit predictor rests on;
//! * the fraction of gate pre-activations that are negative (≡ activation
//!   sparsity after ReLU) is calibrated per layer to a target (~90%,
//!   ProSparse's reported level);
//! * early layers reproduce the paper's pathology: `X` narrowly concentrated
//!   around zero, which makes sign-count prediction less precise there.
//!
//! The configuration presets carry both the *paper* dimensions (used by all
//! analytic op-count / memory / latency computations) and scaled *simulation*
//! dimensions (used to actually run tokens through the network on a CPU).
//!
//! # Example
//!
//! ```
//! use sparseinfer_model::{ModelConfig, generator::WeightGenerator};
//!
//! let cfg = ModelConfig::tiny();
//! let model = WeightGenerator::new(&cfg, 42).build();
//! let logits = model.prefill(&[1, 2, 3]);
//! assert_eq!(logits.len(), cfg.vocab_size);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod attention;
pub mod config;
pub mod generator;
pub mod kv;
pub mod layer;
pub mod mlp;
pub mod model;
pub mod norm;
pub mod prefill;
pub mod sampling;
pub mod tokenizer;
pub mod trace;

pub use activation::Activation;
pub use config::ModelConfig;
pub use kv::{KvBlockPool, KvDtype, PagedKvCache, PrefixHit, PrefixIndex, SharedKvBlock};
pub use layer::DecoderLayer;
pub use mlp::{gated_mlp_into, GatedMlp, MlpBuffers, MlpWeights};
pub use model::Model;
pub use prefill::{MlpHook, PrefillScratch, PromptChunk, PromptTokens, PREFILL_CHUNK};
pub use sampling::Sampler;
pub use tokenizer::ByteTokenizer;
pub use trace::MlpTrace;
