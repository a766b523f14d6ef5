//! Sparse execution engine: exploiting predicted activation sparsity in the
//! gated MLP (paper §IV, §IV-B3/4), fronted by a unified serving-grade
//! engine API.
//!
//! Given a per-token [`SkipMask`](sparseinfer_predictor::SkipMask) from any
//! predictor, this crate executes the four MLP steps while skipping masked
//! rows of `W_gate`, `W_up` and (transposed) `W_down`:
//!
//! * [`mlp`](mod@crate::mlp) — the gated MLP under a predicted mask: the
//!   model crate's one executor
//!   ([`gated_mlp_into`](sparseinfer_model::gated_mlp_into), whose
//!   row-skipping kernels mirror §IV-B3/4's CUDA kernels), for `f32` or
//!   int8 weights, and the bill of the work. Its switches are the paper's
//!   **actual sparsity** (exact zeros found after step 1 join the mask of
//!   steps 2–4) and **kernel fusion** (steps 1–3 in one kernel; affects
//!   only the [`ops`](mod@crate::ops) traffic accounting). Dense execution
//!   is the all-active mask.
//! * [`quantized`](mod@crate::quantized) — the int8 storage of one MLP block;
//!   no execution code of its own.
//! * [`engine`](mod@crate::engine) — the [`Engine`] trait (one object-safe
//!   interface for dense, sign-bit, DejaVu, oracle and random execution)
//!   and the [`EngineBuilder`] that constructs every configuration,
//!   returning [`EngineError`] values instead of panicking. One engine
//!   implementation serves them all: dense is the no-predictor case.
//! * [`request`](mod@crate::request) — [`GenerateRequest`]s, seeded
//!   [`Sampler`](sparseinfer_model::Sampler) policies, streaming per-token
//!   callbacks.
//! * [`scheduler`](mod@crate::scheduler) — **the serving entry point**: a
//!   continuous-batching [`Scheduler`] over a paged KV cache
//!   ([`KvBlockPool`](sparseinfer_model::kv::KvBlockPool)). Requests
//!   [`submit`](Scheduler::submit) at any time (including mid-run), are
//!   admitted FIFO under `max_slots` and a KV-block budget, can be
//!   cancelled through a [`RequestHandle`], and release their KV blocks
//!   the moment they finish. Requests sharing a prompt prefix share its
//!   KV blocks (copy-on-write, refcounted) through a
//!   [`PrefixIndex`](sparseinfer_model::kv::PrefixIndex), skipping the
//!   shared prefill work — bit-identically to cold decode.
//!   Offline evaluation pre-loads one built on
//!   [`SchedulerConfig::unbounded`] and calls [`run`](Scheduler::run).
//! * [`ops`](mod@crate::ops) — operation and byte accounting that regenerates
//!   Table I.
//!
//! # Example
//!
//! ```
//! use sparseinfer_model::{ModelConfig, generator::WeightGenerator};
//! use sparseinfer_predictor::AlphaSchedule;
//! use sparseinfer_sparse::engine::EngineBuilder;
//! use sparseinfer_sparse::request::{generate, GenerateRequest};
//!
//! let model = WeightGenerator::new(&ModelConfig::tiny(), 1).build();
//! let mut engine = EngineBuilder::new(&model)
//!     .signbit(AlphaSchedule::uniform(1.0))
//!     .build()
//!     .unwrap();
//! let gen = generate(engine.as_mut(), &GenerateRequest::new(&[1, 2]).max_new(4)).unwrap();
//! assert_eq!(gen.tokens.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cats;
pub mod engine;
pub mod error;
pub mod mlp;
pub mod ops;
pub mod quantized;
pub mod request;
pub mod scheduler;
mod step;

pub use engine::{
    ColumnStage, Engine, EngineBuilder, EngineOptions, MemoryEstimate, QuantizedWeights,
    SparsityStats, SpeculativeEngine, SpeculativeStats, StepBlock, WeightFormat,
};
pub use error::EngineError;
pub use ops::OpCounter;
pub use quantized::FusedQuantizedMlp;
pub use request::{FinishReason, GenerateRequest, Generation, TokenEvent};
pub use scheduler::{
    BatchEvent, BatchOutput, PrefixCacheStats, RequestHandle, Scheduler, SchedulerConfig,
};
