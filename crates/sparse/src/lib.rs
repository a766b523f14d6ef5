//! Sparse execution engine: exploiting predicted activation sparsity in the
//! gated MLP (paper §IV, §IV-B3/4), fronted by a unified serving-grade
//! engine API.
//!
//! Given a per-token [`SkipMask`](sparseinfer_predictor::SkipMask) from any
//! predictor, this crate executes the four MLP steps while skipping masked
//! rows of `W_gate`, `W_up` and (transposed) `W_down`:
//!
//! * [`gemv`](mod@crate::gemv) — row-skipping GEMV kernels mirroring the CUDA
//!   kernels of §IV-B3/4 (skipped row ⇒ the "warp" returns zero / skips its
//!   `atomicAdd`). One sparse GEMV and one sparse down projection, generic
//!   over the weight storage ([`WeightRows`](sparseinfer_tensor::WeightRows)):
//!   `f32` and block-quantized int8 are two instances of the same body.
//! * [`mlp`](mod@crate::mlp) — the one sparse gated-MLP executor (generic the
//!   same way) with the paper's two compensation/optimization switches:
//!   **actual sparsity** (union exact zeros found after step 1 into the mask
//!   used by steps 2–4) and **kernel fusion** (steps 1–3 in one kernel;
//!   affects memory traffic, which the [`ops`](mod@crate::ops) accounting and
//!   the GPU cost model track). Dense execution is this executor under the
//!   all-active mask.
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
pub mod gemv;
pub mod mlp;
pub mod ops;
pub mod quantized;
pub mod request;
pub mod scheduler;

pub use engine::{
    Engine, EngineBuilder, EngineOptions, MemoryEstimate, QuantizedWeights, SparsityStats,
    SpeculativeEngine, SpeculativeStats, StepBlock, WeightFormat,
};
pub use error::EngineError;
pub use mlp::SparseMlpOutput;
pub use ops::OpCounter;
pub use quantized::FusedQuantizedMlp;
pub use request::{FinishReason, GenerateRequest, Generation, TokenEvent};
pub use scheduler::{
    BatchEvent, BatchOutput, PrefixCacheStats, RequestHandle, Scheduler, SchedulerConfig,
};
