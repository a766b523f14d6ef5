//! # SparseInfer — training-free activation sparsity for fast LLM inference
//!
//! A from-scratch Rust reproduction of *SparseInfer: Training-free Prediction
//! of Activation Sparsity for Fast LLM Inference* (Shin, Yang, Yi — DATE
//! 2025). This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `sparseinfer-tensor` | vectors/matrices, GEMV, **sign-bit packing**, f16/int8, RNG, stats |
//! | [`model`] | `sparseinfer-model` | ReLU-fied Llama-style decoder, paged KV block pool, sparsity-calibrated synthetic weights, samplers |
//! | [`predictor`] | `sparseinfer-predictor` | the **sign-bit predictor**, alpha schedules, DejaVu baseline, oracle/random, metrics |
//! | [`sparse`] | `sparseinfer-sparse` | sparse GEMVs and MLPs, the unified **`Engine` API**, request layer, the **continuous-batching scheduler**, op accounting |
//! | [`gpu_sim`] | `sparseinfer-gpu-sim` | Jetson Orin AGX roofline cost model: kernels, CKE, per-token latency |
//! | [`eval`] | `sparseinfer-eval` | synthetic GSM8K/BBH-analog suites, dense-gold accuracy |
//! | [`json`] | (this crate) | dependency-free JSON value tree, parser and writer, shared by the HTTP serving frontend and the `benchmark/` package |
//! | [`stats`] | (this crate) | the single JSON encoding of [`SchedulerStats`](sparse::scheduler::SchedulerStats), served by `/stats` |
//!
//! # Quickstart
//!
//! Every execution configuration — dense baseline, sign-bit SparseInfer,
//! trained DejaVu, oracle, random — is built through one
//! [`EngineBuilder`](sparse::engine::EngineBuilder) and served through one
//! request layer:
//!
//! ```
//! use sparseinfer::model::{generator::WeightGenerator, ModelConfig};
//! use sparseinfer::predictor::AlphaSchedule;
//! use sparseinfer::sparse::engine::EngineBuilder;
//! use sparseinfer::sparse::request::{generate, GenerateRequest};
//!
//! // A ReLU-fied model with ~92% activation sparsity.
//! let model = WeightGenerator::new(&ModelConfig::tiny(), 42).build();
//!
//! // The training-free predictor: packed sign bits + XOR/popcount,
//! // validated by the builder (layer mismatches are `Err`, not panics).
//! let mut engine = EngineBuilder::new(&model)
//!     .signbit(AlphaSchedule::early_layers(1.02, 1))
//!     .build()
//!     .expect("predictor covers every layer");
//!
//! // Decode with sparsity exploitation (kernel fusion + actual sparsity).
//! let req = GenerateRequest::new(&[1, 2, 3]).max_new(8);
//! let generation = generate(engine.as_mut(), &req).expect("non-empty prompt");
//! assert_eq!(generation.tokens.len(), 8);
//! println!("skipped {} rows", engine.ops().rows_skipped);
//! ```
//!
//! # Serving
//!
//! The serving entry point is the continuous-batching
//! [`Scheduler`](sparse::scheduler::Scheduler) over a paged KV cache:
//! requests [`submit`](sparse::scheduler::Scheduler::submit) at any time
//! (including while others are mid-decode), are admitted FIFO under
//! `max_slots` and a KV-block budget, stream tokens per tick, can be
//! cancelled through their [`RequestHandle`](sparse::scheduler::RequestHandle),
//! and release their KV blocks the moment they finish. Each request's
//! tokens are bit-identical to running it alone:
//!
//! ```
//! use sparseinfer::model::{generator::WeightGenerator, ModelConfig, Sampler};
//! use sparseinfer::predictor::AlphaSchedule;
//! use sparseinfer::sparse::engine::EngineBuilder;
//! use sparseinfer::sparse::request::GenerateRequest;
//! use sparseinfer::sparse::scheduler::{Scheduler, SchedulerConfig};
//!
//! let model = WeightGenerator::new(&ModelConfig::tiny(), 42).build();
//! let mut scheduler = Scheduler::new(SchedulerConfig {
//!     max_slots: 2,            // concurrent decode slots
//!     block_tokens: 16,        // paged-KV granularity
//!     kv_block_budget: 1024,   // admission-control memory cap
//!     ..SchedulerConfig::default() // prefix cache on, default retention
//! });
//! let dense = EngineBuilder::new(&model).build().unwrap();
//! let sparse = EngineBuilder::new(&model).signbit(AlphaSchedule::uniform(1.0)).build().unwrap();
//! scheduler.submit(dense, &GenerateRequest::new(&[1, 2]).max_new(4)).unwrap();
//! let handle = scheduler.submit(
//!     sparse,
//!     &GenerateRequest::new(&[3, 4]).max_new(4).sampler(Sampler::top_k(8, 0.7, 7)),
//! ).unwrap();
//! assert_eq!(handle.id(), 1); // cancel mid-stream with handle.cancel()
//! for out in scheduler.run() {
//!     println!("request {} via {}: {:?} ({} MACs)", out.id, out.engine, out.tokens, out.ops.macs);
//! }
//! ```
//!
//! Offline evaluation workloads (push everything, then `run()`) build the
//! scheduler on [`SchedulerConfig::unbounded`](sparse::scheduler::SchedulerConfig::unbounded).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod stats;

pub use sparseinfer_eval as eval;
pub use sparseinfer_gpu_sim as gpu_sim;
pub use sparseinfer_model as model;
pub use sparseinfer_predictor as predictor;
pub use sparseinfer_sparse as sparse;
pub use sparseinfer_tensor as tensor;
