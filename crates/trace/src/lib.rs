//! Seeded traces, their deterministic replay through the scheduler, and
//! capacity planning for the SparseInfer serving stack. Nothing in this
//! crate reads a clock: wall-clock serving latency is `benchmark/`'s.
//!
//! Three pieces, composing front to back:
//!
//! 1. [`spec`] — a seeded [`TraceSpec`] describing a workload
//!    *population* (arrival process, prompt/output length mix,
//!    shared-prefix mix, priority mix, cancellation rate) that expands
//!    deterministically into a concrete [`Workload`]: the same seed
//!    always yields the same request sequence.
//! 2. [`replay`](mod@replay) — a driver that feeds a workload through
//!    the library's continuous-batching
//!    [`Scheduler`](sparseinfer::sparse::scheduler::Scheduler) and
//!    yields one [`RequestRecord`] per request plus an [`SloReport`]:
//!    queue-wait, preemption and KV-headroom numbers derived from the
//!    scheduler's deterministic tick stamps (identical on every host and
//!    at every slot-thread count).
//! 3. [`project`](mod@project) — replays the *measured* per-request
//!    residencies through the [`gpu_sim`](sparseinfer::gpu_sim)
//!    roofline model to project what the same trace would cost on a
//!    real device ([`GpuSpec`](sparseinfer::gpu_sim::GpuSpec)) — the
//!    capacity-planning half: what would this offered load cost on a
//!    Jetson Orin?
//!
//! ```
//! use sparseinfer::model::{generator::WeightGenerator, ModelConfig};
//! use sparseinfer::sparse::engine::EngineBuilder;
//! use sparseinfer::sparse::scheduler::SchedulerConfig;
//! use sparseinfer_trace::replay::{replay, ReplayConfig};
//! use sparseinfer_trace::spec::TraceSpec;
//!
//! let model = WeightGenerator::new(&ModelConfig::tiny(), 42).build();
//! // Token ids must fit the serving model's vocabulary.
//! let workload = TraceSpec::steady(7).requests(6).vocab(64).generate();
//! let config = ReplayConfig {
//!     scheduler: SchedulerConfig::builder().max_slots(2).build().unwrap(),
//!     ..ReplayConfig::default()
//! };
//! let outcome = replay(&workload, &config, |_| {
//!     EngineBuilder::new(&model).build().unwrap()
//! });
//! assert_eq!(outcome.report.requests, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod project;
pub mod replay;
pub mod spec;

pub use project::{project, CostModel, Projection};
pub use replay::{replay, ReplayConfig, ReplayOutcome, RequestRecord, SloReport};
pub use spec::{
    ArrivalProcess, LengthMix, PrefixMix, PriorityMix, TraceRequest, TraceSpec, Workload,
};
