//! Analytic GPU cost model for the SparseInfer reproduction.
//!
//! The paper's latency results were measured on an NVIDIA Jetson Orin AGX
//! 64GB. No such device exists in this environment, so latency experiments
//! run against this cost model instead (see DESIGN.md §2). The model is the
//! standard roofline treatment of decode-phase LLM kernels, which are
//! overwhelmingly **memory-bandwidth bound**:
//!
//! ```text
//! kernel latency = launch overhead
//!                + max( bytes_moved / effective_bandwidth ,
//!                       ops / engine_throughput )
//! ```
//!
//! with three refinements that matter for this paper:
//!
//! * **streamed vs gathered traffic** — dense GEMVs stream whole matrices at
//!   high DRAM efficiency; sparse row-skipping GEMVs visit scattered rows at
//!   markedly lower efficiency (row granularity beats element granularity,
//!   but loses to a full stream);
//! * **engine split** — bitwise XOR/popcount runs on CUDA cores while the
//!   DejaVu predictor's FP16 GEMMs run on tensor cores (the paper notes this
//!   is why its 8.8× op reduction yields "only" 3.66× predictor speedup);
//! * **kernel-launch overhead and CKE** — per-kernel fixed cost, with
//!   [`timeline`] able to overlap steps 1 and 2 on concurrent streams (the
//!   paper's CKE discussion) or fuse them (the `+KF` variant).
//!
//! Calibration anchors (tested in [`latency`]): the SparseInfer predictor
//! costs ≈ 70 µs/layer on 13B dims, ~3.5–4× faster than the DejaVu
//! predictor, dense 13B decode sits in the 100–250 ms/token band with an
//! attention share near the paper's 38%/62% profile.
//!
//! # Example
//!
//! ```
//! use sparseinfer_gpu_sim::{spec::GpuSpec, latency};
//! use sparseinfer_model::ModelConfig;
//!
//! let spec = GpuSpec::jetson_orin_agx_64gb();
//! let cfg = ModelConfig::prosparse_13b_paper();
//! let dense = latency::dense_token_latency(&spec, &cfg);
//! assert!(dense.total_us() > 50_000.0); // decode is slow on an SoC
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod kernel;
pub mod latency;
pub mod spec;
pub mod timeline;

pub use kernel::KernelDesc;
pub use latency::{MlpStepSparsity, TokenLatency};
pub use spec::GpuSpec;
