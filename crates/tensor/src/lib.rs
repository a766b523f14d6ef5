//! Numeric substrate for the SparseInfer reproduction.
//!
//! This crate provides the low-level building blocks every other crate in the
//! workspace is built on:
//!
//! * [`Vector`] and [`Matrix`] — dense, row-major `f32` containers sized for
//!   LLM decode workloads (matrix–vector products, not general BLAS).
//! * [`gemv`](mod@crate::gemv) — dense matrix–vector kernels (normal and
//!   transposed), the operation that dominates LLM decoding. Inner loops are
//!   chunked multi-accumulator form with a fixed reduction order shared by
//!   every execution path.
//! * [`attn`](mod@crate::attn) — the score and value-sum loops of one
//!   attention head over a run of cached positions: explicit AVX2 behind a
//!   bitwise scalar reference.
//! * [`workspace`](mod@crate::workspace) — recycled scratch buffers making
//!   steady-state decode allocation-free.
//! * [`pool`](mod@crate::pool) — a dependency-free persistent parked-worker
//!   thread pool that row-partitions kernels deterministically
//!   (bit-identical at any thread count) with allocation-free dispatch.
//! * [`sign`](mod@crate::sign) — the paper's key primitive: packing the sign bits
//!   of 32 consecutive `f32` elements into one `u32` word, plus the
//!   XOR/popcount machinery used by the training-free predictor.
//! * [`f16`](mod@crate::f16) and [`quant`](mod@crate::quant) — software half-precision
//!   and block INT8 quantization. Both preserve sign bits exactly, which is
//!   what makes the SparseInfer predictor quantization-robust (paper §IV-A).
//! * [`rng`](mod@crate::rng) — seeded Gaussian sampling (Box–Muller) so every
//!   experiment in the workspace is reproducible.
//! * [`stats`](mod@crate::stats) — histograms and moments used to regenerate the
//!   distribution plots (paper Fig. 2).
//!
//! # Example
//!
//! ```
//! use sparseinfer_tensor::{Matrix, Vector, gemv::gemv, sign::SignPack};
//!
//! let w = Matrix::from_fn(4, 64, |r, c| if (r + c) % 2 == 0 { 1.0 } else { -1.0 });
//! let x = Vector::from_fn(64, |i| (i as f32) - 31.5);
//! let y = gemv(&w, &x);
//! assert_eq!(y.len(), 4);
//!
//! // Pack the sign bits of a row and of the input, as the CUDA kernel does.
//! let row_signs = SignPack::pack(w.row(0));
//! let x_signs = SignPack::pack(x.as_slice());
//! let negatives = row_signs.xor_popcount(&x_signs);
//! assert!(negatives <= 64);
//! ```

// `deny`, not `forbid`: two modules carry a locally-allowed, documented
// pocket of `unsafe` — the parked-worker pool (feeding borrowed chunks to
// persistent threads, the same thing `std::thread::scope` does inside) and
// the attention kernel (unaligned vector loads and stores from checked
// slices). Every other module rejects `unsafe` outright.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attn;
pub mod f16;
pub mod gemv;
pub mod matrix;
pub mod pool;
pub mod quant;
pub mod rng;
pub mod sign;
pub mod stats;
pub mod vector;
pub mod workspace;

pub use f16::F16;
pub use matrix::{Matrix, WeightRows};
pub use pool::{ParallelOptions, ThreadPool};
pub use quant::BlockQuantizedMatrix;
pub use rng::Prng;
pub use sign::SignPack;
pub use vector::Vector;
pub use workspace::Workspace;

/// Errors produced by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// The operands of a product or element-wise operation disagree in length.
    DimensionMismatch {
        /// Length expected by the operation.
        expected: usize,
        /// Length actually provided.
        actual: usize,
    },
    /// A constructor was given a buffer whose length is not `rows * cols`.
    BadBuffer {
        /// Number of rows requested.
        rows: usize,
        /// Number of columns requested.
        cols: usize,
        /// Length of the provided buffer.
        len: usize,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            ShapeError::BadBuffer { rows, cols, len } => {
                write!(
                    f,
                    "buffer of length {len} cannot hold a {rows}x{cols} matrix"
                )
            }
        }
    }
}

impl std::error::Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_error_display_is_lowercase_and_concise() {
        let e = ShapeError::DimensionMismatch {
            expected: 4,
            actual: 3,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 4, got 3");
        let e = ShapeError::BadBuffer {
            rows: 2,
            cols: 3,
            len: 5,
        };
        assert_eq!(e.to_string(), "buffer of length 5 cannot hold a 2x3 matrix");
    }

    #[test]
    fn error_type_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShapeError>();
    }
}
