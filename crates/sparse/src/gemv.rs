//! Row-skipping GEMV kernels (the CPU analogues of §IV-B3/4's CUDA kernels).
//!
//! One body per algorithm, generic over the weight storage
//! ([`WeightRows`]): the same sparse GEMV and the same sparse down
//! projection run on `f32` matrices and on block-quantized int8 matrices,
//! because a storage format only changes how a weight row is *read* — "as
//! long as the sign bit can be extracted" (§IV-A). Dispatch is static: each
//! format gets its own monomorphized instance, and the int8 one performs
//! exactly the arithmetic the `f32` one would over the dequantized weights.
//!
//! The `*_into` forms are the serving hot path: they write into
//! caller-provided buffers (recycled through a
//! [`Workspace`](sparseinfer_tensor::Workspace)), reduce through the
//! format's fixed-order dot product ([`WeightRows::dot_row_batch`]), and
//! row/column-partition across a [`ThreadPool`] with one writer per output
//! element — so dense vs sparse, sequential vs parallel, allocating vs
//! workspace paths are all bit-identical. The original allocating
//! signatures survive as thin wrappers.

use sparseinfer_predictor::SkipMask;
use sparseinfer_tensor::gemv::gemm_rows_into;
use sparseinfer_tensor::{Matrix, ThreadPool, Vector, WeightRows};

use crate::ops::OpCounter;

/// Minimum output columns per worker before the down projection fans out.
const MIN_COLS_PER_WORKER: usize = 64;

/// Sparse GEMV: `y[r] = W_r · x` for active rows, `y[r] = 0` for skipped
/// rows. Mirrors the paper's sparse GEMV kernel, where a warp assigned a
/// skipped row "immediately returns 0 without any computation" — in
/// particular the row's weights are never *loaded*, which is where the
/// memory-bound speedup comes from. Thin wrapper over
/// [`sparse_gemv_into`].
///
/// # Panics
///
/// Panics if `mask.len() != w.rows()` or `x.len() != w.cols()`.
pub fn sparse_gemv(w: &Matrix, x: &Vector, mask: &SkipMask, ops: &mut OpCounter) -> Vector {
    let mut out = Vector::zeros(0);
    sparse_gemv_into(w, x, mask, &ThreadPool::single(), ops, &mut out);
    out
}

/// [`sparse_gemv`] into a caller-provided buffer: [`gemm_rows_into`] with
/// one activation column and the mask as its row filter, so rows partition
/// across `pool` under that kernel's one fan-out rule. Every output slot is
/// written exactly once — the dot product for active rows, `0.0` for
/// skipped rows (whose weights are never loaded). Weight traffic is counted
/// at the format's
/// [`ACCOUNTED_BYTES`](WeightRows::ACCOUNTED_BYTES) per element (int8: one
/// byte, the 4× shrink is the point).
///
/// # Panics
///
/// Panics if `mask.len() != w.rows()` or `x.len() != w.cols()`.
pub fn sparse_gemv_into<W: WeightRows>(
    w: &W,
    x: &Vector,
    mask: &SkipMask,
    pool: &ThreadPool,
    ops: &mut OpCounter,
    out: &mut Vector,
) {
    assert_eq!(mask.len(), w.rows(), "mask/rows mismatch");
    assert_eq!(x.len(), w.cols(), "input length mismatch");
    gemm_rows_into(w, x.as_slice(), 1, |r| !mask.is_skipped(r), pool, out);
    let active_rows = (w.rows() - mask.skip_count()) as u64;
    ops.macs += active_rows * w.cols() as u64;
    ops.weight_bytes_loaded += active_rows * w.cols() as u64 * W::ACCOUNTED_BYTES;
    ops.rows_computed += active_rows;
    ops.rows_skipped += (w.rows() as u64) - active_rows;
}

/// Sparse transposed-weight accumulation for the down projection (step 4):
/// `y += W_down_t[r] · h3[r]` for every *active* row `r`. `W_down` was
/// transposed at load time so sparsity skips whole rows; on the GPU each
/// active row's contribution is an `atomicAdd`, a skipped row simply returns
/// (§IV-B4). Thin wrapper over [`sparse_down_proj_into`].
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn sparse_down_proj(
    w_down_t: &Matrix,
    h3: &Vector,
    mask: &SkipMask,
    ops: &mut OpCounter,
) -> Vector {
    let mut out = Vector::zeros(0);
    sparse_down_proj_into(w_down_t, h3, mask, &ThreadPool::single(), ops, &mut out);
    out
}

/// [`sparse_down_proj`] into a caller-provided buffer, partitioned across
/// `pool` by *output column*: each worker accumulates its column range over
/// the active rows in ascending order, so every output element sees the
/// exact same addition sequence regardless of thread count (single writer,
/// fixed order — the CPU stand-in for the GPU's deterministic-sum concern
/// around `atomicAdd`). Each worker reads its column range of a row through
/// [`WeightRows::row_span`]; for int8 that read dequantizes with the scale
/// of the element's *global* column, so results are independent of how the
/// output range is chunked.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn sparse_down_proj_into<W: WeightRows>(
    w_down_t: &W,
    h3: &Vector,
    mask: &SkipMask,
    pool: &ThreadPool,
    ops: &mut OpCounter,
    out: &mut Vector,
) {
    assert_eq!(mask.len(), w_down_t.rows(), "mask/rows mismatch");
    assert_eq!(h3.len(), w_down_t.rows(), "h3 length mismatch");
    out.resize(w_down_t.cols(), 0.0);
    pool.run_chunks(out.as_mut_slice(), MIN_COLS_PER_WORKER, |offset, chunk| {
        chunk.fill(0.0);
        // Active rows are applied in blocks of four per pass over the
        // output chunk: one load/store of each output element per four
        // rows instead of per row. The per-element addition chain stays
        // strictly row-ascending (acc += w_r·h3_r one row at a time), so
        // the result is bit-identical to the row-at-a-time form.
        let mut pending = [(0usize, 0.0f32); 4];
        let mut n = 0usize;
        let mut apply = |pending: &[(usize, f32)]| match *pending {
            [(r0, s0), (r1, s1), (r2, s2), (r3, s3)] => {
                let row0 = w_down_t.row_span(r0, offset, chunk.len());
                let row1 = w_down_t.row_span(r1, offset, chunk.len());
                let row2 = w_down_t.row_span(r2, offset, chunk.len());
                let row3 = w_down_t.row_span(r3, offset, chunk.len());
                for (i, o) in chunk.iter_mut().enumerate() {
                    let mut acc = *o;
                    acc += row0(i) * s0;
                    acc += row1(i) * s1;
                    acc += row2(i) * s2;
                    acc += row3(i) * s3;
                    *o = acc;
                }
            }
            ref rest => {
                for &(r, s) in rest {
                    let row = w_down_t.row_span(r, offset, chunk.len());
                    for (i, o) in chunk.iter_mut().enumerate() {
                        *o += row(i) * s;
                    }
                }
            }
        };
        for r in 0..w_down_t.rows() {
            if mask.is_skipped(r) {
                continue;
            }
            pending[n] = (r, h3[r]);
            n += 1;
            if n == 4 {
                apply(&pending);
                n = 0;
            }
        }
        apply(&pending[..n]);
    });
    let active_rows = (w_down_t.rows() - mask.skip_count()) as u64;
    ops.macs += active_rows * w_down_t.cols() as u64;
    ops.weight_bytes_loaded += active_rows * w_down_t.cols() as u64 * W::ACCOUNTED_BYTES;
    ops.atomic_adds += active_rows * w_down_t.cols() as u64;
    ops.rows_computed += active_rows;
    ops.rows_skipped += (w_down_t.rows() as u64) - active_rows;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_tensor::gemv::{gemv, gemv_transposed};
    use sparseinfer_tensor::{BlockQuantizedMatrix, Prng};

    fn random_case(seed: u64, k: usize, d: usize) -> (Matrix, Vector) {
        let mut rng = Prng::seed(seed);
        let w = Matrix::from_fn(k, d, |_, _| rng.normal(0.0, 1.0) as f32);
        let x = Vector::from_fn(d, |_| rng.normal(0.0, 1.0) as f32);
        (w, x)
    }

    #[test]
    fn all_dense_mask_matches_dense_gemv() {
        let (w, x) = random_case(1, 12, 8);
        let mask = SkipMask::all_dense(12);
        let mut ops = OpCounter::default();
        let sparse = sparse_gemv(&w, &x, &mask, &mut ops);
        let dense = gemv(&w, &x);
        for (a, b) in sparse.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(ops.macs, 12 * 8);
        assert_eq!(ops.rows_skipped, 0);
    }

    #[test]
    fn skipped_rows_are_exactly_zero_and_unloaded() {
        let (w, x) = random_case(2, 10, 8);
        let mask = SkipMask::from_fn(10, |r| r % 2 == 1);
        let mut ops = OpCounter::default();
        let y = sparse_gemv(&w, &x, &mask, &mut ops);
        let dense = gemv(&w, &x);
        for r in 0..10 {
            if r % 2 == 1 {
                assert_eq!(y[r], 0.0);
            } else {
                assert!((y[r] - dense[r]).abs() < 1e-6);
            }
        }
        assert_eq!(ops.macs, 5 * 8);
        assert_eq!(ops.weight_bytes_loaded, 5 * 8 * OpCounter::WEIGHT_BYTES);
        assert_eq!(ops.rows_skipped, 5);
    }

    #[test]
    fn all_skipped_gemv_is_free() {
        let (w, x) = random_case(3, 6, 4);
        let mut ops = OpCounter::default();
        let y = sparse_gemv(&w, &x, &SkipMask::all_skipped(6), &mut ops);
        assert!(y.iter().all(|v| *v == 0.0));
        assert_eq!(ops.macs, 0);
        assert_eq!(ops.weight_bytes_loaded, 0);
    }

    #[test]
    fn down_proj_matches_transposed_gemv_when_dense() {
        let (w, _) = random_case(4, 9, 5);
        let mut rng = Prng::seed(5);
        let h3 = Vector::from_fn(9, |_| rng.normal(0.0, 1.0) as f32);
        let mut ops = OpCounter::default();
        let sparse = sparse_down_proj(&w, &h3, &SkipMask::all_dense(9), &mut ops);
        let dense = gemv_transposed(&w, &h3);
        for (a, b) in sparse.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert_eq!(ops.atomic_adds, 9 * 5);
    }

    #[test]
    fn down_proj_with_mask_equals_dense_on_zeroed_h3() {
        // Skipping row r is mathematically identical to h3[r] = 0.
        let (w, _) = random_case(6, 9, 5);
        let mut rng = Prng::seed(7);
        let h3 = Vector::from_fn(9, |_| rng.normal(0.0, 1.0) as f32);
        let mask = SkipMask::from_fn(9, |r| r < 3);

        let mut ops = OpCounter::default();
        let masked = sparse_down_proj(&w, &h3, &mask, &mut ops);

        let mut h3_zeroed = h3.clone();
        for r in 0..3 {
            h3_zeroed[r] = 0.0;
        }
        let reference = gemv_transposed(&w, &h3_zeroed);
        for (a, b) in masked.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn into_variants_are_bitwise_identical_across_thread_counts() {
        use sparseinfer_tensor::ParallelOptions;
        let (w, x) = random_case(9, 300, 96);
        let mask = SkipMask::from_fn(300, |r| r % 3 == 0);
        let mut rng = Prng::seed(10);
        let h3 = Vector::from_fn(300, |_| rng.normal(0.0, 1.0) as f32);

        let mut ops = OpCounter::default();
        let gemv_seq = sparse_gemv(&w, &x, &mask, &mut ops);
        let down_seq = sparse_down_proj(&w, &h3, &mask, &mut ops);
        for threads in [2, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            let mut ops_p = OpCounter::default();
            let mut a = Vector::zeros(0);
            sparse_gemv_into(&w, &x, &mask, &pool, &mut ops_p, &mut a);
            assert_eq!(a, gemv_seq, "sparse_gemv @ {threads} threads");
            let mut b = Vector::zeros(0);
            sparse_down_proj_into(&w, &h3, &mask, &pool, &mut ops_p, &mut b);
            assert_eq!(b, down_seq, "sparse_down_proj @ {threads} threads");
        }
    }

    #[test]
    fn q8_into_variants_are_bitwise_identical_across_thread_counts() {
        use sparseinfer_tensor::ParallelOptions;
        let (w, x) = random_case(19, 300, 96);
        let q = BlockQuantizedMatrix::quantize(&w);
        let mask = SkipMask::from_fn(300, |r| r % 3 == 0);
        let mut rng = Prng::seed(20);
        let h3 = Vector::from_fn(300, |_| rng.normal(0.0, 1.0) as f32);

        let single = ThreadPool::single();
        let mut ops = OpCounter::default();
        let mut gemv_seq = Vector::zeros(0);
        sparse_gemv_into(&q, &x, &mask, &single, &mut ops, &mut gemv_seq);
        let mut down_seq = Vector::zeros(0);
        sparse_down_proj_into(&q, &h3, &mask, &single, &mut ops, &mut down_seq);
        for threads in [2, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            let mut ops_p = OpCounter::default();
            let mut a = Vector::zeros(0);
            sparse_gemv_into(&q, &x, &mask, &pool, &mut ops_p, &mut a);
            assert_eq!(a, gemv_seq, "sparse_gemv_q8 @ {threads} threads");
            let mut b = Vector::zeros(0);
            sparse_down_proj_into(&q, &h3, &mask, &pool, &mut ops_p, &mut b);
            assert_eq!(b, down_seq, "sparse_down_proj_q8 @ {threads} threads");
        }
    }

    #[test]
    fn q8_kernels_are_bitwise_equal_to_f32_kernels_over_the_dequantized_weights() {
        // The determinism contract for the quantized route: each q8 kernel
        // produces exactly the result the f32 kernel would produce on the
        // dequantized weights — quantization changes *values* once, at
        // weight-prep time, never the reduction arithmetic.
        let (w, x) = random_case(21, 200, 96);
        let q = BlockQuantizedMatrix::quantize(&w);
        let deq = q.dequantize();
        let mask = SkipMask::from_fn(200, |r| r % 4 == 0);
        let mut rng = Prng::seed(22);
        let h3 = Vector::from_fn(200, |_| rng.normal(0.0, 1.0) as f32);

        let pool = ThreadPool::single();
        let mut ops = OpCounter::default();
        let mut got = Vector::zeros(0);
        sparse_gemv_into(&q, &x, &mask, &pool, &mut ops, &mut got);
        let mut want = Vector::zeros(0);
        sparse_gemv_into(&deq, &x, &mask, &pool, &mut ops, &mut want);
        for r in 0..200 {
            assert_eq!(got[r].to_bits(), want[r].to_bits(), "gemv row {r}");
        }

        let mut got_d = Vector::zeros(0);
        sparse_down_proj_into(&q, &h3, &mask, &pool, &mut ops, &mut got_d);
        let mut want_d = Vector::zeros(0);
        sparse_down_proj_into(&deq, &h3, &mask, &pool, &mut ops, &mut want_d);
        for c in 0..96 {
            assert_eq!(got_d[c].to_bits(), want_d[c].to_bits(), "down col {c}");
        }
    }

    #[test]
    fn q8_kernels_count_one_byte_per_weight() {
        let (w, x) = random_case(23, 128, 64);
        let q = BlockQuantizedMatrix::quantize(&w);
        let mask = SkipMask::from_fn(128, |r| r % 2 == 0);
        let mut rng = Prng::seed(24);
        let h3 = Vector::from_fn(128, |_| rng.normal(0.0, 1.0) as f32);
        let pool = ThreadPool::single();

        let mut ops = OpCounter::default();
        let mut out = Vector::zeros(0);
        sparse_gemv_into(&q, &x, &mask, &pool, &mut ops, &mut out);
        assert_eq!(ops.weight_bytes_loaded, ops.macs, "gemv: 1 byte per MAC");

        let mut ops_d = OpCounter::default();
        sparse_down_proj_into(&q, &h3, &mask, &pool, &mut ops_d, &mut out);
        assert_eq!(
            ops_d.weight_bytes_loaded, ops_d.macs,
            "down: 1 byte per MAC"
        );
    }

    #[test]
    fn into_variant_overwrites_stale_buffer_slots_once() {
        // A recycled workspace buffer arrives full of garbage; skipped rows
        // must still come out exactly zero.
        let (w, x) = random_case(11, 10, 8);
        let mask = SkipMask::from_fn(10, |r| r % 2 == 0);
        let mut out = Vector::from_vec(vec![f32::NAN; 10]);
        let mut ops = OpCounter::default();
        sparse_gemv_into(&w, &x, &mask, &ThreadPool::single(), &mut ops, &mut out);
        for r in 0..10 {
            if r % 2 == 0 {
                assert_eq!(out[r], 0.0, "skipped row {r} must be zeroed");
            } else {
                assert!(out[r].is_finite(), "active row {r} must be computed");
            }
        }
    }

    #[test]
    #[should_panic(expected = "mask/rows mismatch")]
    fn wrong_mask_length_panics() {
        let (w, x) = random_case(8, 4, 4);
        let mut ops = OpCounter::default();
        let _ = sparse_gemv(&w, &x, &SkipMask::all_dense(5), &mut ops);
    }
}
