//! Property-style tests for the tensor substrate, driven by seeded
//! pseudo-random sweeps (the workspace builds offline, so the `proptest`
//! crate is replaced by explicit [`Prng`] loops over the same properties).

use sparseinfer_tensor::attn::{self, KvWord};
use sparseinfer_tensor::gemv::{
    gemm_rows_into, gemm_transposed_rows_into, gemv, gemv_transposed, reference, Rows,
};
use sparseinfer_tensor::sign::{count_negative_products, PackedSignMatrix, SignPack};
use sparseinfer_tensor::{
    BlockQuantizedMatrix, Matrix, ParallelOptions, Prng, ThreadPool, Vector, WeightRows, F16,
};

/// A value in a range representable in f16 without overflow, excluding a
/// band around 0 so sign comparisons are unambiguous.
fn finite_f32(rng: &mut Prng) -> f32 {
    let magnitude = (1e-3 + rng.uniform() * 999.0) as f32;
    if rng.flip(0.5) {
        -magnitude
    } else {
        magnitude
    }
}

#[test]
fn sign_pack_roundtrips_bits() {
    let mut rng = Prng::seed(101);
    for trial in 0..64 {
        let len = 1 + rng.below(199);
        let values: Vec<f32> = (0..len).map(|_| finite_f32(&mut rng)).collect();
        let pack = SignPack::pack(&values);
        assert_eq!(pack.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            assert_eq!(pack.bit(i), v.is_sign_negative(), "trial {trial} bit {i}");
        }
    }
}

#[test]
fn xor_popcount_equals_scalar_count() {
    let mut rng = Prng::seed(102);
    for trial in 0..64 {
        let len = 1 + rng.below(299);
        let a: Vec<f32> = (0..len).map(|_| finite_f32(&mut rng)).collect();
        let b: Vec<f32> = (0..len).map(|_| finite_f32(&mut rng)).collect();
        let pa = SignPack::pack(&a);
        let pb = SignPack::pack(&b);
        assert_eq!(
            pa.xor_popcount(&pb),
            count_negative_products(&a, &b),
            "trial {trial} len {len}"
        );
    }
}

#[test]
fn f16_roundtrip_preserves_sign_and_bounds_error() {
    let mut rng = Prng::seed(103);
    for _ in 0..512 {
        let v = finite_f32(&mut rng);
        let h = F16::from_f32(v);
        let back = h.to_f32();
        assert_eq!(h.is_sign_negative(), v.is_sign_negative());
        // f16 has 11 significand bits: relative error bounded by 2^-11.
        let rel = ((back - v) / v).abs();
        assert!(rel <= 1.0 / 2048.0, "v={v} back={back} rel={rel}");
    }
}

#[test]
fn int8_quantization_preserves_nonunderflow_signs() {
    // Every column count 1..=39 twice: one partial block, one full block,
    // and a full block plus a partial one.
    for seed in 0..78u64 {
        let mut rng = Prng::seed(seed);
        let rows = 1 + rng.below(5);
        let cols = 1 + seed as usize % 39;
        let m = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0) as f32);
        let q = BlockQuantizedMatrix::quantize(&m);
        let signs = q.packed_signs();
        for r in 0..rows {
            for (c, qv) in q.row(r).iter().enumerate() {
                if *qv != 0 {
                    let negative = m[(r, c)] < 0.0;
                    assert_eq!(*qv < 0, negative, "seed {seed} ({r},{c})");
                    let bit = (signs.row(r)[c / 32] >> (c % 32)) & 1 == 1;
                    assert_eq!(bit, negative, "packed sign, seed {seed} ({r},{c})");
                }
            }
        }
    }
}

#[test]
fn gemv_is_linear_in_x() {
    for seed in 0..48u64 {
        let mut rng = Prng::seed(seed);
        let rows = 1 + rng.below(7);
        let cols = 1 + rng.below(31);
        let scale = (rng.uniform() * 8.0 - 4.0) as f32;
        let w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0) as f32);
        let x = Vector::from_fn(cols, |_| rng.normal(0.0, 1.0) as f32);
        let mut sx = x.clone();
        sx.scale(scale);
        let y1 = gemv(&w, &sx);
        let mut y2 = gemv(&w, &x);
        y2.scale(scale);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!(
                (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                "seed {seed}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn transposed_gemv_agrees_with_materialized_transpose() {
    for seed in 0..48u64 {
        let mut rng = Prng::seed(seed ^ 0xA5A5);
        let rows = 1 + rng.below(7);
        let cols = 1 + rng.below(15);
        let w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0) as f32);
        let x = Vector::from_fn(rows, |_| rng.normal(0.0, 1.0) as f32);
        let a = gemv_transposed(&w, &x);
        let b = gemv(&w.transposed(), &x);
        for (u, v) in a.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-4, "seed {seed}: {u} vs {v}");
        }
    }
}

#[test]
fn packed_matrix_equals_per_row_packs() {
    for seed in 0..48u64 {
        let mut rng = Prng::seed(seed ^ 0x5A5A);
        let rows = 1 + rng.below(5);
        let cols = 1 + rng.below(79);
        let m = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0) as f32);
        let pm = PackedSignMatrix::pack(&m);
        for r in 0..rows {
            let expected = SignPack::pack(m.row(r));
            assert_eq!(pm.row(r), expected.words(), "seed {seed} row {r}");
        }
    }
}

/// A row filter with its label: `keep[r]` for every row `r`.
type RowFilter = (&'static str, Vec<bool>);

/// Row filters for the GEMM sweep, each with its label. From two columns on
/// the `f32` kernel takes kept rows two at a time, one from each half of a
/// worker's rows, and at one column four at a time, one from each quarter;
/// so besides no filter and a random one they leave kept rows that are
/// never adjacent, a last kept row with no partner, an odd number of kept
/// rows, 1, 2 or 3 rows left over from the groups of four, and kept rows
/// in one half or one quarter only.
/// The rows a filter keeps, as the row list the kernels take.
fn listed(keep: &[bool]) -> Vec<u32> {
    (0..keep.len() as u32)
        .filter(|&r| keep[r as usize])
        .collect()
}

fn row_filters(rows: usize, rng: &mut Prng) -> Vec<RowFilter> {
    let mut odd: Vec<bool> = (0..rows).map(|_| rng.flip(0.3)).collect();
    if odd.iter().filter(|k| **k).count() % 2 == 0 {
        odd[rows - 1] = !odd[rows - 1];
    }
    // A random filter keeping a count of rows ≡ `left` (mod 4), where the
    // row count allows: rows added from the first, then dropped.
    let mut left_over = |left: usize| {
        let mut keep: Vec<bool> = (0..rows).map(|_| rng.flip(0.5)).collect();
        let mut count = keep.iter().filter(|k| **k).count();
        for (r, to) in (0..rows)
            .map(|r| (r, true))
            .chain((0..rows).map(|r| (r, false)))
        {
            if count % 4 != left && keep[r] != to {
                keep[r] = to;
                count = if to { count + 1 } else { count - 1 };
            }
        }
        keep
    };
    let (one, two, three) = (left_over(1), left_over(2), left_over(3));
    let by = |f: &dyn Fn(usize) -> bool| (0..rows).map(f).collect::<Vec<_>>();
    vec![
        ("all", by(&|_| true)),
        ("random", (0..rows).map(|_| rng.flip(0.6)).collect()),
        ("every other", by(&|r| r % 2 == 0)),
        ("every third", by(&|r| r % 3 == 1)),
        ("last only", by(&|r| r == rows - 1)),
        ("first and last", by(&|r| r == 0 || r == rows - 1)),
        ("odd count", odd),
        ("lower half", by(&|r| r < rows / 2)),
        ("upper half", by(&|r| r >= rows / 2)),
        ("count 1 mod 4", one),
        ("count 2 mod 4", two),
        ("count 3 mod 4", three),
        (
            "third quarter",
            by(&|r| 2 * rows <= 4 * r && 4 * r < 3 * rows),
        ),
    ]
}

/// `gemm_rows_into` over `w`, bit for bit against `scalar(r, x)` — the
/// scalar restatement of row `r`'s dot product with column `x` — for every
/// `(row, column)`: each batch size in `batches`, under every one of
/// [`row_filters`], at 1, 2 and 4 threads.
fn gemm_equals_scalar_reference<W: WeightRows>(
    w: &W,
    rng: &mut Prng,
    label: &str,
    batches: std::ops::RangeInclusive<usize>,
    scalar: impl Fn(usize, &[f32]) -> f32,
) {
    let (rows, cols) = (w.rows(), w.cols());
    let filters = row_filters(rows, rng);
    for batch in batches {
        let xs: Vec<f32> = (0..batch * cols)
            .map(|_| rng.normal(0.1, 1.0) as f32)
            .collect();
        let expected: Vec<f32> = (0..rows)
            .flat_map(|r| xs.chunks_exact(cols).map(move |x| (r, x)))
            .map(|(r, x)| scalar(r, x))
            .collect();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            for (filter, keep) in &filters {
                let list = listed(keep);
                // The filter as a row list, and with every row kept also
                // as `Rows::All`: the listed rows' results, packed.
                let all = (list.len() == rows).then_some(Rows::All);
                for over in [Some(Rows::Kept(&list)), all].into_iter().flatten() {
                    let mut out = Vector::from_vec(vec![f32::NAN; 3]);
                    gemm_rows_into(w, &xs, batch, over, &pool, &mut out);
                    assert_eq!(out.len(), list.len() * batch);
                    for (i, got) in out.iter().enumerate() {
                        let (r, b) = (list[i / batch] as usize, i % batch);
                        assert_eq!(
                            got.to_bits(),
                            expected[r * batch + b].to_bits(),
                            "{label} {rows}x{cols} batch {batch} threads {threads} \
                             filter {filter} rows {over:?} row {r} column {b}",
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gemm_rows_equals_gemv_bit_for_bit() {
    // The references are the scalar restatements, not `gemv_into` or
    // `dot_q8`: those are this kernel at one column. Column counts on the
    // 8-lane grid (the AVX2 tile's shapes: 8, 96, 256) and off it (where it
    // falls back to the portable kernels), on and off the 32-column
    // scale-block grid; odd row counts leave a row without a partner.
    // 1200x100, 1201x96 and 4096x512 are large enough to really be split
    // across workers (a worker takes at least 64 rows and 2^19
    // multiply-accumulates) — the first two from batch 5, the third at the
    // single column of a decode GEMV. The four-row walk splits a worker's
    // rows into four parts: 6 rows leave the last part empty, and 688x256
    // is a serving model's gate and up projection. 2 to 9 rows on the
    // 8-lane grid fill a tile partly, wholly, or with rows left over.
    let shapes = [
        ((5, 37), 1..=9),
        ((130, 100), 1..=9),
        ((257, 43), 1..=9),
        ((64, 8), 1..=9),
        ((3, 1), 1..=9),
        ((131, 96), 1..=9),
        ((33, 256), 1..=9),
        ((1, 16), 1..=9),
        ((1200, 100), 1..=9),
        ((1201, 96), 1..=9),
        ((4096, 512), 1..=2),
        ((6, 256), 1..=9),
        ((688, 256), 1..=9),
        ((2, 16), 1..=9),
        ((4, 24), 1..=9),
        ((7, 16), 1..=9),
        ((8, 16), 1..=9),
        ((9, 24), 1..=9),
    ];
    for (seed, ((rows, cols), batches)) in shapes.into_iter().enumerate() {
        let mut rng = Prng::seed(900 + seed as u64);
        let w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 0.7) as f32);
        gemm_equals_scalar_reference(&w, &mut rng, "f32", batches.clone(), |r, x| {
            reference::dot_lanes(w.row(r), x)
        });
        let q = BlockQuantizedMatrix::quantize(&w);
        gemm_equals_scalar_reference(&q, &mut rng, "int8", batches, |r, x| {
            reference::dot_q8_blocks(q.row(r), q.row_scales(r), x)
        });
    }
}

#[test]
fn transposed_batch_equals_per_input_transposed_gemv_bit_for_bit() {
    // `gemm_transposed_rows_into`, the one down-projection kernel, against
    // `gemv_transposed` of each column alone — of the matrix itself for
    // `f32`, of its dequantized `f32` copy for int8 — with the filtered
    // entries zeroed: at batch 1 to 9 (one or two walks of eight), under
    // every row filter, with and without the zero skip, at 1, 2 and 4
    // threads, into a stale buffer of the wrong length. The reference skips
    // zero entries and the kernel (without the skip) adds them, so the ±0
    // entries check that adding a zero product never moves a bit. The last
    // two shapes are split between workers (a worker takes at least 2^19
    // multiply-accumulates): 2048 x 1320 at one input by output columns,
    // 660 and 330 per worker at 2 and 4 threads, so every worker but the
    // first starts inside a 32-column scale block; 320 x 1320 at five
    // inputs by whole inputs. Batch 9 takes a worker two walks (eight
    // inputs per walk).
    let shapes = [
        ((9, 5), 1..=9),
        ((70, 130), 1..=9),
        ((33, 288), 1..=9),
        ((12, 64), 1..=9),
        ((1, 16), 1..=9),
        ((131, 600), 1..=9),
        ((2048, 1320), 1..=1),
        ((320, 1320), 5..=5),
    ];
    for (seed, ((rows, cols), batches)) in shapes.into_iter().enumerate() {
        let mut rng = Prng::seed(950 + seed as u64);
        let w = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 0.7) as f32);
        let q = BlockQuantizedMatrix::quantize(&w);
        for batch in batches {
            let hs: Vec<f32> = (0..rows * batch)
                .map(|_| match rng.below(4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.normal(0.0, 1.0) as f32,
                })
                .collect();
            let mut filters = row_filters(rows, &mut rng);
            if rows * cols * batch > 1 << 20 {
                filters.truncate(3);
            }
            let case = (&hs[..], batch, &filters[..]);
            transposed_equals_reference(&w, &w, "f32", case);
            transposed_equals_reference(&q, &q.dequantize(), "int8", case);
        }
    }
}

/// [`gemm_transposed_rows_into`] of `w` on `hs` (`batch` columns) under
/// each filter, both skip settings and 1, 2 and 4 threads, bit for bit
/// against `gemv_transposed(reference, ·)` of each column with the entries
/// of filtered rows zeroed.
fn transposed_equals_reference<W: WeightRows>(
    w: &W,
    reference: &Matrix,
    label: &str,
    (hs, batch, filters): (&[f32], usize, &[RowFilter]),
) {
    let (rows, cols) = (w.rows(), w.cols());
    for (filter, keep) in filters {
        let list = listed(keep);
        let packed: Vec<f32> = list
            .iter()
            .flat_map(|&r| &hs[r as usize * batch..][..batch])
            .copied()
            .collect();
        let expected: Vec<Vector> = (0..batch)
            .map(|b| {
                let h = Vector::from_fn(rows, |r| if keep[r] { hs[r * batch + b] } else { 0.0 });
                gemv_transposed(reference, &h)
            })
            .collect();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            for skip_zeros in [false, true] {
                let mut out = Vector::from_vec(vec![f32::NAN; 3]);
                let over = Rows::Kept(&list);
                gemm_transposed_rows_into(w, over, &packed, batch, skip_zeros, &pool, &mut out);
                assert_eq!(out.len(), cols * batch);
                for (i, got) in out.iter().enumerate() {
                    let (b, c) = (i / cols, i % cols);
                    assert_eq!(
                        got.to_bits(),
                        expected[b][c].to_bits(),
                        "{label} {rows}x{cols} batch {batch} threads {threads} filter {filter} \
                         skip zeros {skip_zeros} column {b} output {c}"
                    );
                }
            }
        }
    }
}

/// The scores of one run: every query's part of it, through a kernel.
type ScoresFn<'f, E> = &'f dyn Fn(&[&[f32]], &[E], usize, f32, &mut [&mut [f32]]);
/// The value sum of one run: every query's part of it, through a kernel.
type ValuesFn<'f, E> = &'f dyn Fn(&[&[f32]], &[E], usize, &mut [&mut [f32]]);

/// [`attn::reference`] one query after another, as the kernels' signature.
fn reference_kernels<E: KvWord>() -> (ScoresFn<'static, E>, ValuesFn<'static, E>) {
    (
        &|queries, keys, stride, scale, scores| {
            for (q, s) in queries.iter().zip(scores) {
                attn::reference::head_scores_into(q, keys, stride, scale, s);
            }
        },
        &|weights, values, stride, outs| {
            for (w, o) in weights.iter().zip(outs) {
                attn::reference::add_weighted_values(w, values, stride, o);
            }
        },
    )
}

/// One attention head over a cache, the way the model walks it, for
/// queries that share its keys and values: query `i` attends over the
/// first `contexts[i]` positions. Runs of `run` positions; per run the
/// scores of every query's part of it, then a scalar softmax per query,
/// then per run the value sum of every query's part — the two loops
/// supplied by the caller. Returns per query its raw scores, normalised
/// weights and output, back to back.
fn attend_head<E: KvWord>(
    (queries, keys, values): (&[&[f32]], &[E], &[E]),
    (stride, contexts, run): (usize, &[usize], usize),
    (scores_into, add_values): (ScoresFn<'_, E>, ValuesFn<'_, E>),
) -> Vec<Vec<f32>> {
    let scale = 1.0 / (queries[0].len() as f32).sqrt();
    let longest = contexts.iter().copied().max().unwrap_or(0);
    let runs = (0..longest).step_by(run).map(|t| t..longest.min(t + run));
    let mine = |run: &std::ops::Range<usize>, ctx: usize| run.start.min(ctx)..run.end.min(ctx);
    let mut scores: Vec<Vec<f32>> = contexts.iter().map(|&ctx| vec![0.0; ctx]).collect();
    for run in runs.clone() {
        let mut parts: Vec<&mut [f32]> = (scores.iter_mut().zip(contexts))
            .map(|(s, &ctx)| &mut s[mine(&run, ctx)])
            .collect();
        scores_into(
            queries,
            &keys[run.start * stride..],
            stride,
            scale,
            &mut parts,
        );
    }
    let raw = scores.clone();
    for scores in &mut scores {
        let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for s in scores.iter_mut() {
            *s = (*s - max).exp();
            denom += *s;
        }
        for s in scores.iter_mut() {
            *s /= denom;
        }
    }
    let mut outs = vec![vec![0.0f32; queries[0].len()]; queries.len()];
    for run in runs {
        let weights: Vec<&[f32]> = (scores.iter().zip(contexts))
            .map(|(s, &ctx)| &s[mine(&run, ctx)])
            .collect();
        let mut parts: Vec<&mut [f32]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        add_values(&weights, &values[run.start * stride..], stride, &mut parts);
    }
    (raw.into_iter().zip(scores).zip(outs))
        .map(|((raw, weights), out)| [raw, weights, out].concat())
        .collect()
}

#[test]
fn attention_kernel_equals_the_scalar_loops_bit_for_bit() {
    // Head widths with one, two, four, nine and sixteen vectors (so value
    // blocks of every size and a second block), and one the vector path
    // does not take at all. One to four queries of one session: the first
    // over `ctx` positions, each next one over one more, as consecutive
    // prompt positions attend — against each query alone through the
    // scalar loops, over its own context as one run. Every case runs twice:
    // over `f32` slabs, and over `F16` slabs, which the kernels widen as
    // they load them.
    let head_dims = [8usize, 16, 32, 72, 128, 20];
    let contexts = (0..=70).chain([129]);
    let mut rng = Prng::seed(970);
    let mut rng16 = Prng::seed(971);
    for ctx in contexts {
        for head_dim in head_dims {
            let heads = 1 + rng.below(13);
            let d = heads * head_dim;
            let positions = ctx + 3;
            // Signed zeros and subnormals among ordinary values.
            let draw = |rng: &mut Prng| match rng.below(12) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1 + rng.below(1 << 22) as u32),
                3 => -f32::from_bits(1 + rng.below(1 << 22) as u32),
                _ => rng.normal(0.0, 1.0) as f32,
            };
            let mut q: Vec<Vec<f32>> = (0..4)
                .map(|_| (0..d).map(|_| draw(&mut rng)).collect())
                .collect();
            // A head whose every product is a zero: the sum's `-0.0` start
            // shows in the sign of the score.
            for q in &mut q {
                q[d - head_dim..].fill(if ctx % 2 == 0 { 0.0 } else { -0.0 });
            }
            let mut keys: Vec<f32> = (0..positions * d).map(|_| draw(&mut rng)).collect();
            let values: Vec<f32> = (0..positions * d).map(|_| draw(&mut rng)).collect();
            // One position whose score dwarfs the rest in every head of the
            // first query (and so is read by every query): the softmax max
            // path, and weights that underflow to zero.
            if ctx > 0 {
                let hot = rng.below(ctx);
                for (k, q) in keys[hot * d..(hot + 1) * d].iter_mut().zip(&q[0]) {
                    *k = q * 1e4;
                }
            }
            let case = (ctx, head_dim);
            kernels_equal_the_scalar_loops("f32", &q, (&keys, &values), case);
            let [keys, values] = f16_slabs(&mut rng16, &q[0], positions, ctx);
            kernels_equal_the_scalar_loops("f16", &q, (&keys, &values), case);
        }
    }
}

/// Every head of `keys` / `values` (`ctx + 3` positions as wide as the
/// queries, heads `head_dim` wide) for one to four of the queries
/// `q`, staggered from `ctx` positions on, in runs of 4, 16 and 64
/// positions and as one run: the kernels against each query alone through
/// the scalar loops, bit for bit.
fn kernels_equal_the_scalar_loops<E: KvWord>(
    label: &str,
    q: &[Vec<f32>],
    (keys, values): (&[E], &[E]),
    (ctx, head_dim): (usize, usize),
) {
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let d = q[0].len();
    let heads = d / head_dim;
    for h in 0..heads {
        let span = h * head_dim..(h + 1) * head_dim;
        let kv = (&keys[span.start..], &values[span.start..]);
        let queries: Vec<&[f32]> = q.iter().map(|q| &q[span.clone()]).collect();
        let want: Vec<Vec<f32>> = (0..4)
            .map(|i| {
                let head = (&queries[i..=i], kv.0, kv.1);
                let ctx = [ctx + i];
                attend_head(head, (d, &ctx, ctx[0].max(1)), reference_kernels()).remove(0)
            })
            .collect();
        for n in 1..=4 {
            let staggered: Vec<usize> = (ctx..ctx + n).collect();
            // The paged block sizes, and the whole cache as one run.
            for run in [4, 16, 64, ctx + n] {
                let head = (&queries[..n], kv.0, kv.1);
                let kernels: (ScoresFn<E>, ValuesFn<E>) =
                    (&attn::head_scores_into, &attn::add_weighted_values);
                let got = attend_head(head, (d, &staggered, run), kernels);
                for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                    let what = format!(
                        "{label} ctx {ctx} head_dim {head_dim} head {h}/{heads} \
                         query {i}/{n} run {run}"
                    );
                    assert_eq!(bits(got), bits(want), "{what}");
                }
            }
        }
    }
}

/// `F16` key and value slabs of `positions` positions as wide as `hot_q`:
/// ordinary values among signed zeros and subnormals, a hot key position
/// below `ctx` as in the `f32` case, and in each slab ±0, a subnormal of
/// each sign, 65504 and ±inf, one in each seventh of it.
fn f16_slabs(rng: &mut Prng, hot_q: &[f32], positions: usize, ctx: usize) -> [Vec<F16>; 2] {
    let d = hot_q.len();
    let negative = |h: F16| F16::from_bits(h.to_bits() | 0x8000);
    let subnormal = |rng: &mut Prng| F16::from_bits(1 + rng.below(0x3FF) as u16);
    let draw = |rng: &mut Prng| match rng.below(12) {
        0 => F16::ZERO,
        1 => negative(F16::ZERO),
        2 => subnormal(rng),
        3 => negative(subnormal(rng)),
        _ => F16::from_f32(rng.normal(0.0, 1.0) as f32),
    };
    let mut slabs = [(); 2].map(|_| (0..positions * d).map(|_| draw(rng)).collect::<Vec<_>>());
    if ctx > 0 {
        let hot = rng.below(ctx);
        for (k, q) in slabs[0][hot * d..(hot + 1) * d].iter_mut().zip(hot_q) {
            *k = F16::from_f32(q * 1e4);
        }
    }
    let inf = F16::from_bits(0x7C00);
    for words in &mut slabs {
        let specials = [
            F16::ZERO,
            negative(F16::ZERO),
            subnormal(rng),
            negative(subnormal(rng)),
            F16::MAX,
            inf,
            negative(inf),
        ];
        let stratum = words.len() / specials.len();
        for (k, special) in specials.into_iter().enumerate() {
            words[k * stratum + rng.below(stratum)] = special;
        }
    }
    slabs
}
