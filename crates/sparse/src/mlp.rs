//! The gated MLP under a predicted skip mask (steps 1–4 of §III), and its
//! accounting.
//!
//! The steps run in the model crate's one executor, [`gated_mlp_into`]:
//! the exact zeros found after the gate ("actual sparsity") join the mask
//! of the up and down projections, compensating rows the conservative
//! predictor kept. [`sparse_mlp_forward_into`] runs one input and bills it
//! ([`OpCounter`], Table I); engines run the same executor, and the same
//! bill, inside [`Model::step`](sparseinfer_model::Model::step).

pub use sparseinfer_model::MlpWeights;
use sparseinfer_model::{gated_mlp_into, MlpBuffers};
use sparseinfer_predictor::SkipMask;
use sparseinfer_tensor::{ThreadPool, Vector, WeightRows, Workspace};

use crate::ops::OpCounter;

/// Switches for the sparse MLP execution, matching the four SparseInfer
/// variants of the paper's Fig. 4 (`base`, `+KF`, `+AS`, `+KF+AS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlpOptions {
    /// Fuse steps 1–3 into one "kernel": numerically identical, but X is
    /// loaded once and `h1`/`h2` never round-trip through memory (§IV-B4's
    /// traffic analysis). Affects only the byte accounting.
    pub kernel_fusion: bool,
    /// Union the exact zeros found after step 1 into the mask used by steps
    /// 2–4 (the paper's "actual sparsity").
    pub actual_sparsity: bool,
}

impl Default for MlpOptions {
    fn default() -> Self {
        Self {
            kernel_fusion: true,
            actual_sparsity: true,
        }
    }
}

/// Executes the gated MLP for one input under `predicted`, for any weight
/// storage, reporting into `ops`.
///
/// Skipped gate rows produce `h1[r] = activation(0)`, zero for the ReLU
/// family — exactly the approximation the paper makes (which is why
/// SparseInfer targets ReLU-fied models). `h1` and `h3` come from `ws`, the
/// applied mask is left in `effective` (`predicted ∪ actual`), the output
/// in `out`, and the projections fan out across `pool`: no allocation
/// after warm-up, the same bits at every thread count. Over int8 weights
/// the forward is bitwise the one over the dequantized `f32` weights.
///
/// Returns `(predicted_sparsity, effective_sparsity)`.
///
/// # Panics
///
/// Panics if `x` or `predicted` disagree with the block's dimensions.
#[allow(clippy::too_many_arguments)] // the hot path threads every resource explicitly
pub fn sparse_mlp_forward_into<M: MlpWeights>(
    mlp: &M,
    x: &Vector,
    predicted: &SkipMask,
    options: MlpOptions,
    pool: &ThreadPool,
    ws: &mut Workspace,
    effective: &mut SkipMask,
    ops: &mut OpCounter,
    out: &mut Vector,
) -> (f64, f64) {
    let (w_gate, ..) = mlp.parts();
    assert_eq!(x.len(), w_gate.cols(), "input length mismatch");
    assert_eq!(predicted.len(), w_gate.rows(), "mask length mismatch");

    let k = w_gate.rows();
    let mut bufs = MlpBuffers {
        kept: ws.take_list(),
        gate: ws.take(k),
        h3: ws.take(k),
        out: std::mem::take(out),
    };
    let skips = |_, word| predicted.words()[word];
    let actual = |_| options.actual_sparsity;
    gated_mlp_into(mlp, x.as_slice(), skips, actual, pool, &mut bufs);
    // The mask steps 2–4 ran under, for the statistics: with actual
    // sparsity, every row but the listed ones with a nonzero gate.
    if options.actual_sparsity {
        effective.reset_skipped(k);
        for (&r, g) in bufs.kept.iter().zip(bufs.gate.iter()) {
            if *g != 0.0 {
                effective.set_active(r as usize);
            }
        }
    } else {
        effective.copy_from(predicted);
    }
    *out = bufs.out;
    ws.give_list(bufs.kept);
    for buf in [bufs.gate, bufs.h3] {
        ws.give(buf);
    }
    bill_mlp(
        ops,
        mlp,
        options,
        predicted.skip_count(),
        effective.skip_count(),
    )
}

/// Bills one input's pass through a gated MLP block — the gate skipping
/// `predicted` rows, up and down skipping `effective` rows, at the
/// format's [`ACCOUNTED_BYTES`](WeightRows::ACCOUNTED_BYTES) per weight
/// (int8: one byte), plus the activation traffic of `options` — and
/// returns the two sparsities.
pub(crate) fn bill_mlp<M: MlpWeights>(
    ops: &mut OpCounter,
    mlp: &M,
    options: MlpOptions,
    predicted: usize,
    effective: usize,
) -> (f64, f64) {
    let (w_gate, w_up, w_down_t, _) = mlp.parts();
    bill(ops, w_gate, predicted);
    bill(ops, w_up, effective);
    ops.atomic_adds += bill(ops, w_down_t, effective);
    // Inter-kernel activation traffic (§IV-B4):
    //   fused:   load X once + write h3;      then step 4: read h3, write out.
    //   unfused: load X twice, h1 and h2 each store+load, h3 store;
    //            then step 4: read h3, write out.
    let (d, k) = (w_gate.cols() as u64, w_gate.rows() as u64);
    let elems = if options.kernel_fusion {
        2 * d + 2 * k
    } else {
        3 * d + 6 * k
    };
    ops.activation_bytes += elems * OpCounter::ACTIVATION_BYTES;
    let rows = w_gate.rows() as f64;
    (predicted as f64 / rows, effective as f64 / rows)
}

/// Bills one projection of `w` that skipped `skipped` rows (a skipped
/// row's weights are never loaded); returns its multiply-accumulates.
pub(crate) fn bill<W: WeightRows>(ops: &mut OpCounter, w: &W, skipped: usize) -> u64 {
    let active = (w.rows() - skipped) as u64;
    let macs = active * w.cols() as u64;
    ops.macs += macs;
    ops.weight_bytes_loaded += macs * W::ACCOUNTED_BYTES;
    ops.rows_computed += active;
    ops.rows_skipped += w.rows() as u64 - active;
    macs
}

/// The name the int8 forward used to have as a second body; kept as an
/// alias because callers outside the workspace import it.
pub use self::sparse_mlp_forward_into as sparse_mlp_q8_forward_into;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::quantized::FusedQuantizedMlp;
    use sparseinfer_model::generator::WeightGenerator;
    use sparseinfer_model::{Activation, GatedMlp, ModelConfig};
    use sparseinfer_predictor::{OraclePredictor, SparsityPredictor};
    use sparseinfer_tensor::gemv::dot;
    use sparseinfer_tensor::{Matrix, ParallelOptions, Prng};

    fn setup() -> (sparseinfer_model::Model, Vector) {
        let cfg = ModelConfig::tiny();
        let model = WeightGenerator::new(&cfg, 31).build();
        let mut rng = Prng::seed(32);
        let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.5, 0.9) as f32);
        (model, x)
    }

    /// One [`sparse_mlp_forward_into`] on fresh buffers and one thread: the
    /// output, the `(predicted, effective)` sparsities and the bill.
    pub(crate) fn forward<M: MlpWeights>(
        mlp: &M,
        x: &Vector,
        mask: &SkipMask,
        options: MlpOptions,
    ) -> (Vector, (f64, f64), OpCounter) {
        let mut ops = OpCounter::default();
        let mut out = Vector::zeros(0);
        let sparsity = sparse_mlp_forward_into(
            mlp,
            x,
            mask,
            options,
            &ThreadPool::single(),
            &mut Workspace::new(),
            &mut SkipMask::all_dense(0),
            &mut ops,
            &mut out,
        );
        (out, sparsity, ops)
    }

    /// The base options: no fusion, no actual sparsity.
    const BASE: MlpOptions = MlpOptions {
        kernel_fusion: false,
        actual_sparsity: false,
    };

    #[test]
    fn oracle_mask_reproduces_dense_output_exactly() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let mut oracle = OraclePredictor::from_model(&model);
        let mask = oracle.predict(0, &x);

        let (sparse, _, _) = forward(mlp, &x, &mask, MlpOptions::default());
        let dense = mlp.forward(&x);
        for (a, b) in sparse.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn dense_mask_reproduces_dense_output() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let (out, _, ops) = forward(mlp, &x, &SkipMask::all_dense(mlp.mlp_dim()), BASE);
        let dense = mlp.forward(&x);
        for (a, b) in out.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        // Dense path computes 3·d·k MACs.
        assert_eq!(ops.macs, 3 * (mlp.hidden_dim() * mlp.mlp_dim()) as u64);
    }

    #[test]
    fn actual_sparsity_only_raises_effective_sparsity() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let predicted = SkipMask::all_dense(mlp.mlp_dim()); // predict nothing
        let options = MlpOptions {
            kernel_fusion: false,
            actual_sparsity: true,
        };
        let (out, (predicted_sparsity, effective), _) = forward(mlp, &x, &predicted, options);
        assert_eq!(predicted_sparsity, 0.0);
        // The calibrated model is ~90% sparse, so actual sparsity must fire.
        assert!(effective > 0.5, "effective {effective}");
        // And the result still matches dense exactly (zeros contribute
        // nothing to steps 2–4).
        let dense = mlp.forward(&x);
        for (a, b) in out.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn actual_sparsity_reduces_work_at_equal_output() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let predicted = SkipMask::all_dense(mlp.mlp_dim());
        let options = MlpOptions {
            kernel_fusion: false,
            actual_sparsity: true,
        };
        let (_, _, with) = forward(mlp, &x, &predicted, options);
        let (_, _, without) = forward(mlp, &x, &predicted, BASE);
        assert!(
            with.macs < without.macs,
            "{} vs {}",
            with.macs,
            without.macs
        );
        assert!(with.weight_bytes_loaded < without.weight_bytes_loaded);
    }

    #[test]
    fn kernel_fusion_reduces_activation_traffic_only() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let mask = SkipMask::from_fn(mlp.mlp_dim(), |r| r % 3 == 0);
        let fused_options = MlpOptions {
            kernel_fusion: true,
            actual_sparsity: false,
        };
        let (out_f, _, fused) = forward(mlp, &x, &mask, fused_options);
        let (out_u, _, unfused) = forward(mlp, &x, &mask, BASE);
        assert_eq!(out_f, out_u, "fusion must be numerically neutral");
        assert!(fused.activation_bytes < unfused.activation_bytes);
        assert_eq!(fused.macs, unfused.macs);
        assert_eq!(fused.weight_bytes_loaded, unfused.weight_bytes_loaded);
    }

    #[test]
    fn q8_forward_is_bitwise_equal_to_f32_forward_over_dequantized_weights() {
        // The quantized route's determinism contract, end to end: running
        // the fused INT8 forward is *exactly* running the f32 forward on the
        // dequantized weights — at every thread count.
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let qmlp = FusedQuantizedMlp::quantize(mlp);
        let deq = GatedMlp::new(
            qmlp.w_gate().dequantize(),
            qmlp.w_up().dequantize(),
            qmlp.w_down_t().dequantize(),
            mlp.activation(),
        );
        let predicted = SkipMask::from_fn(mlp.mlp_dim(), |r| r % 3 == 0);

        let mut reference: Option<Vector> = None;
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            let mut ws = Workspace::new();
            let mut eff_q = SkipMask::all_dense(0);
            let mut out_q = Vector::zeros(0);
            let (ps_q, es_q) = sparse_mlp_q8_forward_into(
                &qmlp,
                &x,
                &predicted,
                MlpOptions::default(),
                &pool,
                &mut ws,
                &mut eff_q,
                &mut OpCounter::default(),
                &mut out_q,
            );
            let mut eff_f = SkipMask::all_dense(0);
            let mut out_f = Vector::zeros(0);
            let (ps_f, es_f) = sparse_mlp_forward_into(
                &deq,
                &x,
                &predicted,
                MlpOptions::default(),
                &pool,
                &mut ws,
                &mut eff_f,
                &mut OpCounter::default(),
                &mut out_f,
            );
            assert_eq!(ps_q, ps_f);
            assert_eq!(es_q, es_f, "effective sparsity @ {threads} threads");
            for (i, (a, b)) in out_q.iter().zip(out_f.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "element {i} @ {threads} threads");
            }
            match &reference {
                None => reference = Some(out_q),
                Some(r) => assert_eq!(&out_q, r, "thread identity @ {threads}"),
            }
        }
    }

    #[test]
    fn q8_forward_counts_one_byte_per_weight() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let qmlp = FusedQuantizedMlp::quantize(mlp);
        let mask = SkipMask::from_fn(mlp.mlp_dim(), |r| r % 2 == 0);
        let (_, _, ops) = forward(&qmlp, &x, &mask, MlpOptions::default());
        assert_eq!(ops.weight_bytes_loaded, ops.macs, "1 byte per MAC");
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn wrong_mask_length_panics() {
        let (model, x) = setup();
        let mlp = model.layers()[0].mlp();
        let _ = forward(mlp, &x, &SkipMask::all_dense(mlp.mlp_dim() + 1), BASE);
    }

    #[test]
    fn false_positive_skips_perturb_but_stay_bounded() {
        // Skipping a truly-active row zeroes its contribution: output should
        // differ from dense, demonstrating why precision matters.
        let (model, x) = setup();
        // Use the last (stabilized) layer, whose row calibration matches the
        // test input's distribution and leaves some rows active.
        let mlp = model.layers()[model.config().n_layers - 1].mlp();
        let z = mlp.gate_preactivations(&x);
        // Find an active row and force-skip it.
        let active_row = (0..mlp.mlp_dim())
            .find(|r| z[*r] > 0.0)
            .expect("some active row");
        let mask = SkipMask::from_fn(mlp.mlp_dim(), |r| r == active_row);
        let (sparse, _, _) = forward(mlp, &x, &mask, MlpOptions::default());
        let dense = mlp.forward(&x);
        let diff: f32 = sparse
            .iter()
            .zip(dense.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.0, "skipping an active row must change the output");
    }

    /// [`gated_mlp_into`] of `mlp` on `batch` inputs `xs` on `pool`, input
    /// `b` keeping the rows `predicted[b * k..][..k]` marks and taking
    /// actual sparsity when `actual[b]`: the output's bits, per input
    /// (`[b][d]`), and the rows the up and down projections loaded.
    fn executor<M: MlpWeights>(
        mlp: &M,
        (xs, batch): (&[f32], usize),
        predicted: &[bool],
        actual: &[bool],
        pool: &ThreadPool,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut bufs = MlpBuffers::default();
        let k = predicted.len() / batch;
        let masks: Vec<SkipMask> = (0..batch)
            .map(|b| SkipMask::from_fn(k, |r| !predicted[b * k + r]))
            .collect();
        let skips = |b: usize, word: usize| masks[b].words()[word];
        gated_mlp_into(mlp, xs, skips, |b| actual[b], pool, &mut bufs);
        let bits = bufs.out.iter().map(|v| v.to_bits()).collect();
        (bits, bufs.kept)
    }

    /// At one thread, per input of `xs`, the executor's output with all of
    /// them in one call is bitwise its one-input call, for every filter of
    /// `filters` (`[b][k]` kept flags) in both formats, with actual
    /// sparsity off, on, and on for every other input; taking it or not
    /// moves no bit, with every row kept the output is
    /// [`GatedMlp::forward`]'s, and the rows loaded are those some input
    /// keeps and either takes no actual sparsity or has a nonzero gate.
    fn executor_cases(mlp: &GatedMlp, xs: &[f32], filters: &[(&str, Vec<bool>)]) {
        let qmlp = FusedQuantizedMlp::quantize(mlp);
        let (d, k) = (mlp.hidden_dim(), mlp.mlp_dim());
        let batch = xs.len() / d;
        let pool = &ThreadPool::single();
        for (label, predicted) in filters {
            let mixed: Vec<bool> = (0..batch).map(|b| b % 2 == 0).collect();
            for actual in [vec![false; batch], vec![true; batch], mixed] {
                let what = format!("batch {batch} {label} actual sparsity {actual:?}");
                let (f32_out, f32_rows) = executor(mlp, (xs, batch), predicted, &actual, pool);
                let (q8_out, _) = executor(&qmlp, (xs, batch), predicted, &actual, pool);
                let loads = |r: usize| {
                    (0..batch).any(|b| {
                        let gate = dot(mlp.w_gate().row(r), &xs[b * d..][..d]);
                        predicted[b * k + r] && (!actual[b] || mlp.activation().apply(gate) != 0.0)
                    })
                };
                let want: Vec<u32> = (0..k as u32).filter(|&r| loads(r as usize)).collect();
                assert_eq!(f32_rows, want, "f32 {what}: rows loaded");
                for (b, x) in xs.chunks_exact(d).enumerate() {
                    let column = |out: &[u32]| out[b * d..][..d].to_vec();
                    let own = &predicted[b * k..][..k];
                    let (f32_alone, _) = executor(mlp, (x, 1), own, &actual[b..=b], pool);
                    let (q8_alone, _) = executor(&qmlp, (x, 1), own, &actual[b..=b], pool);
                    assert_eq!(column(&f32_out), f32_alone, "f32 {what} input {b}");
                    assert_eq!(column(&q8_out), q8_alone, "int8 {what} input {b}");
                    if *label == "all kept" {
                        let forward = mlp.forward(&Vector::from_vec(x.to_vec()));
                        let forward: Vec<u32> = forward.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(f32_alone, forward, "f32 {what} input {b} vs forward");
                    }
                }
                let opposite: Vec<bool> = actual.iter().map(|a| !a).collect();
                let (other, _) = executor(mlp, (xs, batch), predicted, &opposite, pool);
                assert_eq!(f32_out, other, "f32 {what} vs its opposite");
                let (other, _) = executor(&qmlp, (xs, batch), predicted, &opposite, pool);
                assert_eq!(q8_out, other, "int8 {what} vs its opposite");
            }
        }
    }

    /// A block of `k × d` matrices with gate rows biased negative, so a good
    /// share of `h1` is zero, and `batch` inputs with exact zeros.
    fn executor_block(seed: u64, (k, d): (usize, usize), batch: usize) -> (GatedMlp, Vec<f32>) {
        let mut rng = Prng::seed(seed);
        let mut m = |mean: f64| Matrix::from_fn(k, d, |_, _| rng.normal(mean, 0.5) as f32);
        let mlp = GatedMlp::new(m(-0.1), m(0.0), m(0.0), Activation::Relu);
        let xs = (0..batch * d)
            .map(|_| match rng.below(8) {
                0 => 0.0,
                _ => rng.normal(0.2, 1.0) as f32,
            })
            .collect();
        (mlp, xs)
    }

    #[test]
    fn the_executor_is_bitwise_per_input_and_neutral_to_actual_sparsity() {
        // Odd shapes (a last 4-row block of three rows, a hidden width off
        // the 8-lane and 32-column grids). Under "per input" every input
        // keeps rows of its own, so most loaded rows are dropped by some
        // input: the `±0` argument of the executor's doc carries those
        // inputs, with and without actual sparsity, and with inputs that
        // differ in it.
        let (k, d) = (71, 45);
        let mut rng = Prng::seed(34);
        for batch in [1usize, 2, 3, 5] {
            let (mlp, xs) = executor_block(33 + batch as u64, (k, d), batch);
            let random: Vec<bool> = (0..k).map(|_| rng.flip(0.6)).collect();
            let per_input: Vec<bool> = (0..batch * k).map(|_| rng.flip(0.6)).collect();
            let filters = [
                ("all kept", vec![true; batch * k]),
                ("random", random.repeat(batch)),
                ("per input", per_input),
            ];
            executor_cases(&mlp, &xs, &filters);
        }
    }

    #[test]
    fn the_executor_holds_at_the_kept_row_lists_edges() {
        // The kept-row list at its edges on the serving MLP's 688 rows
        // (ten whole 64-row mask words and a last one of 48): no row, one,
        // three and five, every row, rows only in the last partial word,
        // one row per input that every other input drops, and inputs
        // mixing those.
        let (k, d) = (688, 40);
        let keeping = |rows: &[usize]| (0..k).map(|r| rows.contains(&r)).collect::<Vec<_>>();
        let mut rng = Prng::seed(36);
        let last_word: Vec<bool> = (0..k).map(|r| r >= 640 && rng.flip(0.5)).collect();
        let edges = [
            keeping(&[]),
            keeping(&[687]),
            keeping(&[5, 300, 687]),
            keeping(&[0, 63, 64, 640, 687]),
            vec![true; k],
            last_word,
        ];
        for batch in [1usize, 2, 3, 5] {
            let (mlp, xs) = executor_block(35 + batch as u64, (k, d), batch);
            let own_row: Vec<bool> = (0..batch).flat_map(|b| keeping(&[3 * b + 641])).collect();
            let mixed: Vec<bool> = (0..batch).flat_map(|b| edges[b % 6].clone()).collect();
            let filters = [
                ("no row kept", edges[0].repeat(batch)),
                ("one row", edges[1].repeat(batch)),
                ("three rows", edges[2].repeat(batch)),
                ("five rows", edges[3].repeat(batch)),
                ("all kept", edges[4].repeat(batch)),
                ("last word only", edges[5].repeat(batch)),
                ("a row per input", own_row),
                ("mixed edges", mixed),
            ];
            executor_cases(&mlp, &xs, &filters);
        }
    }

    #[test]
    fn the_executor_is_bitwise_its_one_thread_call_when_its_projections_fan_out() {
        // 2048 × 256 at five inputs: with every row kept each projection is
        // 2.6M multiply-accumulates, split between 2 and 4 workers; under
        // per-input filters keeping 30 % each, the union (~83 % of the
        // rows) splits as well.
        let (k, d, batch) = (2048, 256, 5);
        let (mlp, xs) = executor_block(37, (k, d), batch);
        let mut rng = Prng::seed(38);
        let per_input: Vec<bool> = (0..batch * k).map(|_| rng.flip(0.3)).collect();
        for threads in [2, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            for predicted in [vec![true; batch * k], per_input.clone()] {
                let actual: Vec<bool> = (0..batch).map(|b| b % 2 == 0).collect();
                let single = ThreadPool::single();
                let want = executor(&mlp, (&xs, batch), &predicted, &actual, &single);
                let got = executor(&mlp, (&xs, batch), &predicted, &actual, &pool);
                assert_eq!(got, want, "{threads} threads");
            }
        }
    }
}
