//! An independent check of the forward pass: a plain `f64` decoder — no
//! SIMD, no thread pool, no paged KV, none of the library's kernels —
//! against [`Model::step`].
//!
//! Every other identity test compares the library with itself (one column
//! against many, one thread against four, int8 against `f32` over the
//! dequantized weights), and the golden hashes pin bits this same code
//! produced. A decoder layer that computed the wrong thing everywhere —
//! a dropped norm bias, a RoPE pair rotated the wrong way round, a
//! mis-scaled softmax — would pass all of them. Here the model is written
//! out again from its definition:
//!
//! - RMSNorm `y = x / sqrt(mean(x²) + 1e-5) ⊙ gain + bias`, before
//!   attention, before the MLP and before the LM head;
//! - per head, RoPE on adjacent pairs `(2i, 2i + 1)` at angle
//!   `position · 10000^(−2i / head_dim)`, of the query and the key;
//! - causal multi-head attention, scores scaled by `1 / sqrt(head_dim)`;
//! - the ReLU-gated MLP `W_downᵀ (ReLU(W_gate x) ⊙ W_up x)`, rows a fixed
//!   skip mask drops contributing nothing;
//! - residual connections around both halves, the final norm and the LM
//!   head.
//!
//! The models are assembled from seeded matrices through the public
//! constructors, so the reference reads the very matrices the model was
//! given. Each case feeds a prompt through steps of one to four columns
//! and checks the logits of every position, every layer's normed MLP
//! input (recorded by the step's MLP hook) and every layer's KV rows.

use sparseinfer::model::attention::Attention;
use sparseinfer::model::norm::RmsNorm;
use sparseinfer::model::{
    gated_mlp_into, Activation, DecoderLayer, GatedMlp, KvBlockPool, KvDtype, MlpBuffers, MlpHook,
    Model, ModelConfig, PrefillScratch,
};
use sparseinfer::sparse::FusedQuantizedMlp;
use sparseinfer::tensor::{Matrix, Prng, ThreadPool, Vector};

/// Largest error allowed with `f32` KV, relative to the largest magnitude
/// of the vector checked. The step rounds to `f32` (unit roundoff
/// u = 2⁻²⁴ ≈ 6e-8) in every product and sum: dot products up to 688
/// terms long, the `f32` `powf` / `sin_cos` of the RoPE angles, `exp`,
/// the softmax divide, and all of it again in the second layer. On an
/// x86-64 host (AVX2 and portable builds alike) that stays below 7e-7 of
/// the scale on both shapes, int8 included: its reference reads the
/// `f32`-rounded dequantized weights, which the int8 kernels reproduce up
/// to the order of their sums. 1e-5 leaves an order of magnitude of room
/// and is still four orders below what a wrong formula does: a dropped
/// bias, a swapped RoPE pair or an unscaled softmax moves values by
/// 1e-1 of their scale.
const F32_KV_BOUND: f64 = 1e-5;

/// The same with `f16` KV. Each cached key and value is rounded to f16, a
/// relative error up to 2⁻¹¹ ≈ 4.9e-4 per element, before attention reads
/// it, so the KV rows themselves sit that far from the reference; the
/// attention output and everything downstream inherit an error of that
/// order, and the second layer's rows carry the first layer's on top.
/// Measured: below 5.5e-4 of the scale. 4e-3 leaves room for the
/// compounding and stays well below what a wrong formula does.
const F16_KV_BOUND: f64 = 4e-3;

const EPS: f64 = 1e-5;

/// Positions fed per step, in order: multi-column steps (a prompt chunk)
/// and one-column ones (decode).
const STEPS: [usize; 6] = [3, 1, 4, 1, 2, 1];

/// An RMSNorm's parameters, kept for the reference.
struct Norm {
    gain: Vec<f32>,
    bias: Vec<f32>,
}

impl Norm {
    fn random(d: usize, rng: &mut Prng) -> Self {
        Self {
            gain: (0..d).map(|_| rng.normal(1.0, 0.2) as f32).collect(),
            bias: (0..d).map(|_| rng.normal(0.0, 0.3) as f32).collect(),
        }
    }

    fn rms_norm(&self) -> RmsNorm {
        let v = |x: &[f32]| Vector::from_vec(x.to_vec());
        RmsNorm::with_bias(v(&self.gain), v(&self.bias))
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let ms = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        let inv_rms = 1.0 / (ms + EPS).sqrt();
        let params = self.gain.iter().zip(&self.bias);
        x.iter()
            .zip(params)
            .map(|(x, (g, b))| x * inv_rms * f64::from(*g) + f64::from(*b))
            .collect()
    }
}

/// One layer's weights, kept for the reference. `gate`, `up` and
/// `down_t` are `k × d`: the MLP's down projection is stored transposed.
struct Layer {
    attn_norm: Norm,
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    mlp_norm: Norm,
    gate: Matrix,
    up: Matrix,
    down_t: Matrix,
}

/// Every weight of a model, kept for the reference.
struct Weights {
    n_heads: usize,
    embedding: Matrix,
    layers: Vec<Layer>,
    final_norm: Norm,
    lm_head: Matrix,
}

fn random_matrix(rows: usize, cols: usize, std_dev: f64, rng: &mut Prng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, std_dev) as f32)
}

/// Seeded weights of `cfg`'s shape, and the model assembled from copies
/// of them. Projections are scaled by `1 / sqrt(fan-in)`, so every
/// activation stays of order one.
fn build(cfg: &ModelConfig, seed: u64) -> (Model, Weights) {
    let (d, k) = (cfg.hidden_dim, cfg.mlp_dim);
    let mut rng = Prng::seed(seed);
    let rng = &mut rng;
    let (by_d, by_k) = (1.0 / (d as f64).sqrt(), 1.0 / (k as f64).sqrt());
    let layers: Vec<Layer> = (0..cfg.n_layers)
        .map(|_| Layer {
            attn_norm: Norm::random(d, rng),
            wq: random_matrix(d, d, by_d, rng),
            wk: random_matrix(d, d, by_d, rng),
            wv: random_matrix(d, d, by_d, rng),
            wo: random_matrix(d, d, by_d, rng),
            mlp_norm: Norm::random(d, rng),
            gate: random_matrix(k, d, by_d, rng),
            up: random_matrix(k, d, by_d, rng),
            down_t: random_matrix(k, d, by_k, rng),
        })
        .collect();
    let weights = Weights {
        n_heads: cfg.n_heads,
        embedding: random_matrix(cfg.vocab_size, d, 1.0, rng),
        layers,
        final_norm: Norm::random(d, rng),
        lm_head: random_matrix(cfg.vocab_size, d, by_d, rng),
    };
    let layers = weights.layers.iter().map(|l| {
        let (q, k, v, o) = (l.wq.clone(), l.wk.clone(), l.wv.clone(), l.wo.clone());
        let attn = Attention::new(q, k, v, o, cfg.n_heads);
        let (gate, up, down_t) = (l.gate.clone(), l.up.clone(), l.down_t.clone());
        let mlp = GatedMlp::new(gate, up, down_t, Activation::Relu);
        DecoderLayer::new(l.attn_norm.rms_norm(), attn, l.mlp_norm.rms_norm(), mlp)
    });
    let model = Model::new(
        cfg.clone(),
        weights.embedding.clone(),
        layers.collect(),
        weights.final_norm.rms_norm(),
        weights.lm_head.clone(),
    );
    (model, weights)
}

/// `m · x` in `f64`.
fn matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..m.rows())
        .map(|r| m.row(r).iter().zip(x).map(|(w, x)| f64::from(*w) * x).sum())
        .collect()
}

/// Rotates every head of `x` to `position`, adjacent pairs together.
fn rope(x: &mut [f64], head_dim: usize, position: usize) {
    for head in x.chunks_exact_mut(head_dim) {
        for (i, pair) in head.chunks_exact_mut(2).enumerate() {
            let theta = position as f64 * 10000f64.powf(-2.0 * i as f64 / head_dim as f64);
            let (sin, cos) = theta.sin_cos();
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a * cos - b * sin;
            pair[1] = a * sin + b * cos;
        }
    }
}

/// What the reference produces for one position.
struct Position {
    /// Every layer's normed MLP input.
    mlp_inputs: Vec<Vec<f64>>,
    logits: Vec<f64>,
}

/// The reference decoder: the weights, a skip mask per layer (`true`
/// drops the row) and its own KV, `[layer][position]` rows.
struct Reference<'w> {
    w: &'w Weights,
    dropped: Vec<Vec<bool>>,
    keys: Vec<Vec<Vec<f64>>>,
    values: Vec<Vec<Vec<f64>>>,
}

impl<'w> Reference<'w> {
    fn new(w: &'w Weights, dropped: Vec<Vec<bool>>) -> Self {
        let n = w.layers.len();
        Self {
            w,
            dropped,
            keys: vec![Vec::new(); n],
            values: vec![Vec::new(); n],
        }
    }

    /// Feeds `token` at the next position.
    fn feed(&mut self, token: u32) -> Position {
        let (w, d) = (self.w, self.w.embedding.cols());
        let head_dim = d / w.n_heads;
        let mut h: Vec<f64> = w
            .embedding
            .row(token as usize)
            .iter()
            .map(|v| f64::from(*v))
            .collect();
        let mut mlp_inputs = Vec::new();
        for (li, l) in w.layers.iter().enumerate() {
            let x = l.attn_norm.apply(&h);
            let position = self.keys[li].len();
            let (mut q, mut k, v) = (matvec(&l.wq, &x), matvec(&l.wk, &x), matvec(&l.wv, &x));
            rope(&mut q, head_dim, position);
            rope(&mut k, head_dim, position);
            self.keys[li].push(k);
            self.values[li].push(v);
            let (keys, values) = (&self.keys[li], &self.values[li]);
            let mut attended = vec![0.0; d];
            for head in 0..w.n_heads {
                let span = head * head_dim..(head + 1) * head_dim;
                let scores: Vec<f64> = keys
                    .iter()
                    .map(|k| {
                        let dot: f64 = q[span.clone()]
                            .iter()
                            .zip(&k[span.clone()])
                            .map(|(a, b)| a * b)
                            .sum();
                        dot / (head_dim as f64).sqrt()
                    })
                    .collect();
                let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
                let denom: f64 = exps.iter().sum();
                for (e, v) in exps.iter().zip(values) {
                    for (o, v) in attended[span.clone()].iter_mut().zip(&v[span.clone()]) {
                        *o += e / denom * v;
                    }
                }
            }
            for (h, a) in h.iter_mut().zip(matvec(&l.wo, &attended)) {
                *h += a;
            }

            let x = l.mlp_norm.apply(&h);
            let (z, up) = (matvec(&l.gate, &x), matvec(&l.up, &x));
            for (r, (z, up)) in z.iter().zip(&up).enumerate() {
                let h3 = if self.dropped[li][r] {
                    0.0
                } else {
                    z.max(0.0) * up
                };
                for (h, w) in h.iter_mut().zip(l.down_t.row(r)) {
                    *h += h3 * f64::from(*w);
                }
            }
            mlp_inputs.push(x);
        }
        let logits = matvec(&w.lm_head, &w.final_norm.apply(&h));
        Position { mlp_inputs, logits }
    }
}

/// The step's MLP stage here: each layer's `f32` block or its int8 copy,
/// every column under the layer's skip words, every layer's normed input
/// recorded (`[layer]`, columns back to back).
struct Hook<'a> {
    int8: Option<&'a [FusedQuantizedMlp]>,
    skips: &'a [Vec<u64>],
    inputs: Vec<Vec<f32>>,
}

impl MlpHook for Hook<'_> {
    fn mlp(
        &mut self,
        layer: usize,
        mlp: &GatedMlp,
        xs: &[f32],
        pool: &ThreadPool,
        out: &mut MlpBuffers,
    ) {
        self.inputs[layer].extend_from_slice(xs);
        let words = &self.skips[layer];
        let skips = |_, word: usize| words[word];
        match self.int8 {
            Some(int8) => gated_mlp_into(&int8[layer], xs, skips, |_| false, pool, out),
            None => gated_mlp_into(mlp, xs, skips, |_| false, pool, out),
        }
    }
}

/// Largest `|got − want|` over the largest `|want|`.
fn relative_error(got: &[f32], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "lengths");
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = got
        .iter()
        .zip(want)
        .fold(0.0f64, |m, (g, w)| m.max((f64::from(*g) - w).abs()));
    diff / scale
}

/// Feeds a fixed prompt through `Model::step` and the reference over
/// `dtype` KV, with `f32` or int8 MLP storage and every row kept or a
/// seeded half of them dropped, and checks logits, MLP inputs and KV.
/// Prints the largest relative error seen.
fn check(cfg: &ModelConfig, dtype: KvDtype, int8: bool, masked: bool) {
    let case = format!("{} {dtype:?} int8 {int8} masked {masked}", cfg.name);
    let (model, mut weights) = build(cfg, 2024);
    let quantized: Vec<FusedQuantizedMlp> = model
        .layers()
        .iter()
        .map(|l| FusedQuantizedMlp::quantize(l.mlp()))
        .collect();
    if int8 {
        // The reference runs on the weights the int8 kernels hold.
        for (l, q) in weights.layers.iter_mut().zip(&quantized) {
            (l.gate, l.up, l.down_t) = (
                q.w_gate().dequantize(),
                q.w_up().dequantize(),
                q.w_down_t().dequantize(),
            );
        }
    }
    let mut rng = Prng::seed(7);
    let dropped: Vec<Vec<bool>> = (0..cfg.n_layers)
        .map(|_| (0..cfg.mlp_dim).map(|_| masked && rng.flip(0.5)).collect())
        .collect();
    let skips: Vec<Vec<u64>> = dropped
        .iter()
        .map(|rows| {
            let mut words = vec![0u64; rows.len().div_ceil(64)];
            for r in (0..rows.len()).filter(|&r| rows[r]) {
                words[r / 64] |= 1 << (r % 64);
            }
            words
        })
        .collect();

    let mut reference = Reference::new(&weights, dropped);
    let mut hook = Hook {
        int8: int8.then_some(quantized.as_slice()),
        skips: &skips,
        inputs: vec![Vec::new(); cfg.n_layers],
    };
    // Four-token blocks: the context is read over several runs.
    let kv_pool = KvBlockPool::with_budget_dtype(4, usize::MAX, dtype);
    let mut session = model.start_paged_session(&kv_pool);
    let (pool, mut scratch) = (ThreadPool::single(), PrefillScratch::new());
    let tokens: Vec<u32> = (0..STEPS.iter().sum())
        .map(|i| (i * 7 + 3) as u32 % cfg.vocab_size as u32)
        .collect();
    let bound = match dtype {
        KvDtype::F32 => F32_KV_BOUND,
        KvDtype::F16 => F16_KV_BOUND,
    };
    let mut worst = 0.0f64;
    let mut within = |got: &[f32], want: &[f64], what: String| {
        let err = relative_error(got, want);
        assert!(
            err <= bound,
            "{case}: {what} off by {err:e} of its scale (bound {bound:e})"
        );
        worst = worst.max(err);
    };

    let mut fed = 0;
    for n in STEPS {
        let chunk = &tokens[fed..fed + n];
        let mut logits = vec![Vector::zeros(0); n];
        model.step(
            &mut [(chunk, &mut session)],
            &mut hook,
            |_| true,
            &mut logits,
            &pool,
            &mut scratch,
        );
        for (c, (&token, got)) in chunk.iter().zip(&logits).enumerate() {
            let want = reference.feed(token);
            let position = fed + c;
            within(
                got.as_slice(),
                &want.logits,
                format!("position {position} logits"),
            );
            for (li, want) in want.mlp_inputs.iter().enumerate() {
                let got = &hook.inputs[li][position * cfg.hidden_dim..][..cfg.hidden_dim];
                within(
                    got,
                    want,
                    format!("position {position} layer {li} MLP input"),
                );
            }
        }
        fed += n;
    }

    for (li, cache) in session.caches.iter().enumerate() {
        assert_eq!(cache.len(), fed, "{case}: layer {li} KV length");
        for t in 0..fed {
            let (key, value) = match dtype {
                KvDtype::F32 => (cache.key(t).to_vec(), cache.value(t).to_vec()),
                KvDtype::F16 => {
                    let widen = |row: &[_]| {
                        row.iter()
                            .map(|v: &sparseinfer::tensor::F16| v.to_f32())
                            .collect::<Vec<f32>>()
                    };
                    (widen(cache.key_h(t)), widen(cache.value_h(t)))
                }
            };
            within(&key, &reference.keys[li][t], format!("layer {li} key {t}"));
            within(
                &value,
                &reference.values[li][t],
                format!("layer {li} value {t}"),
            );
        }
    }
    println!("{case}: largest relative error {worst:e}");
}

fn check_every_case(cfg: &ModelConfig) {
    for dtype in [KvDtype::F32, KvDtype::F16] {
        for int8 in [false, true] {
            for masked in [false, true] {
                check(cfg, dtype, int8, masked);
            }
        }
    }
}

#[test]
fn tiny_step_matches_the_f64_reference() {
    check_every_case(&ModelConfig::tiny());
}

#[test]
fn serve_sim_width_step_matches_the_f64_reference() {
    // `serve_sim`'s widths (k = 688 ends in a partial skip word) over two
    // layers.
    check_every_case(&ModelConfig {
        name: "serve-sim-width".into(),
        hidden_dim: 256,
        mlp_dim: 688,
        n_layers: 2,
        n_heads: 8,
        vocab_size: 256,
        max_seq_len: 64,
        activation: Activation::Relu,
        target_sparsity: 0.9,
    });
}
