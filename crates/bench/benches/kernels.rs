//! Microbenchmarks of the Rust kernels: sign packing, the XOR/popcount
//! predictor, dense vs sparse GEMV, scalar vs unrolled inner loops, the
//! int8 GEMV, the shared weight pass of prefill, and the attention head
//! kernels. Self-timed with `std::time` (criterion is unavailable offline)
//! and printed, nothing is written: the *ratios* mirror Table I's
//! operation-count story, and a full run asserts the three of them that a
//! kernel regression would break. Serving latency is `benchmark/`'s job.
//!
//! ```text
//! cargo bench --bench kernels                  # full run, ratio floors asserted
//! SPARSEINFER_BENCH_QUICK=1 cargo bench ...    # 1-iter CI smoke, no floors
//! ```

use sparseinfer::model::generator::WeightGenerator;
use sparseinfer::model::PrefillScratch;
use sparseinfer::model::{Activation, ModelConfig};
use sparseinfer::predictor::{AlphaSchedule, SignBitPredictor, SkipMask, SparsityPredictor};
use sparseinfer::sparse::engine::EngineBuilder;
use sparseinfer::sparse::gemv::{sparse_gemv, sparse_gemv_into};
use sparseinfer::sparse::request::{generate, GenerateRequest};
use sparseinfer::sparse::OpCounter;
use sparseinfer::tensor::attn;
use sparseinfer::tensor::gemv::{gemm_rows_into, gemv, reference};
use sparseinfer::tensor::sign::{PackedSignMatrix, SignPack};
use sparseinfer::tensor::{BlockQuantizedMatrix, Matrix, Prng, ThreadPool, Vector};
use sparseinfer_bench::{bench_iters, quick, time_us};

fn layer_shapes() -> (Matrix, Vector) {
    // One sim-13B-sized gate layer.
    let cfg = ModelConfig::sim_13b();
    let mut rng = Prng::seed(1);
    let w = Matrix::from_fn(cfg.mlp_dim, cfg.hidden_dim, |_, _| {
        rng.normal(0.0, 0.1) as f32
    });
    let x = Vector::from_fn(cfg.hidden_dim, |_| rng.normal(0.4, 1.0) as f32);
    (w, x)
}

/// A larger matrix for the f32-vs-int8 section: 16 MB of f32 weights, so
/// both kernels stream from beyond the caches.
fn streaming_shapes() -> (Matrix, Vector) {
    let mut rng = Prng::seed(2);
    let w = Matrix::from_fn(4096, 1024, |_, _| rng.normal(0.0, 0.1) as f32);
    let x = Vector::from_fn(1024, |_| rng.normal(0.4, 1.0) as f32);
    (w, x)
}

fn main() {
    let (w, x) = layer_shapes();

    println!("== sign packing ==");
    time_us(
        "pack_gate_signs_once_per_model_load",
        bench_iters(50),
        || PackedSignMatrix::pack(&w),
    );
    time_us("pack_x_signs_per_token", bench_iters(2000), || {
        SignPack::pack(x.as_slice())
    });

    println!("\n== scalar (pre-PR) vs unrolled dense gemv ==");
    let t_scalar = time_us("dense_gemv_scalar_ref", bench_iters(100), || {
        reference::gemv(&w, &x)
    });
    let t_gemv = time_us("dense_gemv_unrolled", bench_iters(200), || gemv(&w, &x));
    println!(
        "unrolled gemv is {:.1}x the scalar baseline",
        t_scalar / t_gemv
    );

    println!("\n== prediction vs dense gate ==");
    let mut predictor =
        SignBitPredictor::from_gate_matrices(std::slice::from_ref(&w), AlphaSchedule::uniform(1.0));
    let t_pred = time_us("signbit_predictor", bench_iters(500), || {
        predictor.predict(0, &x)
    });
    println!(
        "predictor is {:.1}x cheaper than the dense gate",
        t_gemv / t_pred
    );

    println!("\n== sparse GEMV by sparsity ==");
    for sparsity_pct in [0u32, 50, 90, 92, 95] {
        let mask = SkipMask::from_fn(w.rows(), |r| {
            (r as u32 * 100 / w.rows() as u32) < sparsity_pct
        });
        let name = format!("sparse_gemv_{sparsity_pct}pct");
        let us = time_us(&name, bench_iters(200), || {
            let mut ops = OpCounter::default();
            sparse_gemv(&w, &x, &mask, &mut ops)
        });
        println!("  -> {:.2}x over the dense gemv", t_gemv / us);
    }

    println!("\n== speculative vs dense-only decode (single engine, greedy) ==");
    // One engine decoding end to end: dense-only stepping vs sparse drafts
    // verified densely in blocks. Tokens are bit-identical (asserted), so
    // the per-token gap is the lossless block-decode speedup at engine
    // level; the acceptance rate is printed and asserted nonzero, so the
    // second row cannot be a silently-disabled speculative path.
    let decode_model = {
        let mut cfg = ModelConfig::tiny();
        cfg.hidden_dim = 64;
        cfg.mlp_dim = 160;
        cfg.n_heads = 2;
        cfg.n_layers = 3;
        cfg.vocab_size = 300;
        WeightGenerator::new(&cfg, 99).build()
    };
    let decode_tokens = 24usize;
    let decode_req = GenerateRequest::new(&[1, 2, 3, 4]).max_new(decode_tokens);
    let mut dense_engine = EngineBuilder::new(&decode_model).build().unwrap();
    let mut spec_engine = {
        let draft = EngineBuilder::new(&decode_model)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap();
        let verify = EngineBuilder::new(&decode_model).build().unwrap();
        EngineBuilder::speculative(draft, verify, 4).unwrap()
    };
    assert_eq!(
        generate(dense_engine.as_mut(), &decode_req).unwrap().tokens,
        generate(spec_engine.as_mut(), &decode_req).unwrap().tokens,
        "speculation must be lossless"
    );
    let decode_iters = bench_iters(20);
    let t_dense_run = time_us("dense_decode_24_tokens", decode_iters, || {
        generate(dense_engine.as_mut(), &decode_req).unwrap()
    });
    let t_spec_run = time_us("speculative_decode_24_tokens", decode_iters, || {
        generate(spec_engine.as_mut(), &decode_req).unwrap()
    });
    let spec_stats = spec_engine
        .speculative_stats()
        .expect("speculative engine reports draft counters");
    assert!(
        spec_stats.drafted > 0 && spec_stats.accepted > 0,
        "speculative decode drafted/accepted nothing: the draft path is disabled"
    );
    println!(
        "speculative decode is {:.2}x dense-only; acceptance {}/{} ({:.1}%)",
        t_dense_run / t_spec_run,
        spec_stats.accepted,
        spec_stats.drafted,
        spec_stats.acceptance_rate() * 100.0,
    );

    println!("\n== sparse GEMV, f32 vs fused int8 block-dequant (4096x1024, one thread) ==");
    // The quantized serving hot path: one workload, 10% sparse, through the
    // one generic `sparse_gemv_into`, instantiated for the f32 matrix and for
    // the int8 one, which reads 1 byte/weight instead of 4 and dequantizes
    // per 32-column block inside the chunked dot loop. The pair is the
    // memory-bandwidth win of the int8 weight format.
    let (sw, sx) = streaming_shapes();
    let smask = SkipMask::from_fn(sw.rows(), |r| r % 10 == 0);
    let qw = BlockQuantizedMatrix::quantize(&sw);
    let single = ThreadPool::single();
    let mut out = Vector::zeros(0);
    let t_f32 = time_us("sparse_gemv_into_1t", bench_iters(100), || {
        let mut ops = OpCounter::default();
        sparse_gemv_into(&sw, &sx, &smask, &single, &mut ops, &mut out);
    });
    let t_q8 = time_us("sparse_gemv_q8_into_1t", bench_iters(100), || {
        let mut ops = OpCounter::default();
        sparse_gemv_into(&qw, &sx, &smask, &single, &mut ops, &mut out);
    });
    let over_f32 = t_f32 / t_q8;
    println!("  -> {over_f32:.2}x over f32");
    // The fused kernel must beat the f32 path it replaces. Skipped in the
    // quick smoke, whose single-iteration timings are noise.
    if !quick() {
        assert!(
            over_f32 >= 1.5,
            "fused int8 GEMV is only {over_f32:.2}x the f32 kernel at 1 thread \
             (expected >= 1.5x): the block-dequant fast path has regressed"
        );
    }

    println!("\n== one weight pass for B prompt positions (24 x 688x256, > L2) ==");
    // Prefill's kernel: `gemm_rows_into` loads each weight row once for B
    // activation columns. 24 gate-sized matrices walked in order are 17 MB,
    // so every pass streams its weights from beyond L2 as a model's layers
    // do; the figure is time per matrix *per position*. From two columns on
    // the rows go through the two-row tile; batch 8 is the 2 slots x 4
    // positions of a decoder-free scheduler tick.
    let mut rng = Prng::seed(3);
    let stack: Vec<Matrix> = (0..24)
        .map(|_| Matrix::from_fn(688, 256, |_, _| rng.normal(0.0, 0.1) as f32))
        .collect();
    let columns: Vec<f32> = (0..8 * 256).map(|_| rng.normal(0.4, 1.0) as f32).collect();
    let mut gemm_out = Vector::zeros(0);
    let mut per_position = [0.0f64; 4];
    for (bi, batch) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let name = format!("gemm_rows_688x256_b{batch}_us_per_position");
        let us = time_us(&name, bench_iters(40), || {
            for w in &stack {
                gemm_rows_into(
                    w,
                    &columns[..batch * 256],
                    batch,
                    |_| true,
                    &single,
                    &mut gemm_out,
                );
            }
        }) / (stack.len() * batch) as f64;
        per_position[bi] = us;
        println!("  -> {us:.2} us per matrix per position");
    }
    if !quick() {
        let ratio = per_position[2] / per_position[0];
        assert!(
            ratio <= 0.6,
            "a position at batch 4 costs {ratio:.2}x one at batch 1 (expected <= 0.6x): \
             the weight pass is no longer shared between positions"
        );
    }

    println!(
        "\n== two prefilling slots: each alone vs one batched step (8 x 256x688, one thread) =="
    );
    // What a scheduler tick with two prefilling slots does: before, each
    // slot's position through `forward_token`; now, both positions through
    // one `prefill_step`. Reported, not asserted.
    let serve_model = WeightGenerator::new(
        &ModelConfig {
            name: "serve-sim".into(),
            hidden_dim: 256,
            mlp_dim: 688,
            n_layers: 8,
            n_heads: 8,
            vocab_size: 512,
            max_seq_len: 512,
            activation: Activation::Relu,
            target_sparsity: 0.92,
        },
        20250,
    )
    .build();
    let positions = 16usize;
    let mut scratch = PrefillScratch::new();
    let alone = time_us("prefill_2slots_forward_token", bench_iters(10), || {
        let mut sessions = [
            serve_model.start_session_with_capacity(positions),
            serve_model.start_session_with_capacity(positions),
        ];
        for p in 0..positions {
            for (i, session) in sessions.iter_mut().enumerate() {
                let _ = serve_model.forward_token((p * 2 + i) as u32 + 1, session);
            }
        }
    }) / positions as f64;
    let batched = time_us("prefill_2slots_batched", bench_iters(10), || {
        let mut a = serve_model.start_session_with_capacity(positions);
        let mut b = serve_model.start_session_with_capacity(positions);
        for p in 0..positions {
            let p = p as u32 * 2;
            serve_model.prefill_step(
                &mut [(p + 1, &mut a), (p + 2, &mut b)],
                &single,
                &mut scratch,
            );
        }
    }) / positions as f64;
    println!(
        "  -> {alone:.0} us per tick alone, {batched:.0} us batched ({:.2}x)",
        alone / batched
    );

    println!("\n== prefill columns per weight pass (8 x 256x688, one thread) ==");
    // What the scheduler's cadence rule buys: the same 32 prompt positions
    // per session as one column per step (a slot beside a decoder), two, or
    // eight (two slots, a chunk of four each, in a decoder-free tick).
    let prompt: Vec<u32> = (1..=32).collect();
    for (sessions, chunk) in [(1usize, 1usize), (1, 2), (2, 4)] {
        let columns = sessions * chunk;
        let name = format!("prefill_step_688x256_cols{columns}_us_per_position");
        let us = time_us(&name, bench_iters(10), || {
            let mut lanes: Vec<_> = (0..sessions)
                .map(|_| serve_model.start_session_with_capacity(prompt.len()))
                .collect();
            for tokens in prompt.chunks(chunk) {
                let mut batch: Vec<_> = lanes.iter_mut().map(|lane| (tokens, lane)).collect();
                serve_model.prefill_step(&mut batch, &single, &mut scratch);
            }
        }) / (sessions * prompt.len()) as f64;
        println!("  -> {columns} column(s): {us:.0} us per position");
    }

    println!(
        "\n== one query over a cached context: scalar loops vs head kernels (d 256, 8 heads) =="
    );
    // `Attention::attend` over one f32 KV block (a single run), without the model
    // around it: per head the scores, the scalar softmax and the value sum,
    // once through `attn::reference` (the loops as they were, and the
    // portable path) and once through the dispatching entry points.
    let (d, heads) = (256usize, 8usize);
    let mut rng = Prng::seed(5);
    let q: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
    for ctx in [16usize, 128, 256] {
        let keys: Vec<f32> = (0..ctx * d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
        let values: Vec<f32> = (0..ctx * d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
        let mut scores = vec![0.0f32; ctx];
        let mut outs = [vec![0.0f32; d], vec![0.0f32; d]];
        let mut us = [0.0f64; 2];
        type ScoresFn = fn(&[f32], &[f32], usize, f32, &mut [f32]);
        type ValuesFn = fn(&[f32], &[f32], usize, &mut [f32]);
        let paths: [(&str, ScoresFn, ValuesFn); 2] = [
            (
                "reference",
                attn::reference::head_scores_into,
                attn::reference::add_weighted_values,
            ),
            (
                "vectorised",
                |q, keys, stride, scale, scores| {
                    attn::head_scores_into(&[q], keys, stride, scale, &mut [scores])
                },
                |weights, values, stride, out| {
                    attn::add_weighted_values(&[weights], values, stride, &mut [out])
                },
            ),
        ];
        for (p, (path, scores_into, add_values)) in paths.into_iter().enumerate() {
            let name = format!("attend_f32_ctx{ctx}_{path}_us");
            let out = &mut outs[p];
            us[p] = time_us(&name, bench_iters(2000), || {
                out.fill(0.0);
                let head_dim = d / heads;
                let scale = 1.0 / (head_dim as f32).sqrt();
                for h in 0..heads {
                    let span = h * head_dim..(h + 1) * head_dim;
                    scores_into(&q[span.clone()], &keys[span.start..], d, scale, &mut scores);
                    let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut denom = 0.0f32;
                    for s in scores.iter_mut() {
                        *s = (*s - max).exp();
                        denom += *s;
                    }
                    for s in scores.iter_mut() {
                        *s /= denom;
                    }
                    add_values(&scores, &values[span.start..], d, &mut out[span]);
                }
            });
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&outs[0]),
            bits(&outs[1]),
            "ctx {ctx}: the kernels moved a bit"
        );
        println!("  -> ctx {ctx}: {:.2}x", us[0] / us[1]);
        if cfg!(target_feature = "avx2") && ctx == 128 && !quick() {
            assert!(
                us[1] <= 0.7 * us[0],
                "vectorised attention is {:.2}x the scalar loops' time at ctx 128 \
                 (expected <= 0.7x): the head kernels have lost their vector path",
                us[1] / us[0]
            );
        }
    }

    println!(
        "\n== four queries of one session: four one-query calls vs one multi-query pass \
         (ctx 125-128, d 256, 8 heads, scores + value sum) =="
    );
    // A decoder-free tick feeds a prefilling session four consecutive
    // positions, which attend over 125..=128 cached positions. Per head the
    // two kernels of all four queries, once as four one-query calls of each
    // entry point (what each column did alone) and once as one call each
    // with all four, which transposes each key block and loads each value
    // row once for the four. The scalar softmax between them is the same
    // loop either way and is left out.
    let ctx = 128usize;
    let contexts: [usize; 4] = std::array::from_fn(|i| ctx - 3 + i);
    let queries: Vec<Vec<f32>> = (0..4)
        .map(|_| (0..d).map(|_| rng.normal(0.0, 1.0) as f32).collect())
        .collect();
    let weights: Vec<Vec<f32>> = contexts
        .iter()
        .map(|&c| (0..c).map(|_| rng.uniform() as f32 / c as f32).collect())
        .collect();
    let keys: Vec<f32> = (0..ctx * d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
    let values: Vec<f32> = (0..ctx * d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
    let head_dim = d / heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    // Per path: every query's scores, then every query's output.
    let fresh = || {
        (
            [(); 4].map(|_| vec![0.0f32; ctx]),
            [(); 4].map(|_| vec![0.0f32; d]),
        )
    };
    let mut results = [fresh(), fresh()];
    let mut us = [0.0f64; 2];
    for (p, together) in [1usize, 4].into_iter().enumerate() {
        let name = match together {
            1 => format!("attend_f32_ctx{ctx}_4x1q_us"),
            _ => format!("attend_f32_ctx{ctx}_4q_us"),
        };
        let (scores, outs) = &mut results[p];
        us[p] = time_us(&name, bench_iters(2000), || {
            for h in 0..heads {
                let span = h * head_dim..(h + 1) * head_dim;
                for first in (0..4).step_by(together) {
                    let group = first..first + together;
                    let mut qs = [&[][..]; 4];
                    let mut ws = [&[][..]; 4];
                    let mut ss: [&mut [f32]; 4] = Default::default();
                    let mut os: [&mut [f32]; 4] = Default::default();
                    let members = (scores[group.clone()].iter_mut())
                        .zip(outs[group.clone()].iter_mut())
                        .zip(queries[group.clone()].iter().zip(&weights[group.clone()]))
                        .zip(&contexts[group]);
                    for (i, (((s, o), (q, w)), &c)) in members.enumerate() {
                        qs[i] = &q[span.clone()];
                        ws[i] = w;
                        ss[i] = &mut s[..c];
                        os[i] = &mut o[span.clone()];
                        os[i].fill(0.0);
                    }
                    let n = together;
                    attn::head_scores_into(&qs[..n], &keys[span.start..], d, scale, &mut ss[..n]);
                    attn::add_weighted_values(&ws[..n], &values[span.start..], d, &mut os[..n]);
                }
            }
        });
    }
    let bits = |(scores, outs): &([Vec<f32>; 4], [Vec<f32>; 4])| {
        (scores.iter().chain(outs))
            .flat_map(|v| v.iter().map(|f| f.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&results[0]),
        bits(&results[1]),
        "the multi-query pass moved a bit"
    );
    let ratio = us[1] / us[0];
    println!("  -> one pass for four queries takes {ratio:.2}x the four calls' time");
    if cfg!(target_feature = "avx2") && !quick() {
        assert!(
            ratio <= 0.6,
            "four queries in one pass take {ratio:.2}x the time of four one-query calls \
             (expected <= 0.6x): the key blocks are no longer shared between queries"
        );
    }
}
