//! Microbenchmarks of the Rust kernels: sign packing, the XOR/popcount
//! predictor, dense vs sparse GEMV, scalar vs unrolled inner loops, the
//! int8 GEMV, the shared weight pass of prefill, and the attention head
//! kernels. Self-timed with `std::time` (criterion is unavailable offline)
//! and printed, nothing is written: the *ratios* mirror Table I's
//! operation-count story, and a full run checks the ones a kernel
//! regression would break, failing at the end if any floor is not met.
//! Serving latency is `benchmark/`'s job.
//!
//! ```text
//! cargo bench --bench kernels                  # full run, ratio floors checked
//! SPARSEINFER_BENCH_QUICK=1 cargo bench ...    # 1-iter CI smoke, no floors
//! ```

use sparseinfer::model::generator::WeightGenerator;
use sparseinfer::model::trace::MlpTrace;
use sparseinfer::model::{Activation, Model, ModelConfig, PrefillScratch};
use sparseinfer::predictor::traits::PredictorScratch;
use sparseinfer::predictor::{AlphaSchedule, SignBitPredictor, SkipMask, SparsityPredictor};
use sparseinfer::sparse::engine::EngineBuilder;
use sparseinfer::sparse::mlp::{sparse_mlp_forward_into, MlpOptions};
use sparseinfer::sparse::quantized::FusedQuantizedMlp;
use sparseinfer::sparse::request::{generate, GenerateRequest};
use sparseinfer::sparse::OpCounter;
use sparseinfer::tensor::attn;
use sparseinfer::tensor::gemv::{dot, gemm_rows_into, gemv, gemv_into, reference, Rows};
use sparseinfer::tensor::sign::{PackedSignMatrix, SignPack};
use sparseinfer::tensor::{BlockQuantizedMatrix, Matrix, Prng, ThreadPool, Vector, Workspace, F16};
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
    let mut floors = Floors::default();
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
    // A sparse GEMV is the GEMM kernel at one column with the mask as its
    // row filter: a skipped row is never loaded.
    let single = ThreadPool::single();
    let mut out = Vector::zeros(0);
    for sparsity_pct in [0u32, 50, 90, 92, 95] {
        let mask = SkipMask::from_fn(w.rows(), |r| {
            (r as u32 * 100 / w.rows() as u32) < sparsity_pct
        });
        let kept = kept_rows(&mask);
        let name = format!("sparse_gemv_{sparsity_pct}pct");
        let us = time_us(&name, bench_iters(200), || {
            gemm_rows_into(&w, x.as_slice(), 1, Rows::Kept(&kept), &single, &mut out);
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

    println!("\n== one column: the row tile vs one `dot` per row (one thread) ==");
    // A decode GEMV: `gemv_into` takes four rows per pass through the
    // AVX2 tile at one column (four independent 8-lane chains), against a
    // loop of `gemv::dot`, the one-chain kernel every row ran before. A
    // 512x256 LM head sits in L2; the 24 688x256 matrices of the next
    // section (17 MB) stream from beyond it. Outputs asserted bit-equal; in
    // a full run the tile takes at most 0.9x the loop's time on each shape.
    let mut rng = Prng::seed(3);
    let stack: Vec<Matrix> = (0..24)
        .map(|_| Matrix::from_fn(688, 256, |_, _| rng.normal(0.0, 0.1) as f32))
        .collect();
    let columns: Vec<f32> = (0..8 * 256).map(|_| rng.normal(0.4, 1.0) as f32).collect();
    let head = [Matrix::from_fn(512, 256, |_, _| {
        rng.normal(0.0, 0.1) as f32
    })];
    let column = Vector::from_vec(columns[..256].to_vec());
    for (shape, matrices, iters) in [("512x256", &head[..], 2000), ("24x688x256", &stack, 40)] {
        let ratio = one_column_rows(shape, matrices, &column, bench_iters(iters));
        floors.check(ratio <= 0.9, || {
            format!(
                "gemv_into takes {ratio:.2}x the per-row loop's time on {shape} \
                 (expected <= 0.9x): one-column rows no longer go through the tile"
            )
        });
    }

    println!("\n== sparse GEMV, f32 vs fused int8 block-dequant (4096x1024, one thread) ==");
    // The quantized serving hot path: one workload, 10% sparse, through the
    // one generic `gemm_rows_into`, instantiated for the f32 matrix and for
    // the int8 one, which reads 1 byte/weight instead of 4 and dequantizes
    // per 32-column block inside the chunked dot loop. The pair is the
    // memory-bandwidth win of the int8 weight format.
    let (sw, sx) = streaming_shapes();
    let skept = kept_rows(&SkipMask::from_fn(sw.rows(), |r| r % 10 == 0));
    let qw = BlockQuantizedMatrix::quantize(&sw);
    let t_f32 = time_us("sparse_gemv_into_1t", bench_iters(100), || {
        gemm_rows_into(&sw, sx.as_slice(), 1, Rows::Kept(&skept), &single, &mut out);
    });
    let t_q8 = time_us("sparse_gemv_q8_into_1t", bench_iters(100), || {
        gemm_rows_into(&qw, sx.as_slice(), 1, Rows::Kept(&skept), &single, &mut out);
    });
    let over_f32 = t_f32 / t_q8;
    println!("  -> {over_f32:.2}x over f32");
    // The fused kernel must beat the f32 path it replaces.
    floors.check(over_f32 >= 1.5, || {
        format!(
            "fused int8 GEMV is only {over_f32:.2}x the f32 kernel at 1 thread \
             (expected >= 1.5x): the block-dequant fast path has regressed"
        )
    });

    println!("\n== one weight pass for B prompt positions (24 x 688x256, > L2) ==");
    // Prefill's kernel: `gemm_rows_into` loads each weight row once for B
    // activation columns. 24 gate-sized matrices walked in order are 17 MB,
    // so every pass streams its weights from beyond L2 as a model's layers
    // do; the figure is time per matrix *per position*. At every batch the
    // rows go through the four-row tile, two columns per pass; batch 8 is
    // the 2 slots x 4 positions of a decoder-free scheduler tick. In a full
    // run a position at batch 2 and at batch 4 costs at most 0.6x one at
    // batch 1; in quick mode too, every column of a batched pass has the
    // bits of that column's pass alone.
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
                    Rows::All,
                    &single,
                    &mut gemm_out,
                );
            }
        }) / (stack.len() * batch) as f64;
        per_position[bi] = us;
        println!("  -> {us:.2} us per matrix per position");
    }
    for (bi, batch) in [(1, 2), (2, 4)] {
        let ratio = per_position[bi] / per_position[0];
        floors.check(ratio <= 0.6, || {
            format!(
                "a position at batch {batch} costs {ratio:.2}x one at batch 1 (expected <= \
                 0.6x): the weight pass is no longer shared between positions"
            )
        });
    }
    let mut alone = Vector::zeros(0);
    for batch in [2usize, 4, 8] {
        let xs = &columns[..batch * 256];
        for w in &stack {
            gemm_rows_into(w, xs, batch, Rows::All, &single, &mut gemm_out);
            for (b, x) in xs.chunks_exact(256).enumerate() {
                gemm_rows_into(w, x, 1, Rows::All, &single, &mut alone);
                let batched = gemm_out.iter().skip(b).step_by(batch);
                assert!(
                    batched
                        .zip(alone.iter())
                        .all(|(a, o)| a.to_bits() == o.to_bits()),
                    "column {b} of a batch-{batch} pass differs from its one-column pass"
                );
            }
        }
    }

    println!("\n== the AVX2 tile vs the 512-bit body, B columns per pass (24 x 688x256) ==");
    // The four-row tile's two bodies over the same rows, walked as
    // `gemm_rows_into` walks them (four quarters of a matrix in step), at
    // the column counts a prefill step feeds them; time per matrix and
    // position, medians of alternating rounds. Outputs asserted bit-equal
    // to each other and to `gemm_rows_into`'s; in a full run the 512-bit
    // body takes at most 0.85x the AVX2 tile's time at 8 columns.
    match wide_body_rows(&stack, &columns, bench_iters(10)) {
        Some(ratio) => floors.check(ratio <= 0.85, || {
            format!(
                "the 512-bit body takes {ratio:.2}x the AVX2 tile's time at 8 columns \
                 (expected <= 0.85x): two chains per zmm no longer pay"
            )
        }),
        None => println!("  skipped: this CPU or build has no AVX-512F body"),
    }

    println!(
        "\n== two prefilling slots: each alone vs one batched step (8 x 256x688, one thread) =="
    );
    // What a scheduler tick with two prefilling slots does: each slot's
    // position through a one-column step of its own, or both positions
    // through one two-column `prefill_step`. Reported, not asserted.
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
    let alone = time_us("prefill_2slots_alone", bench_iters(10), || {
        let mut sessions = [
            serve_model.start_session_with_capacity(positions),
            serve_model.start_session_with_capacity(positions),
        ];
        for p in 0..positions {
            for (i, session) in sessions.iter_mut().enumerate() {
                let token = (p * 2 + i) as u32 + 1;
                serve_model.prefill_step(&mut [(token, session)], &single, &mut scratch);
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

    println!("\n== sparse MLP over the kept rows (serve-sim, 8 x 688x256, one thread) ==");
    sparse_mlp_rows(&serve_model, bench_iters(200));

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
    // `Attention::attend` over one KV block (a single run), without the
    // model around it, for each stored dtype: the `f16` rows read the same
    // values rounded to `F16` words. The full run's floors: the vector
    // path at ctx 128 takes at most 0.7x (f32, ~0.55 measured) and 0.3x
    // (f16, whose scalar loop widens each word in software: ~0.14) of the
    // scalar loops' time.
    let (d, heads) = (256usize, 8usize);
    let mut rng = Prng::seed(5);
    let q: Vec<f32> = (0..d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
    let half = |slab: &[f32]| slab.iter().map(|v| F16::from_f32(*v)).collect::<Vec<_>>();
    for ctx in [16usize, 128, 256] {
        let keys: Vec<f32> = (0..ctx * d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
        let values: Vec<f32> = (0..ctx * d).map(|_| rng.normal(0.0, 1.0) as f32).collect();
        let rows = [
            (
                "f32",
                0.7,
                one_query_rows("f32", &q, (&keys, &values), heads),
            ),
            (
                "f16",
                0.3,
                one_query_rows("f16", &q, (&half(&keys), &half(&values)), heads),
            ),
        ];
        for (dtype, floor, [reference, vectorised]) in rows {
            if VECTOR_ATTENTION && ctx == 128 {
                floors.check(vectorised <= floor * reference, || {
                    format!(
                        "vectorised {dtype} attention is {:.2}x the scalar loops' time at ctx \
                         128 (expected <= {floor}x): the head kernels have lost their vector path",
                        vectorised / reference
                    )
                });
            }
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
    // loop either way and is left out. In a full run one pass takes at
    // most 0.6x (f32, ~0.47 measured) and 0.7x (f16, ~0.53) the four calls'
    // time.
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
    let session = (&queries[..], &weights[..], &contexts);
    let ratios = [
        (
            "f32",
            0.6,
            four_query_rows("f32", session, (&keys, &values), heads),
        ),
        (
            "f16",
            0.7,
            four_query_rows("f16", session, (&half(&keys), &half(&values)), heads),
        ),
    ];
    for (dtype, floor, ratio) in ratios {
        if VECTOR_ATTENTION {
            floors.check(ratio <= floor, || {
                format!(
                    "four {dtype} queries in one pass take {ratio:.2}x the time of four \
                     one-query calls (expected <= {floor}x): the key blocks are no longer \
                     shared between queries"
                )
            });
        }
    }
    floors.finish();
}

/// The ratio floors of a full run (the quick smoke's single-iteration
/// timings are noise, so it checks none). Each verdict prints where it is
/// measured; the run fails once, at the end, listing every floor not met,
/// so one floor that trips cannot hide the verdicts of the ones after it.
#[derive(Default)]
struct Floors {
    not_met: Vec<String>,
}

impl Floors {
    fn check(&mut self, holds: bool, failure: impl FnOnce() -> String) {
        if quick() {
            return;
        }
        if holds {
            println!("  -> floor holds");
        } else {
            let failure = failure();
            println!("  -> FLOOR NOT MET: {failure}");
            self.not_met.push(failure);
        }
    }

    fn finish(self) {
        assert!(
            self.not_met.is_empty(),
            "{} ratio floor(s) not met:\n{}",
            self.not_met.len(),
            self.not_met.join("\n")
        );
    }
}

/// `gemv_into` of one column through every matrix, then a loop of
/// `gemv::dot` over every row of them; asserts the outputs bit-equal and
/// returns the first path's time over the second's.
fn one_column_rows(shape: &str, matrices: &[Matrix], x: &Vector, iters: usize) -> f64 {
    let single = ThreadPool::single();
    let mut tiled = vec![Vector::zeros(0); matrices.len()];
    let mut rows: Vec<Vec<f32>> = matrices.iter().map(|w| vec![0.0; w.rows()]).collect();
    let t_tile = time_us(&format!("gemv_into_{shape}_us"), iters, || {
        for (w, out) in matrices.iter().zip(&mut tiled) {
            gemv_into(w, x, &single, out);
        }
    });
    let t_rows = time_us(&format!("dot_per_row_{shape}_us"), iters, || {
        for (w, out) in matrices.iter().zip(&mut rows) {
            for (r, slot) in out.iter_mut().enumerate() {
                *slot = dot(w.row(r), x.as_slice());
            }
        }
    });
    for (tiled, rows) in tiled.iter().zip(&rows) {
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(tiled.as_slice()),
            bits(rows),
            "{shape}: the tile moved a bit"
        );
    }
    let ratio = t_tile / t_rows;
    println!("  -> {shape}: the tile takes {ratio:.2}x the per-row loop's time");
    ratio
}

/// The tile module of the library, compiled into this bench so both of its
/// bodies can be timed side by side on the same data without widening the
/// library's API; `use super::…` inside it resolves to these imports.
#[cfg(target_feature = "avx2")]
#[allow(dead_code)]
#[path = "../../tensor/src/gemv/avx2.rs"]
mod avx2;
#[cfg(target_feature = "avx2")]
use sparseinfer::tensor::gemv::{COLUMN_GROUP, DOT_LANES};

/// Per column count, every matrix's rows four at a time through the AVX2
/// tile and through the 512-bit body; asserts the outputs bit-equal (to
/// each other and to `gemm_rows_into`) and returns the 512-bit body's time
/// over the AVX2 tile's at 8 columns, or `None` where that body cannot run.
#[cfg(target_feature = "avx2")]
fn wide_body_rows(matrices: &[Matrix], columns: &[f32], rounds: usize) -> Option<f64> {
    if !std::arch::is_x86_feature_detected!("avx512f") {
        return None;
    }
    let single = ThreadPool::single();
    let mut ratio = None;
    for batch in [8usize, 4] {
        let xs = &columns[..batch * 256];
        let fresh = || vec![vec![0.0f32; 688 * batch]; matrices.len()];
        let mut outs = [fresh(), fresh()];
        // The `i`-th row of each quarter of a matrix together, as
        // `gemm_rows_into` walks a worker's rows.
        let pass = |wide: bool, outs: &mut [Vec<f32>]| {
            for (w, out) in matrices.iter().zip(outs.iter_mut()) {
                let part = w.rows() / 4;
                for i in 0..part {
                    let rows = [0, 1, 2, 3].map(|p| p * part + i);
                    let spans = rows.map(|r| r * batch..(r + 1) * batch);
                    let mut out = out.get_disjoint_mut(spans).expect("four distinct rows");
                    let rows = rows.map(|r| w.row(r));
                    match wide {
                        true => assert_eq!(avx2::wide_tiles(rows, xs, &mut out), batch),
                        false => avx2::narrow_tiles(rows, xs, &mut out, 0),
                    }
                }
            }
        };
        let mut times = [Vec::new(), Vec::new()];
        for _ in 0..rounds.max(1) {
            for (body, (times, outs)) in times.iter_mut().zip(outs.iter_mut()).enumerate() {
                let start = std::time::Instant::now();
                pass(body == 1, outs);
                let us = start.elapsed().as_secs_f64() * 1e6;
                times.push(us / (matrices.len() * batch) as f64);
            }
        }
        let [narrow, wide] = times.map(|mut t| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        });
        println!(
            "  {batch} columns: AVX2 tile {narrow:.2} us, 512-bit body {wide:.2} us per matrix \
             and position ({:.2}x)",
            wide / narrow
        );
        let mut library = Vector::zeros(0);
        for (w, (narrow, wide)) in matrices.iter().zip(outs[0].iter().zip(&outs[1])) {
            gemm_rows_into(w, xs, batch, Rows::All, &single, &mut library);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(narrow),
                bits(wide),
                "{batch} columns: the bodies differ"
            );
            assert_eq!(
                bits(narrow),
                bits(library.as_slice()),
                "{batch} columns: the library differs"
            );
        }
        if batch == 8 {
            ratio = Some(wide / narrow);
        }
    }
    ratio
}

/// Without AVX2 there is neither body.
#[cfg(not(target_feature = "avx2"))]
fn wide_body_rows(_: &[Matrix], _: &[f32], _: usize) -> Option<f64> {
    None
}

/// One decode token's MLP stage per layer, as the benchmark's `sparse.mlp_us`
/// and `sparse.mlp_q8_us` probes run it: `sparse_mlp_forward_into` on the
/// MLP inputs of a dense decode of `model` (`MlpTrace::capture`) under
/// their sign-bit masks, over the `f32` block and over its int8 copy, and
/// the same with every row skipped — the cost of a layer beyond its kept
/// rows. Prints microseconds per layer; the work follows the kept rows, so
/// the skipped row is the floor under the other two.
fn sparse_mlp_rows(model: &Model, iters: usize) {
    let predictor = SignBitPredictor::from_model(model, AlphaSchedule::uniform(1.0));
    let trace = MlpTrace::capture(model, &[7, 11], 2);
    let samples = trace.samples();
    let masks: Vec<SkipMask> = samples
        .iter()
        .map(|s| {
            let mut mask = SkipMask::all_dense(0);
            predictor.predict_into(s.layer, &s.x, &mut PredictorScratch::new(), &mut mask);
            mask
        })
        .collect();
    let skipped = masks.iter().map(SkipMask::sparsity).sum::<f64>() / masks.len() as f64;
    println!(
        "  {} layer inputs, {:.1} % of rows skipped",
        samples.len(),
        skipped * 100.0
    );
    let quantized: Vec<FusedQuantizedMlp> = model
        .layers()
        .iter()
        .map(|l| FusedQuantizedMlp::quantize(l.mlp()))
        .collect();
    let none = SkipMask::all_skipped(model.config().mlp_dim);
    let (single, mut ws) = (ThreadPool::single(), Workspace::new());
    let (mut effective, mut ops, mut out) = (
        SkipMask::all_dense(0),
        OpCounter::default(),
        Vector::zeros(0),
    );
    let mut layer = |name: &str,
                     run: &mut dyn FnMut(
        usize,
        &mut Workspace,
        &mut SkipMask,
        &mut OpCounter,
        &mut Vector,
    )| {
        let us = time_us(name, iters, || {
            for i in 0..samples.len() {
                run(i, &mut ws, &mut effective, &mut ops, &mut out);
            }
        }) / samples.len() as f64;
        println!("  -> {us:.2} us per layer");
    };
    let options = MlpOptions::default();
    layer(
        "sparse_mlp_f32_serve_sim",
        &mut |i, ws, effective, ops, out| {
            let s = &samples[i];
            let mlp = model.layers()[s.layer].mlp();
            sparse_mlp_forward_into(
                mlp, &s.x, &masks[i], options, &single, ws, effective, ops, out,
            );
        },
    );
    layer(
        "sparse_mlp_q8_serve_sim",
        &mut |i, ws, effective, ops, out| {
            let s = &samples[i];
            let mlp = &quantized[s.layer];
            sparse_mlp_forward_into(
                mlp, &s.x, &masks[i], options, &single, ws, effective, ops, out,
            );
        },
    );
    layer(
        "sparse_mlp_f32_serve_sim_no_row_kept",
        &mut |i, ws, effective, ops, out| {
            let s = &samples[i];
            let mlp = model.layers()[s.layer].mlp();
            sparse_mlp_forward_into(mlp, &s.x, &none, options, &single, ws, effective, ops, out);
        },
    );
}

/// The rows `mask` keeps, as the row list the kernels take.
fn kept_rows(mask: &SkipMask) -> Vec<u32> {
    mask.active_rows().map(|r| r as u32).collect()
}

/// Whether the attention kernels run their vector path in this build.
const VECTOR_ATTENTION: bool = cfg!(all(target_feature = "avx2", target_feature = "f16c"));

/// Per head the scores, the scalar softmax and the value sum of one query
/// over one run of `E` words, once through `attn::reference` (the loops as
/// they were, and the portable path) and once through the dispatching
/// entry points; asserts the outputs bit-equal and returns the two times.
fn one_query_rows<E: attn::KvWord>(
    dtype: &str,
    q: &[f32],
    (keys, values): (&[E], &[E]),
    heads: usize,
) -> [f64; 2] {
    let d = q.len();
    let ctx = keys.len() / d;
    let mut scores = vec![0.0f32; ctx];
    let mut outs = [vec![0.0f32; d], vec![0.0f32; d]];
    let mut us = [0.0f64; 2];
    let paths: [(&str, ScoresFn<E>, ValuesFn<E>); 2] = [
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
        let name = format!("attend_{dtype}_ctx{ctx}_{path}_us");
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
        "{dtype} ctx {ctx}: the kernels moved a bit"
    );
    println!("  -> {dtype} ctx {ctx}: {:.2}x", us[0] / us[1]);
    us
}

/// One query's scores over a run of `E` words, through a kernel.
type ScoresFn<E> = fn(&[f32], &[E], usize, f32, &mut [f32]);
/// One query's value sum over a run of `E` words, through a kernel.
type ValuesFn<E> = fn(&[f32], &[E], usize, &mut [f32]);

/// The four queries of one session (their weights and contexts) over one
/// run of `E` words: both kernels of every head as four one-query calls,
/// then as one multi-query call each; asserts every score and output
/// bit-equal and returns the second path's time over the first's.
fn four_query_rows<E: attn::KvWord>(
    dtype: &str,
    (queries, weights, contexts): (&[Vec<f32>], &[Vec<f32>], &[usize; 4]),
    (keys, values): (&[E], &[E]),
    heads: usize,
) -> f64 {
    let d = queries[0].len();
    let ctx = keys.len() / d;
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
            1 => format!("attend_{dtype}_ctx{ctx}_4x1q_us"),
            _ => format!("attend_{dtype}_ctx{ctx}_4q_us"),
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
        "the {dtype} multi-query pass moved a bit"
    );
    let ratio = us[1] / us[0];
    println!("  -> {dtype}: one pass for four queries takes {ratio:.2}x the four calls' time");
    ratio
}
