//! Per-layer probes: each times one public function of one layer, from
//! outside, at the workload model's shapes. They say which layer a change
//! moved; the end-to-end metrics say whether that mattered.
//!
//! Every program item called here is on README.md's pinned list. Kernel
//! probes walk the model's layers in order, the way a decode step does, so
//! a weight matrix is not served from cache more than it is in decode.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use sparseinfer::model::attention::KvCache;
use sparseinfer::model::generator::WeightGenerator;
use sparseinfer::model::kv::{KvBlockPool, PagedKvCache, PrefixIndex};
use sparseinfer::model::trace::MlpTrace;
use sparseinfer::model::{KvDtype, Model, ModelConfig};
use sparseinfer::predictor::traits::PredictorScratch;
use sparseinfer::predictor::{
    AlphaSchedule, ConfusionCounts, SignBitPredictor, SkipMask, SparsityPredictor,
};
use sparseinfer::sparse::engine::{Engine, EngineBuilder};
use sparseinfer::sparse::mlp::{sparse_mlp_forward_into, sparse_mlp_q8_forward_into, MlpOptions};
use sparseinfer::sparse::request::{generate_streaming, GenerateRequest, TokenEvent};
use sparseinfer::sparse::{FusedQuantizedMlp, OpCounter};
use sparseinfer::tensor::gemv::gemv_into;
use sparseinfer::tensor::sign::pack_signs_into;
use sparseinfer::tensor::{ParallelOptions, ThreadPool, Vector, Workspace};
use sparseinfer_serve::http::{sse_event, Limits, RequestReader};
use sparseinfer_serve::{api, Server, ServerConfig};

use crate::report::Metrics;
use crate::rng::Rng;
use crate::setup::host_cores;
use crate::stats::median;
use crate::workloads::{BLOCK_TOKENS, MODEL_SEED, SHARED_PREFIX_TOKENS};

/// Median over batches of the mean nanoseconds one `op` takes. Batches
/// are sized to about two milliseconds from a first timed call, so fast
/// and slow operations both get a few dozen milliseconds in total.
fn time_ns(mut op: impl FnMut()) -> f64 {
    op();
    let first = Instant::now();
    op();
    let one = first.elapsed().as_nanos().max(1);
    let per_batch = (2_000_000 / one).clamp(1, 50_000) as u32;
    let means: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            start.elapsed().as_nanos() as f64 / f64::from(per_batch)
        })
        .collect();
    median(&means)
}

fn random_vector(rng: &mut Rng, len: usize) -> Vector {
    Vector::from_fn(len, |_| (rng.unit() - 0.5) as f32)
}

/// Runs every probe and files the results under their layer's name.
pub fn run(model: &Model, metrics: &mut Metrics) {
    let mut rng = Rng::new(0xB0B, 0);
    tensor(model, &mut rng, metrics);
    predictor_and_kernels(model, metrics);
    attention_and_prefill(model, &mut rng, metrics);
    paged_kv(model, &mut rng, metrics);
    serve(metrics);
    memory_bound(metrics);
}

/// The paper's regime: decode of `sim_7b`, whose 267 MB of weights stream
/// from DRAM every token, dense and sign-bit sparse back to back. Reported
/// on every workload and gated on none — DRAM-bound time on a shared host
/// moves by 2× with what the neighbours do — but the two numbers are taken
/// within a second of each other, so their *ratio* holds.
fn memory_bound(metrics: &mut Metrics) {
    let model = WeightGenerator::new(&ModelConfig::sim_7b(), MODEL_SEED).build();
    let median_gap_ms = |engine: &mut dyn Engine| {
        let mut at = Vec::new();
        let start = Instant::now();
        let _ = generate_streaming(
            engine,
            &GenerateRequest::new(&[5, 4, 3, 2]).max_new(12),
            |_| {
                at.push(start.elapsed().as_secs_f64() * 1e3);
            },
        );
        median(&at.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>())
    };
    let mut dense = EngineBuilder::new(&model)
        .build()
        .expect("a dense engine needs nothing validated");
    metrics.set(
        "engine.sim7b_dense_ms_per_token",
        median_gap_ms(dense.as_mut()),
    );
    let mut sparse = EngineBuilder::new(&model)
        .signbit(AlphaSchedule::uniform(1.0))
        .build()
        .expect("the predictor was packed from this model");
    metrics.set(
        "engine.sim7b_sparse_ms_per_token",
        median_gap_ms(sparse.as_mut()),
    );
}

fn tensor(model: &Model, rng: &mut Rng, metrics: &mut Metrics) {
    let single = ThreadPool::single();
    let layers = model.layers();
    let d = model.config().hidden_dim;
    let x = random_vector(rng, d);
    let mut out = Vector::zeros(0);
    let mut at = 0;
    let gemv_ns = time_ns(|| {
        let w = layers[at % layers.len()].mlp().w_gate();
        at += 1;
        gemv_into(w, black_box(&x), &single, &mut out);
        black_box(&out);
    });
    let w = layers[0].mlp().w_gate();
    // Bytes are computed from the shape (weights read once, input read,
    // output written), not measured.
    let bytes = ((w.rows() * w.cols() + w.cols() + w.rows()) * 4) as f64;
    metrics.set("tensor.gemv_us", gemv_ns / 1e3);
    metrics.set("tensor.gemv_gbps", bytes / gemv_ns);

    let mut words = Vec::new();
    let pack_ns = time_ns(|| {
        pack_signs_into(black_box(x.as_slice()), &mut words);
        black_box(&words);
    });
    metrics.set("tensor.pack_signs_ns", pack_ns);

    // Dispatch cost of the parked-worker pool: a trivially small job split
    // across two workers. Meaningless on one core, so not run there.
    let dispatch_ns = if host_cores() >= 2 {
        let pool = ThreadPool::new(ParallelOptions::threads(2));
        let mut buf = vec![0f32; 1024];
        time_ns(|| {
            pool.run_chunks(&mut buf, 1, |offset, chunk| chunk[0] = offset as f32);
            black_box(&buf);
        })
    } else {
        0.0
    };
    metrics.set("tensor.pool_dispatch_us", dispatch_ns / 1e3);
}

/// Predictor quality and cost, and the sparse kernels under its masks,
/// all on MLP inputs captured from a real dense decode of this model.
fn predictor_and_kernels(model: &Model, metrics: &mut Metrics) {
    let start = Instant::now();
    let predictor = SignBitPredictor::from_model(model, AlphaSchedule::uniform(1.0));
    metrics.set("predictor.setup_ms", start.elapsed().as_secs_f64() * 1e3);
    metrics.set("predictor.sign_bytes", predictor.memory_bytes() as f64);

    // 2 prompt + 2 generated positions × every layer.
    let trace = MlpTrace::capture(model, &[7, 11], 2);
    let samples = trace.samples();
    let mut scratch = PredictorScratch::new();
    let mut mask = SkipMask::all_dense(0);
    let mut counts = ConfusionCounts::default();
    let mut masks = Vec::with_capacity(samples.len());
    for s in samples {
        predictor.predict_into(s.layer, &s.x, &mut scratch, &mut mask);
        // The oracle on the same input: a row is truly skippable when its
        // gate pre-activation is not positive (ReLU zeroes it).
        let truth = SkipMask::from_fn(s.preact.len(), |i| s.preact.as_slice()[i] <= 0.0);
        counts.record(&mask, &truth);
        masks.push(mask.clone());
    }
    metrics.set("predictor.predicted_sparsity", counts.predicted_sparsity());
    // Useful skips over attempted skips, and over possible skips.
    metrics.set("predictor.precision", counts.precision());
    metrics.set("predictor.recall", counts.recall());

    let mut at = 0;
    let predict_ns = time_ns(|| {
        let s = &samples[at % samples.len()];
        at += 1;
        predictor.predict_into(s.layer, black_box(&s.x), &mut scratch, &mut mask);
        black_box(&mask);
    });
    metrics.set("predictor.predict_us", predict_ns / 1e3);

    let single = ThreadPool::single();
    let mut ws = Workspace::new();
    let mut effective = SkipMask::all_dense(0);
    let mut ops = OpCounter::default();
    let mut out = Vector::zeros(0);
    let layers = model.layers();
    // `None`: every row active under the base options — the dense MLP,
    // the base of the sparse/dense ratio.
    let all_active = SkipMask::all_dense(model.config().mlp_dim);
    let mut time_f32 = |predicted: Option<&[SkipMask]>, options: MlpOptions| {
        let mut at = 0;
        time_ns(|| {
            let i = at % samples.len();
            at += 1;
            let s = &samples[i];
            sparse_mlp_forward_into(
                layers[s.layer].mlp(),
                black_box(&s.x),
                predicted.map_or(&all_active, |m| &m[i]),
                options,
                &single,
                &mut ws,
                &mut effective,
                &mut ops,
                &mut out,
            );
            black_box(&out);
        })
    };
    let sparse_ns = time_f32(Some(&masks), MlpOptions::default());
    let base = MlpOptions {
        kernel_fusion: false,
        actual_sparsity: false,
    };
    let dense_ns = time_f32(None, base);
    metrics.set("sparse.mlp_us", sparse_ns / 1e3);
    metrics.set("sparse.dense_mlp_us", dense_ns / 1e3);

    let quantized: Vec<FusedQuantizedMlp> = layers
        .iter()
        .map(|l| FusedQuantizedMlp::quantize(l.mlp()))
        .collect();
    let mut at = 0;
    let q8_ns = time_ns(|| {
        let i = at % samples.len();
        at += 1;
        let s = &samples[i];
        sparse_mlp_q8_forward_into(
            &quantized[s.layer],
            black_box(&s.x),
            &masks[i],
            MlpOptions::default(),
            &single,
            &mut ws,
            &mut effective,
            &mut ops,
            &mut out,
        );
        black_box(&out);
    });
    metrics.set("sparse.mlp_q8_us", q8_ns / 1e3);
}

fn attention_and_prefill(model: &Model, rng: &mut Rng, metrics: &mut Metrics) {
    let d = model.config().hidden_dim;
    let single = ThreadPool::single();
    let mut ws = Workspace::new();
    let layer = &model.layers()[0];
    let h = random_vector(rng, d);
    for (ctx, name) in [
        (16usize, "model.attention_us_ctx16"),
        (256, "model.attention_us_ctx256"),
    ] {
        let mut cache = KvCache::with_capacity(d, ctx);
        for _ in 0..ctx - 1 {
            cache.push(
                random_vector(rng, d).as_slice(),
                random_vector(rng, d).as_slice(),
            );
        }
        // Norm, QKV, scores over `ctx` positions, output projection and
        // residual: the attention half of one layer at that context.
        let ns = time_ns(|| {
            let out = layer.attention_half_ws(black_box(&h), ctx - 1, &mut cache, &single, &mut ws);
            ws.give(out);
            cache.truncate(ctx - 1);
        });
        metrics.set(name, ns / 1e3);
    }

    // One dense position through the whole model at a short context: what
    // each prompt token costs in prefill.
    let mut session = model.start_session();
    let prefill_ns = time_ns(|| {
        if session.position >= 32 {
            session.reset();
        }
        black_box(model.forward_token(3, &mut session));
    });
    metrics.set("model.prefill_ms_per_token", prefill_ns / 1e6);
}

fn paged_kv(model: &Model, rng: &mut Rng, metrics: &mut Metrics) {
    let d = model.config().hidden_dim;
    let n_layers = model.config().n_layers;
    let key = random_vector(rng, d);
    let value = random_vector(rng, d);
    for (dtype, name) in [
        (KvDtype::F32, "model.kv_push_ns_f32"),
        (KvDtype::F16, "model.kv_push_ns_f16"),
    ] {
        let pool = KvBlockPool::with_budget_dtype(BLOCK_TOKENS, usize::MAX, dtype);
        let mut cache = PagedKvCache::new(&pool);
        const PUSHES: usize = 256;
        // Includes block growth every 16th push and handing the blocks
        // back, as a request's life does.
        let ns = time_ns(|| {
            for _ in 0..PUSHES {
                cache.push(black_box(key.as_slice()), value.as_slice());
            }
            cache.clear();
        });
        metrics.set(name, ns / PUSHES as f64);
    }

    // A 128-token prefix (8 blocks) across every layer: what admission
    // looks up and what a finished prefill publishes.
    let pool = KvBlockPool::new(BLOCK_TOKENS);
    let tokens: Vec<u32> = (0..SHARED_PREFIX_TOKENS as u32)
        .map(|t| t % 500 + 1)
        .collect();
    let mut caches: Vec<PagedKvCache> = (0..n_layers).map(|_| PagedKvCache::new(&pool)).collect();
    for cache in &mut caches {
        for _ in 0..SHARED_PREFIX_TOKENS {
            cache.push(key.as_slice(), value.as_slice());
        }
    }
    let per_layer: Vec<Vec<_>> = caches.iter().map(|c| c.block_refs().to_vec()).collect();
    let publish_ns = time_ns(|| {
        let mut index = PrefixIndex::new();
        black_box(index.publish(1, &tokens, BLOCK_TOKENS, &per_layer));
    });
    metrics.set("model.prefix_publish_us", publish_ns / 1e3);
    let mut index = PrefixIndex::new();
    index.publish(1, &tokens, BLOCK_TOKENS, &per_layer);
    let lookup_ns = time_ns(|| {
        black_box(index.lookup(1, black_box(&tokens), BLOCK_TOKENS, SHARED_PREFIX_TOKENS));
    });
    metrics.set("model.prefix_lookup_us", lookup_ns / 1e3);

    // Swap one layer's 160-token cache out to a cold buffer and back.
    let mut cache = PagedKvCache::new(&pool);
    for _ in 0..160 {
        cache.push(key.as_slice(), value.as_slice());
    }
    let mut out_ns = Vec::new();
    let mut back_ns = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        let cold = cache.swap_out();
        let t1 = Instant::now();
        cache.restore(&cold);
        out_ns.push((t1 - t0).as_nanos() as f64);
        back_ns.push(t1.elapsed().as_nanos() as f64);
    }
    metrics.set("model.kv_swap_out_us", median(&out_ns) / 1e3);
    metrics.set("model.kv_restore_us", median(&back_ns) / 1e3);
}

fn serve(metrics: &mut Metrics) {
    let prompt: Vec<String> = (1..=144).map(|t| t.to_string()).collect();
    let body = format!("{{\"prompt\":[{}],\"max_new\":24}}", prompt.join(","));
    let wire = format!(
        "POST /v1/generate HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let limits = Limits::default();
    let parse_ns = time_ns(|| {
        let mut reader = RequestReader::new();
        let request = reader
            .read_request(&mut Cursor::new(wire.as_bytes()), &limits)
            .expect("canned request is well-formed");
        let text = std::str::from_utf8(&request.body).expect("canned body is UTF-8");
        black_box(api::parse_generate_body(text).expect("canned body is valid"));
    });
    metrics.set("serve.parse_us", parse_ns / 1e3);

    let event = TokenEvent {
        index: 17,
        token: 311,
    };
    let encode_ns = time_ns(|| {
        black_box(sse_event(&api::token_event_json(black_box(&event))));
    });
    metrics.set("serve.sse_encode_us", encode_ns / 1e3);

    let binds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let server = Server::bind(ServerConfig::default()).expect("bind a loopback port");
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            drop(server);
            elapsed
        })
        .collect();
    metrics.set("serve.bind_ms", median(&binds));
}
