//! Serving throughput under churn: a closed, pre-loaded batch (the
//! unbounded `Scheduler`) vs the continuous-batching `Scheduler`.
//!
//! The workload models real serving traffic: requests arrive over time
//! (staggered submission), mix dense and sparse engines over one shared
//! predictor, and a few cancel mid-flight. The closed baseline cannot
//! accept the stragglers until a fresh batch starts, so it serves the same
//! request set as one pre-loaded batch — the best it can do — while the
//! continuous scheduler admits each request the tick after it arrives
//! within `max_slots` and a KV block budget.
//!
//! Reported per engine-side: overall decode throughput (µs per emitted
//! token over the whole run) and the p50/p95 **inter-token latency** — the
//! gap between consecutive tokens of the same request, the quantity a
//! streaming client actually experiences. Machine-readable copies land in
//! `BENCH_serving.json` (skipped under `SPARSEINFER_BENCH_QUICK=1`, which
//! runs one small pass as a CI smoke).

use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use sparseinfer::eval::harness::{gold_continuations, teacher_forced_engine_matches};
use sparseinfer::eval::TaskSuite;
use sparseinfer::model::kv::KvDtype;
use sparseinfer::model::{generator::WeightGenerator, Model, ModelConfig};
use sparseinfer::predictor::{AlphaSchedule, SignBitPredictor, SparsityPredictor};
use sparseinfer::sparse::engine::{
    Engine, EngineBuilder, QuantizedWeights, SpeculativeStats, WeightFormat,
};
use sparseinfer::sparse::request::{GenerateRequest, Priority};
use sparseinfer::sparse::scheduler::{RequestHandle, Scheduler, SchedulerConfig};
use sparseinfer_bench::{bench_iters, BenchReport};
use sparseinfer_serve::{Client, Server, ServerConfig};

fn bench_model() -> Model {
    let mut cfg = ModelConfig::tiny();
    cfg.hidden_dim = 64;
    cfg.mlp_dim = 160;
    cfg.n_heads = 2;
    cfg.n_layers = 3;
    cfg.vocab_size = 300;
    WeightGenerator::new(&cfg, 99).build()
}

/// One synthetic churn request: prompt, budget, and (for the continuous
/// side) the tick it arrives on plus whether it cancels mid-flight.
struct ChurnRequest {
    prompt: Vec<u32>,
    max_new: usize,
    arrives_at_tick: usize,
    cancel_after_tokens: Option<usize>,
}

fn churn_workload(n: usize) -> Vec<ChurnRequest> {
    (0..n)
        .map(|i| ChurnRequest {
            prompt: (1..=(2 + (i % 4) as u32)).collect(),
            max_new: 6 + (i % 5) * 3,
            // A third arrive up front, the rest trickle in.
            arrives_at_tick: if i.is_multiple_of(3) { 0 } else { 2 * i },
            cancel_after_tokens: if i % 8 == 5 { Some(3) } else { None },
        })
        .collect()
}

fn engine_for<'m>(
    model: &'m Model,
    shared: &Arc<dyn SparsityPredictor>,
    i: usize,
) -> Box<dyn Engine + 'm> {
    if i.is_multiple_of(2) {
        EngineBuilder::new(model)
            .predictor_shared(Arc::clone(shared))
            .build()
            .unwrap()
    } else {
        EngineBuilder::new(model).build().unwrap()
    }
}

/// The same dense/sparse engine mix as [`engine_for`], decoding over one
/// process-wide int8 copy of the MLP weights.
fn engine_for_int8<'m>(
    model: &'m Model,
    shared: &Arc<dyn SparsityPredictor>,
    quantized: &Arc<QuantizedWeights>,
    i: usize,
) -> Box<dyn Engine + 'm> {
    let builder = if i.is_multiple_of(2) {
        EngineBuilder::new(model).predictor_shared(Arc::clone(shared))
    } else {
        EngineBuilder::new(model)
    };
    builder
        .quantized_shared(Arc::clone(quantized))
        .build()
        .unwrap()
}

/// Timing of one serving run: total wall time plus every inter-token gap.
struct RunTiming {
    tokens: usize,
    total_us: f64,
    inter_token_us: Vec<f64>,
}

/// Per-request last-emission clock feeding the inter-token gaps.
struct GapClock {
    start: Instant,
    last: Vec<Option<f64>>,
    gaps: Vec<f64>,
    tokens: usize,
}

impl GapClock {
    fn new(n_requests: usize) -> Self {
        Self {
            start: Instant::now(),
            last: vec![None; n_requests],
            gaps: Vec::new(),
            tokens: 0,
        }
    }

    fn observe(&mut self, request: usize) {
        let now = self.start.elapsed().as_secs_f64() * 1e6;
        if let Some(prev) = self.last[request] {
            self.gaps.push(now - prev);
        }
        self.last[request] = Some(now);
        self.tokens += 1;
    }

    fn finish(self) -> RunTiming {
        RunTiming {
            tokens: self.tokens,
            total_us: self.start.elapsed().as_secs_f64() * 1e6,
            inter_token_us: self.gaps,
        }
    }
}

/// Closed baseline: every request pre-loaded into one unbounded scheduler.
fn run_closed(
    model: &Model,
    shared: &Arc<dyn SparsityPredictor>,
    work: &[ChurnRequest],
) -> RunTiming {
    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    for (i, r) in work.iter().enumerate() {
        batch
            .submit(
                engine_for(model, shared, i),
                &GenerateRequest::new(&r.prompt).max_new(r.max_new),
            )
            .unwrap();
    }
    let mut clock = GapClock::new(work.len());
    let _ = batch.run_streaming(|ev| clock.observe(ev.request));
    clock.finish()
}

/// Continuous scheduler: requests join on their arrival tick, some cancel
/// mid-flight, admission bounded by slots and a KV block budget. With
/// `quantized` the same engine mix decodes over the shared int8 weights,
/// so the row pair (f32 vs int8) is the quantized serving speedup on an
/// otherwise identical workload.
fn run_continuous(
    model: &Model,
    shared: &Arc<dyn SparsityPredictor>,
    quantized: Option<&Arc<QuantizedWeights>>,
    work: &[ChurnRequest],
) -> RunTiming {
    let mut scheduler = Scheduler::new(SchedulerConfig {
        max_slots: 4,
        block_tokens: 8,
        kv_block_budget: usize::MAX,
        ..SchedulerConfig::default()
    });
    let mut clock = GapClock::new(work.len());
    let mut handles: Vec<Option<sparseinfer::sparse::scheduler::RequestHandle>> =
        (0..work.len()).map(|_| None).collect();
    let mut emitted = vec![0usize; work.len()];
    let mut next = 0usize; // requests are submitted in arrival order
    let mut tick = 0usize;
    loop {
        while next < work.len() && work[next].arrives_at_tick <= tick {
            let engine = match quantized {
                Some(q) => engine_for_int8(model, shared, q, next),
                None => engine_for(model, shared, next),
            };
            let handle = scheduler
                .submit(
                    engine,
                    &GenerateRequest::new(&work[next].prompt).max_new(work[next].max_new),
                )
                .unwrap();
            handles[next] = Some(handle);
            next += 1;
        }
        let unfinished = scheduler.tick(|ev| {
            clock.observe(ev.request);
            emitted[ev.request] += 1;
        });
        for (i, r) in work.iter().enumerate() {
            if let (Some(cancel_at), Some(handle)) = (r.cancel_after_tokens, handles[i].as_ref()) {
                if emitted[i] >= cancel_at {
                    handle.cancel();
                }
            }
        }
        tick += 1;
        if unfinished == 0 && next == work.len() {
            break;
        }
    }
    clock.finish()
}

/// Peak physical KV-pool bytes over one fixed 4-request decode pass with
/// the pool storing at `dtype`. The workload and block layout are
/// deterministic, so the returned byte count is exact — the f16 run must
/// come out at precisely half the f32 run, and the caller asserts it.
fn peak_kv_bytes(model: &Model, shared: &Arc<dyn SparsityPredictor>, dtype: KvDtype) -> u64 {
    let mut scheduler = Scheduler::new(SchedulerConfig {
        max_slots: 4,
        block_tokens: 8,
        kv_block_budget: usize::MAX,
        prefix_cache: false,
        kv_dtype: dtype,
        ..SchedulerConfig::default()
    });
    for i in 0..4usize {
        scheduler
            .submit(
                engine_for(model, shared, i),
                &GenerateRequest::new(&[1, 2, 3 + i as u32]).max_new(8),
            )
            .unwrap();
    }
    let mut peak = 0u64;
    loop {
        let unfinished = scheduler.tick(|_| {});
        peak = peak.max(scheduler.kv_pool().in_use_bytes());
        if unfinished == 0 {
            break;
        }
    }
    peak
}

/// The signature both serving-side runners share.
type Runner = dyn Fn(&Model, &Arc<dyn SparsityPredictor>, &[ChurnRequest]) -> RunTiming;

/// One cold-vs-warm shared-prefix pass: mean time-to-first-token, peak KV
/// bytes, and total skipped prefill tokens.
struct PrefixTiming {
    mean_ttft_us: f64,
    peak_kv_bytes: u64,
    skipped_tokens: u64,
}

/// Shared-prefix churn: `n_requests` requests share one `prefix_len`-token
/// system prompt (plus a unique tail token each). Cold runs with the
/// prefix cache off; warm runs with it on, pre-warmed by a single
/// publisher request, so every measured request attaches the shared
/// blocks instead of re-prefilling and re-storing them.
fn run_prefix(
    model: &Model,
    shared: &Arc<dyn SparsityPredictor>,
    n_requests: usize,
    prefix_len: usize,
    prefix_cache: bool,
) -> PrefixTiming {
    let mut scheduler = Scheduler::new(SchedulerConfig {
        max_slots: n_requests + 1, // admission is not the variable here
        block_tokens: 8,
        kv_block_budget: usize::MAX,
        prefix_cache,
        prefix_retain_blocks: 4096,
        ..SchedulerConfig::default()
    });
    let prefix: Vec<u32> = (0..prefix_len).map(|i| (i * 5 % 290 + 1) as u32).collect();
    let mut id_base = 0usize;
    if prefix_cache {
        // Publish the prefix once, outside the measured window.
        let mut p = prefix.clone();
        p.push(295);
        scheduler
            .submit(
                engine_for(model, shared, 0),
                &GenerateRequest::new(&p).max_new(1),
            )
            .unwrap();
        while scheduler.tick(|_| {}) > 0 {}
        let _ = scheduler.take_finished();
        id_base = 1;
    }
    let start = Instant::now();
    for i in 0..n_requests {
        let mut p = prefix.clone();
        p.push(270 + (i % 8) as u32);
        scheduler
            .submit(
                engine_for(model, shared, i),
                &GenerateRequest::new(&p).max_new(4),
            )
            .unwrap();
    }
    let mut first_token_us: Vec<Option<f64>> = vec![None; n_requests];
    let mut peak_kv_bytes = 0u64;
    loop {
        let unfinished = scheduler.tick(|ev| {
            let slot = first_token_us[ev.request - id_base].get_or_insert(0.0);
            if *slot == 0.0 {
                *slot = start.elapsed().as_secs_f64() * 1e6;
            }
        });
        peak_kv_bytes = peak_kv_bytes.max(scheduler.kv_pool().in_use_bytes());
        if unfinished == 0 {
            break;
        }
    }
    let skipped_tokens: u64 = scheduler
        .take_finished()
        .iter()
        .map(|o| o.prefill_skipped_tokens as u64)
        .sum();
    // Directional guard, shape-independent (so it holds in the quick CI
    // smoke too): with a pre-warmed cache every measured request must
    // attach the full shared prefix. The JSON regression gate is
    // one-sided (it only flags increases), so "prefix caching silently
    // stopped working" is caught here, by the bench run itself failing.
    if prefix_cache {
        let expected = (n_requests * prefix_len) as u64;
        assert_eq!(
            skipped_tokens, expected,
            "warm shared-prefix run skipped {skipped_tokens} prefill tokens, \
             expected {expected}: the prefix cache is not attaching"
        );
    }
    let observed: Vec<f64> = first_token_us.into_iter().flatten().collect();
    PrefixTiming {
        mean_ttft_us: observed.iter().sum::<f64>() / observed.len() as f64,
        peak_kv_bytes,
        skipped_tokens,
    }
}

/// Latency profile of one loopback pass: per-request time-to-first-token
/// plus every inter-token gap, in arrival order.
#[derive(Default)]
struct LoopbackTiming {
    tokens: usize,
    total_us: f64,
    ttft_us: Vec<f64>,
    inter_token_us: Vec<f64>,
}

fn loopback_prompt(i: usize) -> Vec<u32> {
    vec![
        (i as u32 % 37) + 1,
        (i as u32 * 3) % 40 + 2,
        (i as u32 % 29) + 11,
    ]
}

const LOOPBACK_MAX_NEW: usize = 8;

fn loopback_scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        max_slots: 4,
        block_tokens: 8,
        kv_block_budget: usize::MAX,
        // Distinct short prompts: nothing to share, and a cold pool per
        // pass keeps the two sides' working sets identical.
        prefix_cache: false,
        ..SchedulerConfig::default()
    }
}

/// The serving tax, measured: the same requests the in-process reference
/// runs, but over real loopback sockets — `n_requests` spread across
/// `connections` keep-alive client connections, each worker streaming its
/// share sequentially while all workers run concurrently.
fn run_http_loopback(
    model: &Model,
    shared: &Arc<dyn SparsityPredictor>,
    n_requests: usize,
    connections: usize,
) -> LoopbackTiming {
    let bodies: Vec<String> = (0..n_requests)
        .map(|i| {
            let p = loopback_prompt(i);
            format!(
                r#"{{"prompt":[{},{},{}],"max_new":{LOOPBACK_MAX_NEW}}}"#,
                p[0], p[1], p[2]
            )
        })
        .collect();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: loopback_scheduler_config(),
        connection_threads: connections,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let handle = server.handle();
    let addr = handle.addr();

    let timing = Mutex::new(LoopbackTiming::default());
    // All workers prime their connection, then meet here, so the measured
    // window covers only request streaming — not server boot, socket
    // establishment, or the acceptor's poll interval (server tuning
    // constants whose amortisation would differ between the quick and
    // full workload shapes and confound the regression gate).
    let ready = Barrier::new(connections + 1);
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| {
            server.serve(&|_req| {
                EngineBuilder::new(model)
                    .predictor_shared(Arc::clone(shared))
                    .build()
            })
        });
        let mut start = Instant::now();
        std::thread::scope(|workers| {
            for w in 0..connections {
                let bodies = &bodies;
                let timing = &timing;
                let ready = &ready;
                workers.spawn(move || {
                    let mut conn = Client::connect(addr).expect("connect");
                    assert_eq!(conn.get("/healthz").expect("prime").status, 200);
                    ready.wait();
                    for body in bodies.iter().skip(w).step_by(connections) {
                        let sent = Instant::now();
                        let mut stream =
                            conn.post_streaming("/v1/generate", body).expect("admitted");
                        let mut ttft = None;
                        let mut last: Option<Instant> = None;
                        let mut gaps = Vec::new();
                        let mut tokens = 0usize;
                        while let Some(event) = stream.next_event().expect("stream") {
                            if event.get("token").is_none() {
                                continue; // the terminal finish event
                            }
                            let now = Instant::now();
                            if let Some(prev) = last {
                                gaps.push(now.duration_since(prev).as_secs_f64() * 1e6);
                            } else {
                                ttft = Some(now.duration_since(sent).as_secs_f64() * 1e6);
                            }
                            last = Some(now);
                            tokens += 1;
                        }
                        conn = stream.into_client().expect("keep-alive reuse");
                        let mut t = timing.lock().unwrap();
                        t.tokens += tokens;
                        t.ttft_us.extend(ttft);
                        t.inter_token_us.extend(gaps);
                    }
                });
            }
            ready.wait();
            start = Instant::now();
        });
        timing.lock().unwrap().total_us = start.elapsed().as_secs_f64() * 1e6;
        handle.shutdown();
        server_thread.join().expect("server thread");
    });
    timing.into_inner().unwrap()
}

/// The in-process reference for the loopback workload: the same requests
/// straight into a `Scheduler`, no sockets, no JSON — the gap between
/// this and [`run_http_loopback`] is the HTTP frontend's overhead.
fn run_inproc_loopback(
    model: &Model,
    shared: &Arc<dyn SparsityPredictor>,
    n_requests: usize,
) -> LoopbackTiming {
    let mut scheduler = Scheduler::new(loopback_scheduler_config());
    let start = Instant::now();
    for i in 0..n_requests {
        scheduler
            .submit(
                EngineBuilder::new(model)
                    .predictor_shared(Arc::clone(shared))
                    .build()
                    .unwrap(),
                &GenerateRequest::new(&loopback_prompt(i)).max_new(LOOPBACK_MAX_NEW),
            )
            .unwrap();
    }
    let mut timing = LoopbackTiming::default();
    let mut last: Vec<Option<Instant>> = vec![None; n_requests];
    loop {
        let unfinished = scheduler.tick(|ev| {
            let now = Instant::now();
            match last[ev.request] {
                Some(prev) => timing
                    .inter_token_us
                    .push(now.duration_since(prev).as_secs_f64() * 1e6),
                None => timing
                    .ttft_us
                    .push(now.duration_since(start).as_secs_f64() * 1e6),
            }
            last[ev.request] = Some(now);
            timing.tokens += 1;
        });
        if unfinished == 0 {
            break;
        }
    }
    timing.total_us = start.elapsed().as_secs_f64() * 1e6;
    timing
}

/// Draft depth of the speculative serving rows.
const SPECULATIVE_K: usize = 4;

/// The staggered-arrival workload decoded end to end through the
/// scheduler, every request on either a dense-only engine or a
/// sparse-draft/dense-verify speculative one. Tokens are bit-identical
/// either way (the library's determinism-test surface); the rows differ
/// only in wall clock, so the pair is the end-to-end speculative speedup.
fn run_speculative_serving(
    model: &Model,
    work: &[ChurnRequest],
    speculative: bool,
) -> (RunTiming, SpeculativeStats) {
    let mut scheduler = Scheduler::new(SchedulerConfig {
        max_slots: 4,
        block_tokens: 8,
        kv_block_budget: usize::MAX,
        ..SchedulerConfig::default()
    });
    let mut clock = GapClock::new(work.len());
    let mut next = 0usize;
    let mut tick = 0usize;
    loop {
        while next < work.len() && work[next].arrives_at_tick <= tick {
            let engine: Box<dyn Engine> = if speculative {
                let draft = EngineBuilder::new(model)
                    .signbit(AlphaSchedule::uniform(1.0))
                    .build()
                    .unwrap();
                let verify = EngineBuilder::new(model).build().unwrap();
                EngineBuilder::speculative(draft, verify, SPECULATIVE_K).unwrap()
            } else {
                EngineBuilder::new(model).build().unwrap()
            };
            scheduler
                .submit(
                    engine,
                    &GenerateRequest::new(&work[next].prompt).max_new(work[next].max_new),
                )
                .unwrap();
            next += 1;
        }
        let unfinished = scheduler.tick(|ev| clock.observe(ev.request));
        tick += 1;
        if unfinished == 0 && next == work.len() {
            break;
        }
    }
    let stats = scheduler.speculative_stats();
    (clock.finish(), stats)
}

/// One priority-mix pass: time-to-first-token of every High arrival, plus
/// how many evictions the scheduler performed to get them started.
struct PriorityTiming {
    high_ttft_us: Vec<f64>,
    preemptions: usize,
}

const PRIORITY_BATCH_MAX_NEW: usize = 48;
const PRIORITY_HIGH_MAX_NEW: usize = 4;
/// Ticks between consecutive High arrivals.
const PRIORITY_HIGH_GAP_TICKS: usize = 6;

/// Saturating batch-class load with sporadic High arrivals: every slot and
/// every KV block is held by long `Batch` requests (finished ones are
/// replenished immediately), and a short `High` request lands every few
/// ticks. With `preemption` the scheduler swaps out a Batch victim and
/// starts the High request at once; without it the High request waits at
/// the head of the queue for a natural Batch completion. The difference
/// is the latency win the whole mechanism exists for, so it is reported
/// as High-side TTFT percentiles under both policies.
fn run_priority_mix(
    model: &Model,
    shared: &Arc<dyn SparsityPredictor>,
    n_high: usize,
    preemption: bool,
) -> PriorityTiming {
    // bench_model() has 3 layers. Batch worst case: 3 + 48 tokens at
    // 8 tokens/block -> 7 blocks x 3 layers = 21; the budget fits exactly
    // three of them, so a High arrival (2 + 4 tokens -> 3 blocks) can only
    // start by evicting — or, without preemption, waiting out — a Batch
    // occupant.
    let mut scheduler = Scheduler::new(SchedulerConfig {
        max_slots: 3,
        block_tokens: 8,
        kv_block_budget: 63,
        prefix_cache: false,
        preemption,
        ..SchedulerConfig::default()
    });
    fn submit_batch<'m>(
        scheduler: &mut Scheduler<'m>,
        model: &'m Model,
        shared: &Arc<dyn SparsityPredictor>,
        seq: &mut usize,
    ) -> RequestHandle {
        let handle = scheduler
            .submit(
                engine_for(model, shared, *seq),
                &GenerateRequest::new(&[5, 6, 7])
                    .max_new(PRIORITY_BATCH_MAX_NEW)
                    .priority(Priority::Batch),
            )
            .expect("batch admission");
        *seq += 1;
        handle
    }
    let mut engine_seq = 0usize;
    let mut batch_handles: Vec<RequestHandle> = (0..3)
        .map(|_| submit_batch(&mut scheduler, model, shared, &mut engine_seq))
        .collect();
    // Reach steady mid-decode saturation before the first High arrival.
    for _ in 0..4 {
        scheduler.tick(|_| {});
    }

    let start = Instant::now();
    // (id, handle, first-token time) per High request.
    let mut high: Vec<(usize, RequestHandle, Option<f64>)> = Vec::new();
    let mut until_next_high = 0usize;
    loop {
        if high.len() < n_high && until_next_high == 0 {
            let handle = scheduler
                .submit(
                    engine_for(model, shared, engine_seq),
                    &GenerateRequest::new(&[9, 10])
                        .max_new(PRIORITY_HIGH_MAX_NEW)
                        .priority(Priority::High),
                )
                .expect("high admission");
            engine_seq += 1;
            high.push((handle.id(), handle, None));
            until_next_high = PRIORITY_HIGH_GAP_TICKS;
        }
        until_next_high = until_next_high.saturating_sub(1);
        let now_us = |start: &Instant| start.elapsed().as_secs_f64() * 1e6;
        scheduler.tick(|ev| {
            if let Some(entry) = high
                .iter_mut()
                .find(|(id, _, first)| *id == ev.request && first.is_none())
            {
                entry.2 = Some(now_us(&start));
            }
        });
        // Replenish finished Batch requests so the load stays saturating.
        for out in scheduler.take_finished() {
            if high.iter().any(|(id, _, _)| *id == out.id) {
                continue;
            }
            batch_handles.push(submit_batch(&mut scheduler, model, shared, &mut engine_seq));
        }
        if high.len() == n_high && high.iter().all(|(_, _, first)| first.is_some()) {
            break;
        }
    }
    // Every High TTFT is in hand; wind the pass down.
    for handle in batch_handles.iter().chain(high.iter().map(|(_, h, _)| h)) {
        handle.cancel();
    }
    while scheduler.tick(|_| {}) > 0 {}
    PriorityTiming {
        high_ttft_us: high
            .into_iter()
            .map(|(_, _, first)| first.unwrap())
            .collect(),
        preemptions: scheduler.preemption_stats().preemptions,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let quick = std::env::var_os("SPARSEINFER_BENCH_QUICK").is_some();
    let model = bench_model();
    let shared: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
        &model,
        AlphaSchedule::uniform(1.0),
    ));
    let n_requests = if quick { 6 } else { 24 };
    let work = churn_workload(n_requests);
    let passes = bench_iters(5);
    let quantized = Arc::new(QuantizedWeights::quantize(&model));

    println!(
        "serving churn workload: {n_requests} requests x {passes} pass(es), \
         max_slots=4, block_tokens=8\n"
    );

    let mut report = BenchReport::new("serving");
    let mut measure = |name: &str, runner: &Runner| {
        let mut tokens = 0usize;
        let mut total_us = 0.0f64;
        let mut gaps: Vec<f64> = Vec::new();
        for _ in 0..passes {
            let timing = runner(&model, &shared, &work);
            tokens += timing.tokens;
            total_us += timing.total_us;
            gaps.extend(timing.inter_token_us);
        }
        gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let us_per_token = total_us / tokens as f64;
        let p50 = percentile(&gaps, 0.50);
        let p95 = percentile(&gaps, 0.95);
        println!(
            "{name:<24} {:>8} tokens  {us_per_token:>9.2} us/token \
             ({:>9.0} tok/s)  itl p50 {p50:>8.2} us  p95 {p95:>8.2} us",
            tokens,
            1e6 / us_per_token,
        );
        report.record(&format!("{name}_throughput"), tokens, us_per_token, None, 1);
        report.record(&format!("{name}_itl_p50"), gaps.len(), p50, None, 1);
        report.record(&format!("{name}_itl_p95"), gaps.len(), p95, None, 1);
    };
    measure("closed_batch", &run_closed);
    measure("continuous_scheduler", &|m, s, w| {
        run_continuous(m, s, None, w)
    });
    let q = Arc::clone(&quantized);
    measure("continuous_int8", &move |m, s, w| {
        run_continuous(m, s, Some(&q), w)
    });

    // Shared-prefix churn: the prefix-cache win, cold vs warm. Reported as
    // mean time-to-first-token (prefill latency a client sees) and peak
    // physical KV bytes; the warm side also reports how much prefill it
    // skipped. Byte/token records carry their value in the generic
    // `us_per_iter` JSON column (see `BenchReport::record_value`).
    let prefix_requests = if quick { 4 } else { 8 };
    let prefix_len = if quick { 24 } else { 48 };
    println!(
        "\nshared-prefix workload: {prefix_requests} requests x {passes} pass(es), \
         {prefix_len}-token shared prompt, block_tokens=8\n"
    );
    for (name, warm) in [("prefix_cold", false), ("prefix_warm", true)] {
        let mut ttft_sum = 0.0f64;
        let mut peak_bytes = 0u64;
        let mut skipped = 0u64;
        for _ in 0..passes {
            let timing = run_prefix(&model, &shared, prefix_requests, prefix_len, warm);
            ttft_sum += timing.mean_ttft_us;
            peak_bytes = peak_bytes.max(timing.peak_kv_bytes);
            skipped += timing.skipped_tokens;
        }
        let ttft = ttft_sum / passes as f64;
        println!(
            "{name:<24} ttft {ttft:>9.2} us  kv peak {peak_bytes:>9} B  \
             skipped {:>5} tokens/pass",
            skipped / passes as u64,
        );
        report.record(&format!("{name}_ttft"), prefix_requests, ttft, None, 1);
        report.record_value(
            &format!("{name}_kv_peak_bytes"),
            prefix_requests,
            peak_bytes as f64,
        );
        if warm {
            report.record_value(
                &format!("{name}_skipped_tokens_per_pass"),
                prefix_requests,
                (skipped / passes as u64) as f64,
            );
        }
    }

    // Loopback HTTP serving: the same request set through the network
    // frontend (real sockets, SSE streaming, keep-alive reuse) and
    // straight into the scheduler, so the serving tax — TTFT and
    // inter-token latency added by the HTTP layer — is a subtraction of
    // two rows in the same report.
    let lb_requests = if quick { 4 } else { 16 };
    let lb_connections = if quick { 2 } else { 4 };
    println!(
        "\nloopback HTTP workload: {lb_requests} requests over {lb_connections} \
         connections x {passes} pass(es), max_new={LOOPBACK_MAX_NEW}\n"
    );
    let mut measure_loopback = |name: &str, runner: &dyn Fn() -> LoopbackTiming| {
        let mut tokens = 0usize;
        let mut total_us = 0.0f64;
        let mut ttfts: Vec<f64> = Vec::new();
        let mut gaps: Vec<f64> = Vec::new();
        for _ in 0..passes {
            let timing = runner();
            assert_eq!(
                timing.tokens,
                lb_requests * LOOPBACK_MAX_NEW,
                "{name}: every request must stream its full budget"
            );
            tokens += timing.tokens;
            total_us += timing.total_us;
            ttfts.extend(timing.ttft_us);
            gaps.extend(timing.inter_token_us);
        }
        ttfts.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let us_per_token = total_us / tokens as f64;
        let ttft_p50 = percentile(&ttfts, 0.50);
        let ttft_p95 = percentile(&ttfts, 0.95);
        let itl_p50 = percentile(&gaps, 0.50);
        let itl_p95 = percentile(&gaps, 0.95);
        println!(
            "{name:<24} {tokens:>8} tokens  {us_per_token:>9.2} us/token  \
             ttft p50 {ttft_p50:>8.2} us  p95 {ttft_p95:>8.2} us  \
             itl p50 {itl_p50:>8.2} us  p95 {itl_p95:>8.2} us"
        );
        report.record(&format!("{name}_throughput"), tokens, us_per_token, None, 1);
        report.record(&format!("{name}_ttft_p50"), ttfts.len(), ttft_p50, None, 1);
        report.record(&format!("{name}_ttft_p95"), ttfts.len(), ttft_p95, None, 1);
        report.record(&format!("{name}_itl_p50"), gaps.len(), itl_p50, None, 1);
        report.record(&format!("{name}_itl_p95"), gaps.len(), itl_p95, None, 1);
    };
    measure_loopback("http_loopback", &|| {
        run_http_loopback(&model, &shared, lb_requests, lb_connections)
    });
    measure_loopback("inproc_loopback", &|| {
        run_inproc_loopback(&model, &shared, lb_requests)
    });

    // Priority mix: the TTFT a High request sees when the pool is
    // saturated by Batch-class work, with preemption on (evict-and-swap a
    // Batch victim) vs off (wait for a natural completion). The gap
    // between the two p95 rows is the headline win of priority
    // scheduling; the eviction count is recorded so the JSON shows the
    // price paid for it.
    let pm_high = if quick { 3 } else { 8 };
    println!(
        "\npriority-mix workload: {pm_high} High arrivals x {passes} pass(es) over a \
         saturated Batch pool, max_slots=3, budget=63 blocks\n"
    );
    for (name, preemption) in [("priority_preempt", true), ("priority_wait", false)] {
        let mut ttfts: Vec<f64> = Vec::new();
        let mut evictions = 0usize;
        for _ in 0..passes {
            let timing = run_priority_mix(&model, &shared, pm_high, preemption);
            // Shape-independent guard (the JSON gate is one-sided): with
            // preemption on and a fully reserved budget, High arrivals
            // must actually evict — if this stops happening the bench
            // itself fails rather than silently recording the waiting
            // path twice.
            if preemption {
                assert!(
                    timing.preemptions >= 1,
                    "saturated priority-mix pass ran without a single eviction"
                );
            } else {
                assert_eq!(timing.preemptions, 0, "preemption disabled must not evict");
            }
            ttfts.extend(timing.high_ttft_us);
            evictions += timing.preemptions;
        }
        ttfts.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let p50 = percentile(&ttfts, 0.50);
        let p95 = percentile(&ttfts, 0.95);
        println!(
            "{name:<24} {:>8} High reqs  ttft p50 {p50:>9.2} us  p95 {p95:>9.2} us  \
             evictions {:>3}/pass",
            ttfts.len(),
            evictions / passes,
        );
        report.record(&format!("{name}_high_ttft_p50"), ttfts.len(), p50, None, 1);
        report.record(&format!("{name}_high_ttft_p95"), ttfts.len(), p95, None, 1);
        if preemption {
            report.record_value(
                "priority_preempt_evictions_per_pass",
                pm_high,
                (evictions / passes) as f64,
            );
        }
    }

    // Speculative decoding: the staggered-arrival workload dense-only vs
    // with sparse drafts and dense verification. Tokens are bit-identical
    // by construction, so the throughput gap is the lossless speedup; the
    // acceptance rate is recorded and asserted nonzero so the JSON gate
    // cannot pass on a silently-disabled speculative path.
    let spec_requests = if quick { 4 } else { 12 };
    let mut spec_work = churn_workload(spec_requests);
    for r in &mut spec_work {
        // No mid-flight cancels: both sides must decode the same tokens.
        r.cancel_after_tokens = None;
    }
    println!(
        "\nspeculative workload: {spec_requests} requests x {passes} pass(es), \
         sparse draft k={SPECULATIVE_K}, dense verify\n"
    );
    let measure_speculative = |speculative: bool| -> (f64, usize, SpeculativeStats) {
        let mut tokens = 0usize;
        let mut total_us = 0.0f64;
        let mut stats = SpeculativeStats::default();
        for _ in 0..passes {
            let (timing, s) = run_speculative_serving(&model, &spec_work, speculative);
            tokens += timing.tokens;
            total_us += timing.total_us;
            stats.merge(&s);
        }
        (total_us / tokens as f64, tokens, stats)
    };
    let (dense_us_tok, dense_tokens, _) = measure_speculative(false);
    let (spec_us_tok, spec_tokens, spec_stats) = measure_speculative(true);
    assert_eq!(
        spec_tokens, dense_tokens,
        "lossless speculation must emit exactly the dense token count"
    );
    assert!(
        spec_stats.drafted > 0 && spec_stats.accepted > 0,
        "speculative serving pass drafted/accepted nothing: the draft path is disabled"
    );
    for (name, us_tok, speedup) in [
        ("dense_only_scheduler", dense_us_tok, None),
        (
            "speculative_scheduler",
            spec_us_tok,
            Some(dense_us_tok / spec_us_tok),
        ),
    ] {
        println!(
            "{name:<24} {dense_tokens:>8} tokens  {us_tok:>9.2} us/token \
             ({:>9.0} tok/s){}",
            1e6 / us_tok,
            match speedup {
                Some(s) => format!("  {s:.2}x over dense-only"),
                None => String::new(),
            },
        );
        report.record(
            &format!("{name}_throughput"),
            dense_tokens,
            us_tok,
            speedup,
            1,
        );
    }
    println!(
        "speculative acceptance: {}/{} drafts accepted ({:.1}%)",
        spec_stats.accepted,
        spec_stats.drafted,
        spec_stats.acceptance_rate() * 100.0,
    );
    report.record_value(
        "speculative_acceptance_rate_pct",
        spec_requests,
        spec_stats.acceptance_rate() * 100.0,
    );

    // f32-vs-int8 token agreement, measured through the eval harness and
    // *reported, not asserted* (the quantization contract is "own-config
    // determinism", not f32 equivalence): the f32 dense engine's greedy
    // continuations are the gold, and each position scores whether the
    // int8 engine's teacher-forced argmax reproduces them.
    let agree_tasks = if quick { 2 } else { 6 };
    let agree_new = if quick { 8 } else { 12 };
    let suite = TaskSuite::gsm8k_syn(agree_tasks, 101);
    let gold = gold_continuations(&model, &suite, agree_new);
    let mut int8_engine = EngineBuilder::new(&model)
        .weight_format(WeightFormat::Int8)
        .build()
        .unwrap();
    let mut agree_positions = 0usize;
    let mut agree_matches = 0usize;
    for (task, gold_tokens) in suite.tasks.iter().zip(&gold) {
        let m = teacher_forced_engine_matches(int8_engine.as_mut(), &task.tokens, gold_tokens);
        agree_matches += m.iter().filter(|x| **x).count();
        agree_positions += m.len();
    }
    let agreement_pct = 100.0 * agree_matches as f64 / agree_positions as f64;
    println!(
        "\nint8 vs f32 token agreement (teacher-forced, {agree_tasks} tasks x \
         {agree_new} tokens): {agree_matches}/{agree_positions} ({agreement_pct:.1}%)"
    );
    report.record_value("int8_token_agreement_pct", agree_positions, agreement_pct);

    // KV cache dtype: the same fixed decode pass with the pool storing
    // f32 vs f16. The byte counts are deterministic, so the halving is a
    // hard in-run assert (it holds in the quick smoke too); the JSON gate
    // then bounds *increases* of both records against the per-host
    // baseline, so a silently-widened f16 path fails CI.
    println!("\nKV cache dtype: peak pool bytes over one fixed 4-request pass\n");
    let kv_f32 = peak_kv_bytes(&model, &shared, KvDtype::F32);
    let kv_f16 = peak_kv_bytes(&model, &shared, KvDtype::F16);
    assert_eq!(
        kv_f16 * 2,
        kv_f32,
        "f16 KV storage must halve peak pool bytes exactly"
    );
    println!("kv_peak_bytes_f32        {kv_f32:>9} B");
    println!("kv_peak_bytes_f16        {kv_f16:>9} B  (exactly half)");
    report.record_value("kv_peak_bytes_f32", 4, kv_f32 as f64);
    report.record_value("kv_peak_bytes_f16", 4, kv_f16 as f64);

    report.note(&format!(
        "host {}: latency percentiles depend on core count; on a 1-core \
         container concurrent requests time-slice rather than overlap",
        sparseinfer_bench::host_fingerprint()
    ));
    report.note(
        "continuous_int8 decodes the 64-dim bench model, whose rows are too \
         short to be bandwidth-bound — the int8 kernel win at real widths is \
         the sparse_gemv_q8_into_* records in BENCH_kernels.json",
    );
    report.write();
}
