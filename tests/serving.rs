//! Serving-layer integration tests: the unified `Engine` API, the request
//! layer and the batch scheduler, exercised across predictor kinds.
//!
//! The load-bearing property: a `Scheduler` of concurrent sessions (mixed dense
//! and sparse engines) decodes each request **bit-identically** to running
//! that request alone — interleaving is pure scheduling.

use std::sync::Arc;

use sparseinfer::model::{generator::WeightGenerator, Model, ModelConfig, Sampler};
use sparseinfer::predictor::{AlphaSchedule, SignBitPredictor, SparsityPredictor};
use sparseinfer::sparse::engine::{EngineBuilder, EngineOptions};
use sparseinfer::sparse::error::EngineError;
use sparseinfer::sparse::request::{generate, FinishReason, GenerateRequest, Priority};
use sparseinfer::sparse::scheduler::{Scheduler, SchedulerConfig};
use sparseinfer::tensor::ParallelOptions;

const EOS: u32 = sparseinfer::model::tokenizer::EOS;

fn test_model() -> Model {
    let mut cfg = ModelConfig::tiny();
    cfg.hidden_dim = 64;
    cfg.mlp_dim = 160;
    cfg.n_heads = 2;
    cfg.n_layers = 3;
    cfg.vocab_size = 300;
    WeightGenerator::new(&cfg, 99).build()
}

/// Builder for each engine kind in the mixed batch, keyed by slot index.
fn engine_for<'m>(model: &'m Model, kind: usize) -> Box<dyn sparseinfer::sparse::Engine + 'm> {
    match kind % 4 {
        0 => EngineBuilder::new(model).build(),
        1 => EngineBuilder::new(model)
            .signbit(AlphaSchedule::uniform(1.0))
            .build(),
        2 => EngineBuilder::new(model).oracle().build(),
        _ => EngineBuilder::new(model)
            .signbit(AlphaSchedule::early_layers(1.2, 2))
            .options(EngineOptions::with_actual_sparsity())
            .build(),
    }
    .expect("valid engine configuration")
}

#[test]
fn batched_decode_is_token_identical_to_sequential_for_every_engine_kind() {
    let model = test_model();
    // Six requests over four engine kinds, different prompts and lengths.
    let prompts: Vec<Vec<u32>> = vec![
        vec![1, 2, 3],
        vec![7, 8],
        vec![10, 20, 30, 40],
        vec![5],
        vec![9, 9, 9],
        vec![2, 4, 6, 8, 10],
    ];
    let budgets = [6usize, 9, 4, 7, 5, 8];

    // Sequential reference: each request alone.
    let solo: Vec<Vec<u32>> = prompts
        .iter()
        .zip(budgets)
        .enumerate()
        .map(|(i, (p, max_new))| {
            let mut e = engine_for(&model, i);
            generate(
                e.as_mut(),
                &GenerateRequest::new(p).max_new(max_new).stop_at(EOS),
            )
            .expect("non-empty prompt")
            .tokens
        })
        .collect();

    // The same requests through one round-robin scheduler.
    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    for (i, (p, max_new)) in prompts.iter().zip(budgets).enumerate() {
        batch
            .submit(
                engine_for(&model, i),
                &GenerateRequest::new(p).max_new(max_new).stop_at(EOS),
            )
            .expect("non-empty prompt");
    }
    assert!(
        batch.submitted() >= 4,
        "acceptance floor: at least 4 concurrent sessions"
    );
    let outputs = batch.run();

    for (out, expected) in outputs.iter().zip(&solo) {
        assert_eq!(
            &out.tokens, expected,
            "request {} ({}) diverged between solo and batched decode",
            out.id, out.engine
        );
    }
}

#[test]
fn batched_stochastic_requests_replay_their_seeds() {
    let model = test_model();
    let req = GenerateRequest::new(&[3, 5, 7])
        .max_new(6)
        .sampler(Sampler::temperature(0.9, 4242));

    let solo = {
        let mut e = EngineBuilder::new(&model).build().unwrap();
        generate(e.as_mut(), &req).unwrap().tokens
    };

    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    // Surround the seeded request with unrelated traffic.
    batch
        .submit(
            EngineBuilder::new(&model)
                .signbit(AlphaSchedule::uniform(1.0))
                .build()
                .unwrap(),
            &GenerateRequest::new(&[8, 8]).max_new(9),
        )
        .unwrap();
    let id = batch
        .submit(EngineBuilder::new(&model).build().unwrap(), &req)
        .map(|handle| handle.id())
        .unwrap();
    batch
        .submit(
            EngineBuilder::new(&model).oracle().build().unwrap(),
            &GenerateRequest::new(&[1]).max_new(3),
        )
        .unwrap();

    let outputs = batch.run();
    assert_eq!(
        outputs[id].tokens, solo,
        "seeded sampler must replay in a batch"
    );
}

/// The ROADMAP open item, closed: a 32-slot batch sharing one `Arc`ed
/// predictor holds **one** copy of the packed sign tables, so its memory
/// estimate is within a small per-session constant of a 1-slot batch.
#[test]
fn batch_memory_is_o1_in_slots_with_a_shared_predictor() {
    let model = test_model();
    let shared: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
        &model,
        AlphaSchedule::uniform(1.0),
    ));

    let build_batch = |slots: usize| {
        let mut batch = Scheduler::new(SchedulerConfig::unbounded());
        for i in 0..slots {
            let engine = EngineBuilder::new(&model)
                .predictor_shared(Arc::clone(&shared))
                .build()
                .unwrap();
            batch
                .submit(
                    engine,
                    &GenerateRequest::new(&[1, 2 + i as u32 % 7]).max_new(3),
                )
                .unwrap();
        }
        batch
    };

    // Warm both batches with a few decode ticks — but stop *before* any
    // request finishes, because finished slots retire and release their
    // memory (measured separately below): the estimates here must see
    // every slot live with steady-state buffer sizes.
    let warm_ticks = 4; // 2 prompt tokens + max_new 3 => finished on tick 5
    let mut one = build_batch(1);
    for _ in 0..warm_ticks {
        one.tick(|_| {});
    }
    assert_eq!(
        one.unfinished_requests(),
        1,
        "warm-up must keep the slot live"
    );
    let est1 = one.memory_estimate();

    let mut thirty_two = build_batch(32);
    for _ in 0..warm_ticks {
        thirty_two.tick(|_| {});
    }
    assert_eq!(thirty_two.unfinished_requests(), 32);
    let est32 = thirty_two.memory_estimate();

    // Shared predictor bytes are counted once, regardless of slot count —
    // the O(1) claim itself.
    assert_eq!(
        est32.shared_bytes, est1.shared_bytes,
        "shared predictor state must not scale with slots"
    );
    assert_eq!(est32.shared_bytes, shared.memory_bytes());
    assert!(est32.shared_bytes > 0);

    // Per-session state scales linearly with an *independently measured*
    // per-slot constant: the warm 32-slot batch must stay within the warm
    // 1-slot batch plus 31 per-slot shares (2x slack absorbs per-slot
    // buffer-size jitter). A regression that replicates predictor state
    // per slot (the pre-PR design) blows through this bound by ~31x the
    // packed-table size.
    let per_slot = est1.per_session_bytes;
    assert!(per_slot > 0, "warm slots must report their scratch");
    assert!(
        est32.total() <= est1.total() + 31 * 2 * per_slot,
        "32-slot total {} vs 1-slot total {} + 31·2·{per_slot}",
        est32.total(),
        est1.total()
    );
    // Run both batches to completion: every slot retires, releasing its
    // per-session scratch and KV cache — the estimate drops to zero.
    while thirty_two.tick(|_| {}) > 0 {}
    assert_eq!(thirty_two.unfinished_requests(), 0);
    assert_eq!(thirty_two.submitted(), 32);
    assert_eq!(
        thirty_two.memory_estimate().total(),
        0,
        "a fully finished batch must hold no decode memory"
    );
}

/// Finished slots release their decode memory immediately: a batch that has
/// drained down to one live request costs what a 1-slot batch costs, within
/// a small constant — not O(total requests ever pushed).
#[test]
fn finished_slots_release_memory_while_the_batch_keeps_serving() {
    let model = test_model();
    let shared: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
        &model,
        AlphaSchedule::uniform(1.0),
    ));
    fn push<'m>(
        model: &'m Model,
        shared: &Arc<dyn SparsityPredictor>,
        batch: &mut Scheduler<'m>,
        max_new: usize,
    ) {
        let engine = EngineBuilder::new(model)
            .predictor_shared(Arc::clone(shared))
            .build()
            .unwrap();
        batch
            .submit(engine, &GenerateRequest::new(&[1, 2]).max_new(max_new))
            .unwrap();
    }

    // Fifteen short requests + one long one.
    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    for _ in 0..15 {
        push(&model, &shared, &mut batch, 2);
    }
    push(&model, &shared, &mut batch, 32);
    while batch.unfinished_requests() > 1 {
        batch.tick(|_| {});
    }
    let drained = batch.memory_estimate();

    // Reference: a 1-slot batch with the same long request, equally warm.
    let mut solo = Scheduler::new(SchedulerConfig::unbounded());
    push(&model, &shared, &mut solo, 32);
    for _ in 0..8 {
        solo.tick(|_| {});
    }
    let solo_est = solo.memory_estimate();

    assert_eq!(
        drained.shared_bytes, solo_est.shared_bytes,
        "one live slot, one shared predictor copy"
    );
    // 15 finished + 1 live must sit within a small constant of 1 live
    // (2x slack absorbs warm-buffer size jitter between the two runs).
    assert!(
        drained.total() <= 2 * solo_est.total(),
        "drained batch holds {} B, 1-slot batch {} B",
        drained.total(),
        solo_est.total()
    );
    // The batch still serves: the long request runs to completion with its
    // tokens intact.
    let out = batch.run();
    assert_eq!(out.len(), 16);
    assert_eq!(out[15].tokens.len(), 32);
    assert!(out.iter().take(15).all(|o| o.tokens.len() == 2));
}

/// Per-request isolation survives sharing: slots over one predictor keep
/// independent op counters and stats.
#[test]
fn shared_predictor_slots_keep_isolated_counters() {
    let model = test_model();
    let shared: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
        &model,
        AlphaSchedule::uniform(1.0),
    ));
    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    for max_new in [2usize, 8] {
        let engine = EngineBuilder::new(&model)
            .predictor_shared(Arc::clone(&shared))
            .build()
            .unwrap();
        batch
            .submit(engine, &GenerateRequest::new(&[1, 2]).max_new(max_new))
            .unwrap();
    }
    let out = batch.run();
    assert!(out[1].ops.macs > out[0].ops.macs);
    assert_eq!(out[0].stats.as_ref().unwrap().tokens(), 2);
    assert_eq!(out[1].stats.as_ref().unwrap().tokens(), 8);
}

#[test]
fn boxed_predictor_costs_flow_into_op_counter() {
    let model = test_model();
    // A custom predictor goes in as Box<dyn SparsityPredictor>; its declared
    // prediction cost must surface in the engine's OpCounter.
    #[derive(Debug)]
    struct CountingPredictor {
        layers: usize,
        rows: usize,
    }
    impl SparsityPredictor for CountingPredictor {
        fn predict_into(
            &self,
            _layer: usize,
            _x: &sparseinfer::tensor::Vector,
            _scratch: &mut sparseinfer::predictor::PredictorScratch,
            mask: &mut sparseinfer::predictor::SkipMask,
        ) {
            mask.reset_dense(self.rows);
        }
        fn name(&self) -> &'static str {
            "counting"
        }
        fn n_layers(&self) -> usize {
            self.layers
        }
        fn prediction_cost(&self, _layer: usize) -> sparseinfer::predictor::traits::PredictionCost {
            sparseinfer::predictor::traits::PredictionCost {
                xor_popc: 17,
                macs: 3,
                bytes_loaded: 5,
            }
        }
    }

    let cfg = model.config();
    let boxed: Box<dyn SparsityPredictor> = Box::new(CountingPredictor {
        layers: cfg.n_layers,
        rows: cfg.mlp_dim,
    });
    let mut engine = EngineBuilder::new(&model).predictor(boxed).build().unwrap();
    let gen = generate(engine.as_mut(), &GenerateRequest::new(&[1, 2]).max_new(3)).unwrap();
    assert_eq!(gen.tokens.len(), 3);

    // 1 engine prefill step + 3 decode steps − 1 unstepped final token
    // = 3 engine steps × n_layers predictions × 17 xor_popc each.
    let steps = 3;
    let expected = (steps * cfg.n_layers) as u64;
    assert_eq!(engine.ops().xor_popc, expected * 17);
    assert_eq!(engine.ops().predictor_macs, expected * 3);
}

#[test]
fn signbit_prediction_cost_accounted_through_builder() {
    let model = test_model();
    let mut engine = EngineBuilder::new(&model)
        .signbit(AlphaSchedule::uniform(1.0))
        .build()
        .unwrap();
    let _ = generate(
        engine.as_mut(),
        &GenerateRequest::new(&[1, 2, 3]).max_new(4),
    )
    .unwrap();
    assert!(
        engine.ops().xor_popc > 0,
        "sign-bit cost must be accounted via dyn dispatch"
    );
    assert!(engine.ops().rows_skipped > 0);
}

#[test]
fn builder_rejects_layer_mismatch_with_err() {
    let model = test_model();
    let wrong = sparseinfer::predictor::RandomPredictor::new(0.5, model.config().mlp_dim, 1, 1);
    let result = EngineBuilder::new(&model)
        .predictor(Box::new(wrong))
        .build();
    match result {
        Err(EngineError::LayerCountMismatch {
            model_layers,
            predictor_layers,
        }) => {
            assert_eq!(model_layers, model.config().n_layers);
            assert_eq!(predictor_layers, 1);
        }
        other => panic!("expected LayerCountMismatch, got {other:?}"),
    }
}

#[test]
fn seeded_samplers_are_reproducible_and_seed_sensitive() {
    let model = test_model();
    let mut engine = EngineBuilder::new(&model).build().unwrap();
    let run = |engine: &mut dyn sparseinfer::sparse::Engine, seed: u64| {
        generate(
            engine,
            &GenerateRequest::new(&[2, 3])
                .max_new(10)
                .sampler(Sampler::top_k(16, 1.2, seed)),
        )
        .unwrap()
        .tokens
    };
    let a1 = run(engine.as_mut(), 1);
    let a2 = run(engine.as_mut(), 1);
    assert_eq!(a1, a2, "same seed must replay");
    let mut differs = false;
    for seed in 2..8 {
        if run(engine.as_mut(), seed) != a1 {
            differs = true;
            break;
        }
    }
    assert!(differs, "different seeds should change at least one stream");
}

#[test]
fn default_sampler_from_builder_drives_requests_without_one() {
    let model = test_model();
    // Greedy default: two identical runs.
    let mut greedy = EngineBuilder::new(&model)
        .sampler(Sampler::greedy())
        .build()
        .unwrap();
    let req = GenerateRequest::new(&[4, 5]).max_new(6);
    let g1 = generate(greedy.as_mut(), &req).unwrap().tokens;
    let g2 = generate(greedy.as_mut(), &req).unwrap().tokens;
    assert_eq!(g1, g2);

    // The engine-level default sampler is cloned per request, so a
    // stochastic default also replays identically across requests.
    let mut stochastic = EngineBuilder::new(&model)
        .sampler(Sampler::temperature(1.0, 77))
        .build()
        .unwrap();
    let s1 = generate(stochastic.as_mut(), &req).unwrap().tokens;
    let s2 = generate(stochastic.as_mut(), &req).unwrap().tokens;
    assert_eq!(
        s1, s2,
        "default sampler state must not leak across requests"
    );
}

/// The continuous-batching determinism contract (acceptance criterion):
/// with FIFO admission and fixed seeds, every request's scheduler tokens
/// are bit-identical to solo `generate()` — across engine kinds, across
/// 1/2/4 slot threads, with admission capped so requests genuinely queue
/// and join mid-flight, and with identical streamed event order.
#[test]
fn scheduler_is_token_identical_to_solo_decode_at_1_2_4_threads() {
    let model = test_model();
    let prompts: Vec<Vec<u32>> = vec![
        vec![1, 2, 3],
        vec![7, 8],
        vec![10, 20, 30, 40],
        vec![5],
        vec![9, 9, 9],
        vec![2, 4, 6, 8, 10],
    ];
    let budgets = [6usize, 9, 4, 7, 5, 8];

    let solo: Vec<Vec<u32>> = prompts
        .iter()
        .zip(budgets)
        .enumerate()
        .map(|(i, (p, max_new))| {
            let mut e = engine_for(&model, i);
            generate(
                e.as_mut(),
                &GenerateRequest::new(p).max_new(max_new).stop_at(EOS),
            )
            .expect("non-empty prompt")
            .tokens
        })
        .collect();

    let run_at = |threads: usize| {
        let mut scheduler = Scheduler::new(SchedulerConfig {
            max_slots: 3, // half the requests must wait for retirement
            block_tokens: 4,
            kv_block_budget: usize::MAX,
            ..SchedulerConfig::default()
        })
        .parallel(ParallelOptions::threads(threads));
        for (i, (p, max_new)) in prompts.iter().zip(budgets).enumerate() {
            scheduler
                .submit(
                    engine_for(&model, i),
                    &GenerateRequest::new(p).max_new(max_new).stop_at(EOS),
                )
                .expect("non-empty prompt");
        }
        let mut events = Vec::new();
        let outputs = scheduler.run_streaming(|ev| events.push((ev.request, ev.index, ev.token)));
        (
            outputs.into_iter().map(|o| o.tokens).collect::<Vec<_>>(),
            events,
        )
    };

    let (seq_tokens, seq_events) = run_at(1);
    assert_eq!(seq_tokens, solo, "scheduled == solo at 1 thread");
    for threads in [2usize, 4] {
        let (tokens, events) = run_at(threads);
        assert_eq!(tokens, solo, "scheduled == solo at {threads} threads");
        assert_eq!(events, seq_events, "event order at {threads} threads");
    }
}

/// Satellite regression: a request that stops early must only ever have
/// allocated KV blocks for the tokens it actually produced — lazy paged
/// growth, never a `prompt + max_new` reservation-as-allocation.
#[test]
fn early_stop_allocates_blocks_for_produced_tokens_not_max_new() {
    let model = test_model();
    let block_tokens = 4usize;
    let n_layers = model.config().n_layers;

    // Find the first greedy token, then declare it a stop token: the
    // request ends after sampling one token (zero emitted tokens).
    let first = {
        let mut e = EngineBuilder::new(&model).build().unwrap();
        generate(e.as_mut(), &GenerateRequest::new(&[1, 2]).max_new(1))
            .unwrap()
            .tokens[0]
    };

    let max_new = 256usize;
    let prompt = [1u32, 2];
    let mut scheduler = Scheduler::new(SchedulerConfig {
        max_slots: 1,
        block_tokens,
        kv_block_budget: usize::MAX,
        ..SchedulerConfig::default()
    });
    scheduler
        .submit(
            EngineBuilder::new(&model).build().unwrap(),
            &GenerateRequest::new(&prompt)
                .max_new(max_new)
                .stop_at(first),
        )
        .unwrap();
    let kv = scheduler.kv_pool().clone();
    let outputs = scheduler.run();
    assert_eq!(outputs[0].finish, FinishReason::Stop(first));
    assert!(outputs[0].tokens.is_empty());

    // The pool's high-water mark (blocks created) is proportional to the
    // context actually absorbed — prompt plus at most a couple of decode
    // steps — not to the 256-token budget.
    let produced_ctx = prompt.len() + 2;
    let lazy_bound = n_layers * produced_ctx.div_ceil(block_tokens);
    let eager_blocks = n_layers * (prompt.len() + max_new).div_ceil(block_tokens);
    assert!(
        kv.blocks_created() <= lazy_bound,
        "{} blocks created; lazy growth allows at most {lazy_bound} \
         (eager reservation would have taken {eager_blocks})",
        kv.blocks_created()
    );
    assert_eq!(kv.blocks_in_use(), 0, "all blocks returned at retirement");
}

/// Satellite: scheduler churn. Requests continuously join, cancel and
/// finish across 200+ ticks; KV memory must stay bounded by the live
/// requests (never by cumulative traffic), and at drain every block must
/// be back in the pool.
#[test]
fn churning_scheduler_memory_is_bounded_by_live_tokens_and_drains_clean() {
    let model = test_model();
    let n_layers = model.config().n_layers;
    let block_tokens = 4usize;
    let max_slots = 3usize;
    let prompts: [&[u32]; 4] = [&[1, 2], &[3, 4, 5], &[6], &[7, 8, 9, 10]];
    let budgets = [5usize, 8, 3, 11];
    let shared: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
        &model,
        AlphaSchedule::uniform(1.0),
    ));

    let mut scheduler = Scheduler::new(SchedulerConfig {
        max_slots,
        block_tokens,
        kv_block_budget: usize::MAX,
        ..SchedulerConfig::default()
    });

    // Worst-case live context any slot can hold, in blocks — the O(live
    // tokens) ceiling the pool must respect at every tick.
    let per_slot_ceiling = {
        let worst_tokens =
            prompts.iter().map(|p| p.len()).max().unwrap() + budgets.iter().max().unwrap();
        n_layers * worst_tokens.div_ceil(block_tokens)
    };
    let live_ceiling = max_slots * per_slot_ceiling;

    let mut handles = Vec::new();
    let mut submitted = 0usize;
    let mut cancelled = 0usize;
    let mut tokens_streamed = 0usize;
    let mut created_mid_churn = 0usize;
    for tick in 0usize..220 {
        // Join: a new request every other tick.
        if tick.is_multiple_of(2) {
            let i = submitted % prompts.len();
            let engine = if i.is_multiple_of(2) {
                EngineBuilder::new(&model)
                    .predictor_shared(Arc::clone(&shared))
                    .build()
                    .unwrap()
            } else {
                EngineBuilder::new(&model).build().unwrap()
            };
            let handle = scheduler
                .submit(
                    engine,
                    &GenerateRequest::new(prompts[i]).max_new(budgets[i]),
                )
                .unwrap();
            handles.push(handle);
            submitted += 1;
        }
        // Cancel: every 7th tick, cancel the oldest handle still around —
        // sometimes queued, sometimes mid-stream, sometimes already done.
        if tick % 7 == 3 && !handles.is_empty() {
            handles.remove(0).cancel();
            cancelled += 1;
        }
        scheduler.tick(|_| tokens_streamed += 1);

        // Invariants, every tick of the churn:
        let in_use = scheduler.kv_pool().blocks_in_use();
        assert!(
            in_use <= live_ceiling,
            "tick {tick}: {in_use} blocks in use exceeds the live-slot \
             ceiling {live_ceiling}"
        );
        assert!(scheduler.active_slots() <= max_slots);
        if tick == 110 {
            created_mid_churn = scheduler.kv_pool().blocks_created();
        }
    }

    // Stop submitting; drain.
    while scheduler.tick(|_| tokens_streamed += 1) > 0 {}
    let outputs = scheduler.take_finished();
    assert_eq!(outputs.len(), submitted, "every submission resolves");
    assert!(submitted >= 100, "the churn must be substantial");
    assert!(cancelled >= 20);
    assert!(tokens_streamed > 100);

    // No leaks: every block is back in the pool…
    let kv = scheduler.kv_pool();
    assert_eq!(kv.blocks_in_use(), 0, "drain must return every block");
    assert_eq!(kv.blocks_free(), kv.blocks_created());
    assert_eq!(scheduler.reserved_blocks(), 0);
    assert_eq!(
        scheduler.memory_estimate().total(),
        0,
        "a drained scheduler holds no decode memory"
    );
    // …and the pool's total footprint reflects peak concurrency, not the
    // 100+ requests served: a scheduler that retired N requests costs
    // what a fresh one serving the same live set costs.
    assert!(
        kv.blocks_created() <= live_ceiling,
        "{} blocks created vs live ceiling {live_ceiling}: pool capacity \
         must be O(live tokens), not O(requests served)",
        kv.blocks_created()
    );
    // Half the churn happened after tick 110; a leak (or any per-request
    // growth) would show up as continued block creation. A warm pool only
    // recycles.
    assert!(
        kv.blocks_created() <= created_mid_churn + per_slot_ceiling,
        "pool grew from {created_mid_churn} to {} blocks after warm-up: \
         blocks are leaking instead of being recycled",
        kv.blocks_created()
    );
}

/// The prefix-sharing determinism contract (acceptance criterion): with
/// fixed seeds, shared-prefix decode is **token- and event-order
/// bit-identical** to unshared decode at 1/2/4 slot threads. Sharing only
/// removes redundant prefill *work* — cached positions still consume one
/// scheduling step each, so the admission schedule, the event stream and
/// every token match the cold run exactly.
#[test]
fn shared_prefix_decode_is_bit_identical_to_unshared_at_1_2_4_threads() {
    let model = test_model();
    let block_tokens = 4usize;
    // A 13-token shared system prompt; with a unique tail token appended,
    // the densely prefilled region is 13 tokens = 3 full sharable blocks.
    let prefix: Vec<u32> = (0..13).map(|i| (i * 7) % 90 + 3).collect();
    let mut prompts: Vec<Vec<u32>> = (0..4)
        .map(|i| {
            let mut p = prefix.clone();
            p.push(100 + i);
            p
        })
        .collect();
    prompts.push(vec![7, 8, 9]); // unrelated traffic in the same run
    prompts.push(vec![50, 60]);
    let budgets = [5usize, 7, 4, 6, 5, 3];

    let solo: Vec<Vec<u32>> = prompts
        .iter()
        .zip(budgets)
        .enumerate()
        .map(|(i, (p, max_new))| {
            let mut e = engine_for(&model, i);
            generate(e.as_mut(), &GenerateRequest::new(p).max_new(max_new))
                .expect("non-empty prompt")
                .tokens
        })
        .collect();

    let run_at = |threads: usize, prefix_cache: bool| {
        let mut scheduler = Scheduler::new(SchedulerConfig {
            max_slots: 3, // sharers 0..3 start cold; sharer 3 joins warm
            block_tokens,
            kv_block_budget: usize::MAX,
            prefix_cache,
            prefix_retain_blocks: 64,
            ..SchedulerConfig::default()
        })
        .parallel(ParallelOptions::threads(threads));
        for (i, (p, max_new)) in prompts.iter().zip(budgets).enumerate() {
            scheduler
                .submit(
                    engine_for(&model, i),
                    &GenerateRequest::new(p).max_new(max_new),
                )
                .expect("non-empty prompt");
        }
        let mut events = Vec::new();
        let outputs = scheduler.run_streaming(|ev| events.push((ev.request, ev.index, ev.token)));
        let skipped: Vec<usize> = outputs.iter().map(|o| o.prefill_skipped_tokens).collect();
        let tokens: Vec<Vec<u32>> = outputs.into_iter().map(|o| o.tokens).collect();
        (tokens, events, skipped)
    };

    let (cold_tokens, cold_events, cold_skipped) = run_at(1, false);
    assert_eq!(cold_tokens, solo, "cold scheduler == solo decode");
    assert!(cold_skipped.iter().all(|s| *s == 0), "cache off: no hits");

    for threads in [1usize, 2, 4] {
        let (tokens, events, skipped) = run_at(threads, true);
        assert_eq!(tokens, solo, "warm tokens == solo at {threads} threads");
        assert_eq!(
            events, cold_events,
            "warm event order == cold event order at {threads} threads"
        );
        // The fourth sharer is admitted only after one of the first three
        // retires — long after their shared prefill published — so it must
        // attach every sharable full block: 3 blocks × 4 tokens.
        assert!(
            skipped[3] >= 3 * block_tokens,
            "warm sharer skipped {} < {} tokens at {threads} threads",
            skipped[3],
            3 * block_tokens
        );
        assert_eq!(skipped[4], 0, "unrelated prompts never hit");
        assert_eq!(skipped[5], 0);
    }

    // A publisher that retired before the sharers arrive leaves the whole
    // prefix in the index: the four sharers, submitted together and all in
    // flight at once, each attach every sharable block — n × prefix skipped,
    // nothing prefilled twice.
    let mut scheduler = Scheduler::new(SchedulerConfig {
        max_slots: 4,
        block_tokens,
        kv_block_budget: usize::MAX,
        prefix_retain_blocks: 64,
        ..SchedulerConfig::default()
    });
    let mut publisher = prefix.clone();
    publisher.push(99);
    scheduler
        .submit(
            engine_for(&model, 0),
            &GenerateRequest::new(&publisher).max_new(1),
        )
        .expect("non-empty prompt");
    while scheduler.tick(|_| {}) > 0 {}
    let _ = scheduler.take_finished();
    for (i, p) in prompts[..4].iter().enumerate() {
        scheduler
            .submit(
                engine_for(&model, i),
                &GenerateRequest::new(p).max_new(budgets[i]),
            )
            .expect("non-empty prompt");
    }
    let outputs = scheduler.run();
    assert_eq!(outputs.len(), 4);
    for (out, expected) in outputs.iter().zip(&solo) {
        assert_eq!(out.prefill_skipped_tokens, 3 * block_tokens);
        assert_eq!(&out.tokens, expected, "pre-warmed tokens == solo");
    }
}

/// Refcount torture (acceptance satellite): many requests attach the same
/// prefix and cancel/finish in a seeded random order; physical blocks stay
/// bounded by shared-prefix + live-tail usage throughout, survive every
/// individual drop, and the pool drains to zero bytes once the last
/// referrer (the scheduler's index) is gone.
#[test]
fn prefix_refcount_torture_frees_blocks_only_at_the_last_referrer() {
    let model = test_model();
    let n_layers = model.config().n_layers;
    let block_tokens = 4usize;
    let max_slots = 3usize;
    let prefix: Vec<u32> = (0..9).map(|i| i * 3 + 1).collect(); // 2 full blocks shared
    let shared_blocks = n_layers * 2;
    let max_new = 6usize;

    let mut scheduler = Scheduler::new(SchedulerConfig {
        max_slots,
        block_tokens,
        kv_block_budget: usize::MAX,
        prefix_cache: true,
        prefix_retain_blocks: 64,
        ..SchedulerConfig::default()
    });
    let kv = scheduler.kv_pool().clone();
    let n_requests = 16usize;
    let mut handles = Vec::new();
    for i in 0..n_requests {
        let mut p = prefix.clone();
        p.push(120 + i as u32);
        handles.push(
            scheduler
                .submit(
                    engine_for(&model, i),
                    &GenerateRequest::new(&p).max_new(max_new),
                )
                .unwrap(),
        );
    }
    // Worst case per live slot: private blocks for its whole context.
    let per_slot = n_layers * (prefix.len() + 1 + max_new).div_ceil(block_tokens);
    let ceiling = shared_blocks + max_slots * per_slot;

    // Seeded pseudo-random cancellation order: every third tick, cancel
    // the "random" oldest-half handle — queued, live or already done.
    let mut seed = 0x5EEDu64;
    let mut tick = 0usize;
    loop {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if tick % 3 == 2 && !handles.is_empty() {
            let i = (seed >> 33) as usize % handles.len();
            handles.swap_remove(i).cancel();
        }
        let unfinished = scheduler.tick(|_| {});
        assert!(
            kv.blocks_in_use() <= ceiling,
            "tick {tick}: {} blocks exceeds shared+live ceiling {ceiling}",
            kv.blocks_in_use()
        );
        tick += 1;
        if unfinished == 0 {
            break;
        }
        assert!(tick < 1024, "torture must drain");
    }
    let outputs = scheduler.take_finished();
    assert_eq!(outputs.len(), n_requests, "every submission resolves");
    let stats = scheduler.prefix_stats();
    assert!(stats.attached_requests > 0, "sharing must actually happen");
    assert_eq!(
        kv.blocks_in_use(),
        stats.retained_blocks,
        "after drain only index retention survives"
    );
    assert!(stats.retained_blocks >= shared_blocks);
    // Dropping the scheduler drops the index — the last referrer.
    drop(scheduler);
    assert_eq!(kv.blocks_in_use(), 0, "pool drains to zero blocks");
    assert_eq!(kv.in_use_bytes(), 0, "pool drains to zero bytes");
    assert_eq!(kv.blocks_free(), kv.blocks_created());
}

/// Satellite fix regression: `Scheduler::memory_estimate()` counts shared
/// prefix blocks once (physical pool bytes), not once per session — N
/// warm sharers mid-decode cost strictly less KV than N cold copies.
#[test]
fn shared_prefix_blocks_are_counted_once_not_per_session() {
    let model = test_model();
    let n_layers = model.config().n_layers;
    let block_tokens = 4usize;
    let prefix: Vec<u32> = (0..13).map(|i| i * 2 + 5).collect(); // 3 full blocks
    let sharers = 3usize;

    // Drive both variants to the same point mid-decode (a cold run's
    // chunked prefill takes fewer ticks than a warm run's walk through its
    // cached prefix, so the point is a token count, not a tick); the only
    // difference is the prefix cache, so the estimate gap is exactly the
    // deduped KV.
    let run_to_mid_decode = |prefix_cache: bool| {
        let mut scheduler = Scheduler::new(SchedulerConfig {
            max_slots: sharers + 1,
            block_tokens,
            kv_block_budget: usize::MAX,
            prefix_cache,
            prefix_retain_blocks: 64,
            ..SchedulerConfig::default()
        });
        // Warm-up request publishes the prefix (when the cache is on).
        let mut warm = prefix.clone();
        warm.push(90);
        scheduler
            .submit(
                EngineBuilder::new(&model).build().unwrap(),
                &GenerateRequest::new(&warm).max_new(1),
            )
            .unwrap();
        while scheduler.tick(|_| {}) > 0 {}
        for i in 0..sharers {
            let mut p = prefix.clone();
            p.push(100 + i as u32);
            scheduler
                .submit(
                    EngineBuilder::new(&model).build().unwrap(),
                    &GenerateRequest::new(&p).max_new(8),
                )
                .unwrap();
        }
        // Past prefill, three decode tokens in, nobody finished. (The
        // warm-up request took id 0.)
        let mut emitted = vec![0usize; sharers];
        while emitted.iter().any(|tokens| *tokens < 3) {
            scheduler.tick(|event| emitted[event.request - 1] += 1);
        }
        assert_eq!(scheduler.active_slots(), sharers);
        (
            scheduler.kv_pool().blocks_in_use(),
            scheduler.memory_estimate(),
        )
    };

    let (shared_blocks, shared_est) = run_to_mid_decode(true);
    let (cold_blocks, cold_est) = run_to_mid_decode(false);
    // Cold: every sharer stores the 3 prefix blocks per layer privately.
    // Warm: one physical copy serves all three.
    let dedup = (sharers - 1) * n_layers * 3;
    assert!(
        shared_blocks + dedup <= cold_blocks + n_layers * 3,
        "warm {shared_blocks} blocks vs cold {cold_blocks}: sharing must \
         deduplicate the prefix (expected ≥ {dedup} blocks saved, modulo \
         one retained warm-up copy)"
    );
    assert!(
        shared_est.total() < cold_est.total(),
        "estimate must reflect physical sharing: warm {} B vs cold {} B",
        shared_est.total(),
        cold_est.total()
    );
}

#[test]
fn finish_reasons_distinguish_budget_from_stop() {
    let model = test_model();
    let mut engine = EngineBuilder::new(&model).build().unwrap();
    let budget = generate(engine.as_mut(), &GenerateRequest::new(&[1, 2]).max_new(3)).unwrap();
    assert_eq!(budget.finish, FinishReason::MaxTokens);

    // Declare the first greedy token a stop token; the rerun stops on it.
    let first = budget.tokens[0];
    let stopped = generate(
        engine.as_mut(),
        &GenerateRequest::new(&[1, 2]).max_new(3).stop_at(first),
    )
    .unwrap();
    assert_eq!(stopped.finish, FinishReason::Stop(first));
    assert!(stopped.tokens.is_empty());
}

/// Satellite: the preemption storm (acceptance criterion). 220 ticks of
/// mixed-priority traffic over a budget tight enough that High arrivals
/// must evict Batch/Normal slots, with seeded cancels landing on queued,
/// live, preempted and finished requests alike. Run once with an
/// unlimited swap budget (every preemption swaps) and once with none
/// (every preemption recomputes), each at 1/2/4 slot threads: every
/// request's tokens must be bit-identical to its solo run (a prefix of
/// it, when cancelled mid-flight), the whole schedule must be identical
/// across thread counts, blocks in use must respect the budget every
/// tick, and the drain must reach 0 blocks / 0 cold bytes.
#[test]
fn preemption_storm_is_bit_identical_at_any_thread_count_and_drains_clean() {
    let model = test_model();
    let block_tokens = 4usize;
    // Worst cases (3 layers): 6, 9, 3, 12 blocks — a budget of 18 packs
    // two to three requests and forces eviction when a High one arrives.
    let kv_block_budget = 18usize;
    let prompts: [&[u32]; 4] = [&[1, 2], &[3, 4, 5], &[6], &[7, 8, 9, 10]];
    let budgets = [5usize, 8, 3, 11];
    let priority_of = |i: usize| match i % 5 {
        0 | 3 => Priority::Batch,
        1 | 4 => Priority::Normal,
        _ => Priority::High,
    };
    let request_of = |i: usize| {
        GenerateRequest::new(prompts[i % prompts.len()])
            .max_new(budgets[i % budgets.len()])
            .priority(priority_of(i))
    };

    // Solo reference per request index (priority never changes tokens).
    let solo: Vec<Vec<u32>> = (0..prompts.len())
        .map(|i| {
            let mut e = engine_for(&model, i);
            generate(e.as_mut(), &request_of(i)).unwrap().tokens
        })
        .collect();

    let run_storm = |threads: usize, swap_budget_bytes: u64| {
        let mut scheduler = Scheduler::new(SchedulerConfig {
            max_slots: 3,
            block_tokens,
            kv_block_budget,
            prefix_cache: true,
            prefix_retain_blocks: 6,
            preemption: true,
            max_preemptions_per_request: 4,
            swap_budget_bytes,
            ..SchedulerConfig::default()
        })
        .parallel(ParallelOptions::threads(threads));
        let mut handles = Vec::new();
        let mut submitted = 0usize;
        let mut cancelled = 0usize;
        let mut peak_cold_bytes = 0u64;
        // Seeded LCG: the cancel schedule is fixed across runs.
        let mut rng: u64 = 0x5eed_cafe;
        for tick in 0usize..220 {
            if tick % 2 == 0 {
                let handle = scheduler
                    .submit(engine_for(&model, submitted), &request_of(submitted))
                    .unwrap();
                handles.push(handle);
                submitted += 1;
            }
            if tick % 5 == 4 && !handles.is_empty() {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pick = (rng >> 33) as usize % handles.len();
                handles.remove(pick).cancel();
                cancelled += 1;
            }
            scheduler.tick(|_| {});
            let in_use = scheduler.kv_pool().blocks_in_use();
            assert!(
                in_use <= kv_block_budget,
                "tick {tick}: {in_use} blocks in use exceeds the budget {kv_block_budget}"
            );
            peak_cold_bytes = peak_cold_bytes.max(scheduler.preemption_stats().swapped_bytes);
        }
        while scheduler.tick(|_| {}) > 0 {}
        let stats = scheduler.preemption_stats();
        assert!(
            stats.preemptions >= 3,
            "the storm must actually preempt (got {})",
            stats.preemptions
        );
        if swap_budget_bytes == u64::MAX {
            assert_eq!(
                stats.recomputed, 0,
                "unlimited swap budget never recomputes"
            );
            assert!(stats.swapped_out >= 3);
            assert!(
                peak_cold_bytes > 0,
                "cold buffers must be visible mid-storm"
            );
        } else {
            assert_eq!(stats.swapped_out, 0, "zero swap budget never swaps");
            assert!(stats.recomputed >= 3);
            assert_eq!(peak_cold_bytes, 0);
        }
        // Full drain: every block back, no cold bytes, no decode memory.
        assert_eq!(
            scheduler.kv_pool().blocks_in_use(),
            0,
            "pool drains to zero"
        );
        assert_eq!(scheduler.reserved_blocks(), 0);
        assert_eq!(scheduler.preemption_stats().swapped_bytes, 0);
        let memory = scheduler.memory_estimate();
        assert_eq!(memory.swapped_bytes, 0, "no cold bytes after drain");
        assert_eq!(
            memory.total(),
            0,
            "a drained scheduler holds no decode memory"
        );
        let mut outputs = scheduler.take_finished();
        outputs.sort_by_key(|o| o.id);
        assert_eq!(outputs.len(), submitted, "every submission resolves");
        assert!(cancelled >= 30, "the cancel churn must be substantial");
        // Per-request bit-identity against the uninterrupted solo run —
        // preempted-and-resumed (swap or recompute) included.
        for out in &outputs {
            let expected = &solo[out.id % solo.len()];
            match out.finish {
                FinishReason::Cancelled => assert_eq!(
                    out.tokens[..],
                    expected[..out.tokens.len()],
                    "request {}: cancelled tokens must be a solo prefix",
                    out.id
                ),
                _ => assert_eq!(
                    &out.tokens, expected,
                    "request {} (preempted {} times) diverged from solo",
                    out.id, out.preemptions
                ),
            }
        }
        outputs
            .into_iter()
            .map(|o| {
                (
                    o.id,
                    o.tokens,
                    format!("{:?}", o.finish),
                    o.preemptions,
                    o.swapped_blocks,
                )
            })
            .collect::<Vec<_>>()
    };

    for swap_budget_bytes in [u64::MAX, 0] {
        let single = run_storm(1, swap_budget_bytes);
        for threads in [2, 4] {
            assert_eq!(
                run_storm(threads, swap_budget_bytes),
                single,
                "the storm schedule must be bit-identical at {threads} slot threads"
            );
        }
    }
}
