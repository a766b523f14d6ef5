//! Scheduler integration tests (moved verbatim from the old single-file
//! module; `super::*` still resolves to the scheduler module).

use super::*;
use crate::engine::{EngineBuilder, WeightFormat};
use crate::request::{generate, GenerateRequest, Priority};
use sparseinfer_model::generator::WeightGenerator;
use sparseinfer_model::{Model, ModelConfig};
use sparseinfer_predictor::AlphaSchedule;
use sparseinfer_tensor::ParallelOptions;

fn model() -> Model {
    WeightGenerator::new(&ModelConfig::tiny(), 23).build()
}

fn dense<'m>(m: &'m Model) -> Box<dyn Engine + 'm> {
    EngineBuilder::new(m).build().unwrap()
}

fn solo_tokens(m: &Model, req: &GenerateRequest) -> Vec<u32> {
    let mut e = dense(m);
    generate(e.as_mut(), req).unwrap().tokens
}

#[test]
fn empty_scheduler_runs_to_nothing() {
    let s = Scheduler::new(SchedulerConfig::default());
    assert_eq!(s.unfinished_requests(), 0);
    assert!(s.run().is_empty());
}

#[test]
fn submit_rejects_empty_prompts() {
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig::default());
    let err = s.submit(dense(&m), &GenerateRequest::new(&[])).unwrap_err();
    assert_eq!(err, EngineError::EmptyPrompt);
    assert_eq!(s.submitted(), 0);
}

#[test]
fn submit_rejects_requests_that_can_never_fit() {
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 4,
        block_tokens: 4,
        kv_block_budget: 3,
        ..SchedulerConfig::default()
    });
    // tiny() has 2 layers: 2 · ceil((2 + 30)/4) = 16 blocks > 3.
    let err = s
        .submit(dense(&m), &GenerateRequest::new(&[1, 2]).max_new(30))
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::KvBudgetExceeded {
            required_blocks: 16,
            budget_blocks: 3
        }
    );
}

#[test]
fn max_slots_caps_concurrency_and_everything_still_finishes() {
    let m = model();
    let req = GenerateRequest::new(&[1, 2]).max_new(4);
    let expected = solo_tokens(&m, &req);
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 2,
        ..SchedulerConfig::default()
    });
    for _ in 0..5 {
        s.submit(dense(&m), &req).unwrap();
    }
    let mut peak = 0;
    while s.tick(|_| {}) > 0 {
        peak = peak.max(s.active_slots());
    }
    assert_eq!(peak, 2, "admission must fill, but never exceed, the slots");
    let outputs = s.take_finished();
    assert_eq!(outputs.len(), 5);
    for o in &outputs {
        assert_eq!(o.tokens, expected);
        assert_eq!(o.finish, FinishReason::MaxTokens);
    }
}

#[test]
fn kv_budget_serializes_admission_without_starving_anyone() {
    let m = model();
    let req = GenerateRequest::new(&[1, 2]).max_new(4);
    // Worst case per request: 2 layers · ceil(6/4) = 4 blocks; a
    // budget of 5 fits exactly one at a time.
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 4,
        block_tokens: 4,
        kv_block_budget: 5,
        ..SchedulerConfig::default()
    });
    for _ in 0..3 {
        s.submit(dense(&m), &req).unwrap();
    }
    let mut peak = 0;
    while s.tick(|_| {}) > 0 {
        peak = peak.max(s.active_slots());
        assert!(s.reserved_blocks() <= 5, "reservation within budget");
        assert!(s.kv_pool().blocks_in_use() <= 5, "usage within budget");
    }
    assert_eq!(peak, 1, "budget admits one request at a time");
    let outputs = s.take_finished();
    assert_eq!(outputs.len(), 3, "head-of-line blocking is not starvation");
    let expected = solo_tokens(&m, &req);
    assert!(outputs.iter().all(|o| o.tokens == expected));
}

#[test]
fn requests_join_mid_run_and_decode_identically() {
    let m = model();
    let req_a = GenerateRequest::new(&[1, 2, 3]).max_new(6);
    let req_b = GenerateRequest::new(&[7, 8]).max_new(4);
    let solo_a = solo_tokens(&m, &req_a);
    let solo_b = solo_tokens(&m, &req_b);

    let mut s = Scheduler::new(SchedulerConfig::default());
    let a = s.submit(dense(&m), &req_a).unwrap();
    for _ in 0..3 {
        s.tick(|_| {});
    }
    // Joins while `a` is mid-decode.
    let b = s.submit(dense(&m), &req_b).unwrap();
    let outputs = s.run();
    assert_eq!(outputs[a.id()].tokens, solo_a);
    assert_eq!(outputs[b.id()].tokens, solo_b);
}

#[test]
fn cancelling_a_queued_request_retires_it_without_decoding() {
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 1,
        ..SchedulerConfig::default()
    });
    let keep = s
        .submit(dense(&m), &GenerateRequest::new(&[1, 2]).max_new(3))
        .unwrap();
    let doomed = s
        .submit(dense(&m), &GenerateRequest::new(&[4]).max_new(3))
        .unwrap();
    doomed.cancel();
    assert!(doomed.is_cancelled());
    let outputs = s.run();
    assert_eq!(outputs.len(), 2);
    assert_eq!(outputs[keep.id()].finish, FinishReason::MaxTokens);
    assert_eq!(outputs[doomed.id()].finish, FinishReason::Cancelled);
    assert!(outputs[doomed.id()].tokens.is_empty());
}

#[test]
fn cancelling_mid_stream_keeps_the_tokens_so_far_and_frees_blocks() {
    let m = model();
    let req = GenerateRequest::new(&[1, 2]).max_new(32);
    let solo = solo_tokens(&m, &req);
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 2,
        block_tokens: 4,
        kv_block_budget: usize::MAX,
        ..SchedulerConfig::default()
    });
    let handle = s.submit(dense(&m), &req).unwrap();
    let kv = s.kv_pool().clone();
    let mut streamed = Vec::new();
    for _ in 0..6 {
        s.tick(|ev| streamed.push(ev.token));
    }
    handle.cancel();
    let outputs = s.run();
    assert_eq!(outputs[0].finish, FinishReason::Cancelled);
    assert!(!outputs[0].tokens.is_empty(), "partial output preserved");
    assert!(
        outputs[0].tokens.len() < 32,
        "cancelled well short of budget"
    );
    assert_eq!(outputs[0].tokens, streamed);
    assert_eq!(
        outputs[0].tokens[..],
        solo[..outputs[0].tokens.len()],
        "the prefix matches solo decode exactly"
    );
    assert_eq!(kv.blocks_in_use(), 0, "blocks reclaimed");
}

#[test]
fn retirement_frees_capacity_that_admits_the_next_request() {
    let m = model();
    let short = GenerateRequest::new(&[1, 2]).max_new(2);
    let long = GenerateRequest::new(&[3, 4]).max_new(8);
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 1,
        ..SchedulerConfig::default()
    });
    s.submit(dense(&m), &short).unwrap();
    s.submit(dense(&m), &long).unwrap();
    // Tick until the short request retires; the long one must then be
    // admitted into the freed slot.
    let mut ticks = 0;
    while s.pending_requests() > 0 {
        s.tick(|_| {});
        ticks += 1;
        assert!(ticks < 64, "the queued request must eventually be admitted");
    }
    let outputs = s.run();
    assert_eq!(outputs.len(), 2);
    assert_eq!(outputs[1].tokens, solo_tokens(&m, &long));
}

#[test]
fn mixed_engine_kinds_share_one_scheduler() {
    let m = model();
    let req = GenerateRequest::new(&[1, 2]).max_new(4);
    let mut s = Scheduler::new(SchedulerConfig::default());
    s.submit(dense(&m), &req).unwrap();
    s.submit(
        EngineBuilder::new(&m)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap(),
        &req,
    )
    .unwrap();
    let out = s.run();
    assert_eq!(out[0].engine, "dense");
    assert_eq!(out[1].engine, "sparse:sparseinfer");
    assert!(out[0].stats.is_none());
    assert!(out[1].stats.is_some());
}

#[test]
fn outputs_keep_push_order_and_ids() {
    let m = model();
    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    for p in [[1u32, 2], [9, 8], [4, 4]] {
        let e = EngineBuilder::new(&m).build().unwrap();
        batch
            .submit(e, &GenerateRequest::new(&p).max_new(3))
            .unwrap();
    }
    let out = batch.run();
    assert_eq!(out.iter().map(|o| o.id).collect::<Vec<_>>(), vec![0, 1, 2]);
}

#[test]
fn per_request_ops_are_isolated() {
    let m = model();
    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    for max_new in [2usize, 8] {
        let e = EngineBuilder::new(&m)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap();
        batch
            .submit(e, &GenerateRequest::new(&[1, 2]).max_new(max_new))
            .unwrap();
    }
    let out = batch.run();
    assert!(
        out[1].ops.macs > out[0].ops.macs,
        "8-token request must cost more than the 2-token one"
    );
    assert_eq!(out[0].stats.as_ref().unwrap().tokens(), 2);
    assert_eq!(out[1].stats.as_ref().unwrap().tokens(), 8);
}

#[test]
fn streaming_interleaves_requests() {
    let m = model();
    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    for p in [[1u32, 2], [3, 4]] {
        let e = EngineBuilder::new(&m).build().unwrap();
        batch
            .submit(e, &GenerateRequest::new(&p).max_new(3))
            .unwrap();
    }
    let mut order = Vec::new();
    let _ = batch.run_streaming(|ev| order.push(ev.request));
    // Equal-length prompts: tokens alternate 0,1,0,1,0,1.
    assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
}

#[test]
fn finished_slots_release_their_decode_memory() {
    fn build<'m>(m: &'m Model, max_new: usize, batch: &mut Scheduler<'m>) {
        let e = EngineBuilder::new(m)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap();
        batch
            .submit(e, &GenerateRequest::new(&[1, 2]).max_new(max_new))
            .unwrap();
    }
    let m = model();
    // Seven requests that finish quickly + one that keeps decoding.
    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    for _ in 0..7 {
        build(&m, 2, &mut batch);
    }
    build(&m, 24, &mut batch);
    let full = {
        // Warm every slot first so the estimate sees live buffers.
        batch.tick(|_| {});
        batch.memory_estimate().total()
    };
    while batch.unfinished_requests() > 1 {
        batch.tick(|_| {});
    }
    let drained = batch.memory_estimate().total();

    // A fresh 1-slot batch over the same engine kind, advanced the same
    // number of steps, is the floor the drained batch must be near.
    let mut solo = Scheduler::new(SchedulerConfig::unbounded());
    build(&m, 24, &mut solo);
    for _ in 0..(2 + 2 + 2) {
        solo.tick(|_| {});
    }
    let solo_total = solo.memory_estimate().total();
    assert!(
        drained <= solo_total + solo_total / 4 + 1024,
        "7 finished + 1 live ({drained} B) must be within a small \
         constant of a 1-slot batch ({solo_total} B)"
    );
    assert!(
        full > drained,
        "retiring slots must shrink the estimate ({full} -> {drained})"
    );
    // The retired outputs are still delivered.
    let out = batch.run();
    assert_eq!(out.len(), 8);
    assert!(out.iter().take(7).all(|o| o.tokens.len() == 2));
}

/// An engine that never produces logits: the first decode step fails.
#[derive(Debug)]
struct BrokenEngine<'m> {
    model: &'m sparseinfer_model::Model,
    ops: OpCounter,
}

impl Engine for BrokenEngine<'_> {
    fn model(&self) -> &sparseinfer_model::Model {
        self.model
    }

    fn score_block_into(
        &mut self,
        tokens: &[u32],
        session: &mut sparseinfer_model::model::DecodeSession,
        logits: &mut [sparseinfer_tensor::Vector],
    ) {
        assert_eq!(tokens.len(), logits.len(), "one logit vector per token");
        session.position += tokens.len();
        for out in logits {
            *out = sparseinfer_tensor::Vector::zeros(0);
        }
    }

    fn ops(&self) -> &OpCounter {
        &self.ops
    }

    fn reset_ops(&mut self) {}

    fn name(&self) -> &str {
        "broken"
    }
}

#[test]
fn failed_slot_retires_without_poisoning_the_batch() {
    let m = model();
    let mut batch = Scheduler::new(SchedulerConfig::unbounded());
    let healthy = EngineBuilder::new(&m).build().unwrap();
    batch
        .submit(healthy, &GenerateRequest::new(&[1, 2]).max_new(3))
        .unwrap();
    let broken = Box::new(BrokenEngine {
        model: &m,
        ops: OpCounter::default(),
    });
    batch
        .submit(broken, &GenerateRequest::new(&[5]).max_new(3))
        .unwrap();
    let out = batch.run();
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].tokens.len(), 3, "healthy request completes");
    assert_eq!(out[0].finish, FinishReason::MaxTokens);
    assert_eq!(
        out[1].finish,
        FinishReason::Failed(EngineError::EmptyVocab),
        "broken request fails as data, not a panic"
    );
    assert!(out[1].tokens.is_empty());
}

#[test]
fn mixed_kv_dimensions_are_rejected_at_submit_not_mid_decode() {
    let m_small = model(); // tiny(): one hidden_dim…
    let mut cfg = ModelConfig::tiny();
    cfg.hidden_dim *= 2; // …and a model with another
    cfg.n_heads = 2;
    let m_big = WeightGenerator::new(&cfg, 5).build();
    let m_twin = WeightGenerator::new(&ModelConfig::tiny(), 77).build();

    let mut s = Scheduler::new(SchedulerConfig::default());
    s.submit(dense(&m_small), &GenerateRequest::new(&[1]).max_new(2))
        .unwrap();
    let err = s
        .submit(dense(&m_big), &GenerateRequest::new(&[2]).max_new(2))
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::KvDimensionMismatch {
            scheduler_dim: m_small.config().hidden_dim,
            model_dim: m_big.config().hidden_dim,
        },
        "a mismatched model must be rejected as data, not a pool panic"
    );
    // The scheduler keeps serving, and distinct models of the *same*
    // KV dimension still mix freely (the pre-scheduler Batch contract).
    s.submit(dense(&m_twin), &GenerateRequest::new(&[3]).max_new(2))
        .unwrap();
    let outputs = s.run();
    assert_eq!(outputs.len(), 2);
    assert!(outputs.iter().all(|o| o.tokens.len() == 2));
}

#[test]
fn rejected_submit_does_not_latch_the_kv_dimension() {
    let m_small = model();
    let mut cfg = ModelConfig::tiny();
    cfg.hidden_dim *= 2;
    cfg.n_heads = 2;
    let m_big = WeightGenerator::new(&cfg, 9).build();

    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 2,
        block_tokens: 4,
        kv_block_budget: 3,
        ..SchedulerConfig::default()
    });
    // Budget-rejected: must not pin the scheduler to m_big's width.
    let err = s
        .submit(dense(&m_big), &GenerateRequest::new(&[1, 2]).max_new(30))
        .unwrap_err();
    assert!(matches!(err, EngineError::KvBudgetExceeded { .. }));
    // A fitting request over a *different* dimension is still welcome.
    s.submit(dense(&m_small), &GenerateRequest::new(&[1]).max_new(2))
        .unwrap();
    assert_eq!(s.run().len(), 1);
}

#[test]
fn cancelled_requests_behind_a_blocked_head_retire_immediately() {
    let m = model();
    // Budget fits exactly one small request; the big head can never be
    // joined by anything while it waits… but cancellation must not
    // wait with it.
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 3,
        block_tokens: 4,
        kv_block_budget: 4,
        ..SchedulerConfig::default()
    });
    let head = s
        .submit(dense(&m), &GenerateRequest::new(&[1, 2]).max_new(4))
        .unwrap();
    let mut doomed = Vec::new();
    for t in 0..3 {
        doomed.push(
            s.submit(dense(&m), &GenerateRequest::new(&[3 + t]).max_new(4))
                .unwrap(),
        );
    }
    s.tick(|_| {}); // head admitted, the rest queue behind it
    assert_eq!(s.active_slots(), 1);
    assert_eq!(s.pending_requests(), 3);
    for h in &doomed {
        h.cancel();
    }
    s.tick(|_| {});
    assert_eq!(
        s.pending_requests(),
        0,
        "cancelled entries must leave the queue (and drop their \
         engines) even though the head is still decoding"
    );
    let _ = head;
    let outputs = s.run();
    assert_eq!(outputs.len(), 4);
    assert!(outputs[1..]
        .iter()
        .all(|o| o.finish == FinishReason::Cancelled));
    assert_eq!(outputs[0].tokens.len(), 4);
}

#[test]
fn warm_prefix_resubmission_skips_prefill_and_reuses_blocks() {
    let m = model();
    let n_layers = m.config().n_layers;
    // Prompt of 10 tokens at 4 per block: the densely prefilled region
    // is 9 tokens, so 2 full blocks (8 tokens) are sharable.
    let prompt: Vec<u32> = (1..=10).collect();
    let req = GenerateRequest::new(&prompt).max_new(4);
    let solo = solo_tokens(&m, &req);
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 2,
        block_tokens: 4,
        kv_block_budget: usize::MAX,
        ..SchedulerConfig::default()
    });
    s.submit(dense(&m), &req).unwrap();
    while s.tick(|_| {}) > 0 {}
    let cold = s.take_finished();
    assert_eq!(cold[0].tokens, solo);
    assert_eq!(cold[0].prefill_skipped_tokens, 0, "first run is cold");
    let created_after_cold = s.kv_pool().blocks_created();
    let stats = s.prefix_stats();
    assert_eq!(stats.published_blocks, 2 * n_layers);
    assert_eq!(stats.retained_blocks, 2 * n_layers);
    assert_eq!(
        stats.unreferenced_blocks, stats.retained_blocks,
        "publisher retired, the index is the sole referrer"
    );
    assert_eq!(stats.attached_requests, 0);

    s.submit(dense(&m), &req).unwrap();
    while s.tick(|_| {}) > 0 {}
    let warm = s.take_finished();
    assert_eq!(warm[0].tokens, solo, "warm decode is bit-identical");
    assert_eq!(
        warm[0].prefill_skipped_tokens, 8,
        "shared full blocks × block_tokens"
    );
    let stats = s.prefix_stats();
    assert_eq!(stats.attached_requests, 1);
    assert_eq!(stats.skipped_tokens, 8);
    assert_eq!(
        s.kv_pool().blocks_created(),
        created_after_cold,
        "the warm run allocated nothing beyond recycled free blocks"
    );
}

#[test]
fn prefix_cache_disabled_never_attaches_or_retains() {
    let m = model();
    let prompt: Vec<u32> = (1..=10).collect();
    let req = GenerateRequest::new(&prompt).max_new(3);
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 2,
        block_tokens: 4,
        kv_block_budget: usize::MAX,
        prefix_cache: false,
        prefix_retain_blocks: 0,
        ..SchedulerConfig::default()
    });
    for _ in 0..2 {
        s.submit(dense(&m), &req).unwrap();
        while s.tick(|_| {}) > 0 {}
    }
    let outputs = s.take_finished();
    assert!(outputs.iter().all(|o| o.prefill_skipped_tokens == 0));
    assert_eq!(s.prefix_stats(), PrefixCacheStats::default());
    assert_eq!(s.kv_pool().blocks_in_use(), 0, "nothing retained");
}

#[test]
fn prefix_retention_cap_evicts_unreferenced_lru_entries() {
    let m = model();
    let n_layers = m.config().n_layers;
    // Each distinct 6-token prompt publishes one full block per layer.
    let cap = n_layers; // room for exactly one retained prefix
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 1,
        block_tokens: 4,
        kv_block_budget: usize::MAX,
        prefix_cache: true,
        prefix_retain_blocks: cap,
        ..SchedulerConfig::default()
    });
    for start in [10u32, 25, 40] {
        let prompt: Vec<u32> = (start..start + 6).collect();
        s.submit(dense(&m), &GenerateRequest::new(&prompt).max_new(2))
            .unwrap();
        while s.tick(|_| {}) > 0 {}
    }
    let stats = s.prefix_stats();
    assert!(
        stats.unreferenced_blocks <= cap,
        "cap {} exceeded: {} unreferenced blocks retained",
        cap,
        stats.unreferenced_blocks
    );
    assert!(stats.evicted_blocks >= n_layers, "older prefixes evicted");
    // The most recent prefix is the survivor: resubmitting it hits.
    let prompt: Vec<u32> = (40u32..46).collect();
    s.submit(dense(&m), &GenerateRequest::new(&prompt).max_new(2))
        .unwrap();
    while s.tick(|_| {}) > 0 {}
    let out = s.take_finished();
    assert_eq!(out.last().unwrap().prefill_skipped_tokens, 4);
}

#[test]
fn budget_pressure_evicts_warm_cache_to_admit_new_requests() {
    let m = model();
    let n_layers = m.config().n_layers; // tiny(): 2
                                        // Each request: 5-token prompt + max_new 3 = 8 tokens = 2 blocks
                                        // per layer gross; 1 full block per layer is sharable.
    let gross = n_layers * 2;
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 2,
        block_tokens: 4,
        kv_block_budget: gross, // exactly one cold request fits
        prefix_cache: true,
        prefix_retain_blocks: usize::MAX, // only budget pressure evicts
        ..SchedulerConfig::default()
    });
    s.submit(
        dense(&m),
        &GenerateRequest::new(&[1, 2, 3, 4, 5]).max_new(3),
    )
    .unwrap();
    while s.tick(|_| {}) > 0 {}
    assert_eq!(s.prefix_stats().retained_blocks, n_layers);
    // A *different* prompt needs the whole budget: the warm cache must
    // be evicted to admit it rather than blocking the queue forever.
    s.submit(
        dense(&m),
        &GenerateRequest::new(&[9, 8, 7, 6, 5]).max_new(3),
    )
    .unwrap();
    let mut ticks = 0;
    while s.tick(|_| {}) > 0 {
        ticks += 1;
        assert!(ticks < 64, "warm retention must not starve admission");
    }
    let outputs = s.take_finished();
    assert_eq!(outputs.len(), 2);
    assert_eq!(outputs[1].tokens.len(), 3);
    assert!(s.prefix_stats().evicted_blocks >= n_layers);
}

#[test]
fn request_handles_cancel_across_threads() {
    // The serving contract: connection threads hold clones of the
    // handle and cancel without touching the scheduler thread.
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<RequestHandle>();

    let m = model();
    let mut s = Scheduler::new(SchedulerConfig::default());
    let handle = s
        .submit(dense(&m), &GenerateRequest::new(&[1, 2]).max_new(64))
        .unwrap();
    for _ in 0..4 {
        s.tick(|_| {});
    }
    let remote = handle.clone();
    std::thread::spawn(move || remote.cancel())
        .join()
        .expect("cancelling thread");
    assert!(handle.is_cancelled());
    let outputs = s.run();
    assert_eq!(outputs[0].finish, FinishReason::Cancelled);
    assert!(outputs[0].tokens.len() < 64, "stopped well short of budget");
}

#[test]
fn expired_mid_stream_requests_keep_partial_tokens_and_free_blocks() {
    let m = model();
    let req = GenerateRequest::new(&[1, 2]).max_new(64);
    let solo = solo_tokens(&m, &req);
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 2,
        block_tokens: 4,
        ..SchedulerConfig::default()
    });
    let handle = s.submit(dense(&m), &req).unwrap();
    let kv = s.kv_pool().clone();
    for _ in 0..6 {
        s.tick(|_| {});
    }
    handle.expire();
    assert!(handle.is_expired());
    let outputs = s.run();
    assert_eq!(outputs[0].finish, FinishReason::DeadlineExceeded);
    assert!(!outputs[0].tokens.is_empty(), "partial output preserved");
    assert_eq!(outputs[0].tokens[..], solo[..outputs[0].tokens.len()]);
    assert_eq!(kv.blocks_in_use(), 0, "blocks reclaimed on expiry");
}

#[test]
fn expired_queued_requests_retire_without_decoding() {
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 1,
        ..SchedulerConfig::default()
    });
    s.submit(dense(&m), &GenerateRequest::new(&[1, 2]).max_new(3))
        .unwrap();
    let queued = s
        .submit(dense(&m), &GenerateRequest::new(&[4]).max_new(3))
        .unwrap();
    queued.expire();
    let outputs = s.run();
    assert_eq!(outputs[queued.id()].finish, FinishReason::DeadlineExceeded);
    assert!(outputs[queued.id()].tokens.is_empty());
}

#[test]
fn first_raised_signal_wins() {
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig::default());
    let h = s
        .submit(dense(&m), &GenerateRequest::new(&[1]).max_new(8))
        .unwrap();
    h.cancel();
    h.expire(); // late expiry must not overwrite the cancellation
    assert!(h.is_cancelled() && !h.is_expired());
    assert_eq!(s.run()[0].finish, FinishReason::Cancelled);

    let mut s = Scheduler::new(SchedulerConfig::default());
    let h = s
        .submit(dense(&m), &GenerateRequest::new(&[1]).max_new(8))
        .unwrap();
    h.expire();
    h.cancel(); // and vice versa
    assert!(h.is_expired() && !h.is_cancelled());
    assert_eq!(s.run()[0].finish, FinishReason::DeadlineExceeded);
}

/// One-request-at-a-time budget (2 layers × 2 blocks for a 2-token
/// prompt + 4 new tokens at 4 tokens/block), prefix cache off so the
/// block accounting in the assertions stays exact.
fn preemption_config() -> SchedulerConfig {
    SchedulerConfig {
        max_slots: 4,
        block_tokens: 4,
        kv_block_budget: 4,
        prefix_cache: false,
        prefix_retain_blocks: 0,
        preemption: true,
        max_preemptions_per_request: 8,
        swap_budget_bytes: u64::MAX,
        kv_dtype: KvDtype::F32,
    }
}

/// Drives the canonical preemption scenario: a Batch request fills
/// the whole budget, a High request arrives mid-decode and must
/// preempt it. Returns (batch output, high output, stats).
fn preempt_scenario(
    config: SchedulerConfig,
    threads: usize,
) -> (BatchOutput, BatchOutput, PreemptionStats) {
    let m = model();
    let batch_req = GenerateRequest::new(&[1, 2])
        .max_new(4)
        .priority(Priority::Batch);
    let high_req = GenerateRequest::new(&[7, 8])
        .max_new(4)
        .priority(Priority::High);
    let mut s = Scheduler::new(config).parallel(ParallelOptions::threads(threads));
    let a = s.submit(dense(&m), &batch_req).unwrap();
    for _ in 0..3 {
        s.tick(|_| {}); // Batch admitted, two tokens emitted…
    }
    let b = s.submit(dense(&m), &high_req).unwrap();
    s.tick(|_| {}); // …and it is evicted for the High arrival here.
    assert_eq!(s.preempted_requests(), 1, "batch request preempted");
    assert_eq!(s.active_slots(), 1, "high request took the slot");
    let kv = s.kv_pool().clone();
    let stats_mid = s.preemption_stats();
    let mut outputs = s.run();
    assert_eq!(kv.blocks_in_use(), 0, "pool drained");
    let high = outputs.remove(b.id());
    let batch = outputs.remove(a.id());
    (batch, high, stats_mid)
}

#[test]
fn high_priority_preempts_batch_by_swap_and_tokens_stay_bit_identical() {
    let m = model();
    let solo_batch = solo_tokens(&m, &GenerateRequest::new(&[1, 2]).max_new(4));
    let solo_high = solo_tokens(&m, &GenerateRequest::new(&[7, 8]).max_new(4));
    for threads in [1, 2, 4] {
        let (batch, high, stats) = preempt_scenario(preemption_config(), threads);
        assert_eq!(stats.preemptions, 1);
        assert_eq!(stats.swapped_out, 1, "swap preferred under no byte cap");
        assert_eq!(stats.recomputed, 0);
        assert!(stats.swapped_bytes > 0, "cold buffer accounted mid-flight");
        assert_eq!(batch.tokens, solo_batch, "swapped run is bit-identical");
        assert_eq!(high.tokens, solo_high);
        assert_eq!(batch.preemptions, 1);
        assert!(batch.swapped_blocks > 0);
        assert_eq!(high.preemptions, 0);
        assert_eq!(high.swapped_blocks, 0);
    }
}

#[test]
fn swap_budget_zero_falls_back_to_deterministic_recompute() {
    let m = model();
    let solo_batch = solo_tokens(&m, &GenerateRequest::new(&[1, 2]).max_new(4));
    let solo_high = solo_tokens(&m, &GenerateRequest::new(&[7, 8]).max_new(4));
    for threads in [1, 2, 4] {
        let config = SchedulerConfig {
            swap_budget_bytes: 0,
            ..preemption_config()
        };
        let (batch, high, stats) = preempt_scenario(config, threads);
        assert_eq!(stats.preemptions, 1);
        assert_eq!(stats.swapped_out, 0);
        assert_eq!(stats.recomputed, 1, "no swap budget: drop and recompute");
        assert_eq!(stats.swapped_bytes, 0);
        assert_eq!(batch.tokens, solo_batch, "recomputed run is bit-identical");
        assert_eq!(high.tokens, solo_high);
        assert_eq!(batch.preemptions, 1);
        assert_eq!(batch.swapped_blocks, 0, "recompute swaps nothing");
    }
}

#[test]
fn cancelling_a_swapped_out_request_frees_cold_bytes_and_pool_drains() {
    let m = model();
    let mut s = Scheduler::new(preemption_config());
    let batch = s
        .submit(
            dense(&m),
            &GenerateRequest::new(&[1, 2])
                .max_new(4)
                .priority(Priority::Batch),
        )
        .unwrap();
    for _ in 0..3 {
        s.tick(|_| {}); // two tokens emitted before eviction
    }
    s.submit(
        dense(&m),
        &GenerateRequest::new(&[7, 8])
            .max_new(4)
            .priority(Priority::High),
    )
    .unwrap();
    s.tick(|_| {});
    assert_eq!(s.preempted_requests(), 1);
    assert!(s.preemption_stats().swapped_bytes > 0);
    assert!(
        s.memory_estimate().swapped_bytes > 0,
        "cold buffers must show up in the memory estimate"
    );
    batch.cancel();
    s.tick(|_| {});
    assert_eq!(
        s.preempted_requests(),
        0,
        "cancellation must not wait for a resume slot"
    );
    assert_eq!(s.preemption_stats().swapped_bytes, 0, "cold buffer freed");
    assert_eq!(s.memory_estimate().swapped_bytes, 0);
    let kv = s.kv_pool().clone();
    let outputs = s.run();
    assert_eq!(kv.blocks_in_use(), 0, "pool drains to zero");
    let cancelled = &outputs[batch.id()];
    assert_eq!(cancelled.finish, FinishReason::Cancelled);
    assert!(!cancelled.tokens.is_empty(), "pre-preemption tokens kept");
    assert_eq!(cancelled.preemptions, 1);
}

#[test]
fn preemption_cap_makes_slots_non_preemptable() {
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig {
        max_preemptions_per_request: 0,
        ..preemption_config()
    });
    let batch = s
        .submit(
            dense(&m),
            &GenerateRequest::new(&[1, 2])
                .max_new(4)
                .priority(Priority::Batch),
        )
        .unwrap();
    s.tick(|_| {});
    let high = s
        .submit(
            dense(&m),
            &GenerateRequest::new(&[7, 8])
                .max_new(4)
                .priority(Priority::High),
        )
        .unwrap();
    let mut first_finished = None;
    while s.tick(|_| {}) > 0 {
        if first_finished.is_none() && !s.take_finished().is_empty() {
            first_finished = Some(batch.id());
            assert_eq!(
                s.preemption_stats().preemptions,
                0,
                "cap of 0 disables eviction"
            );
        }
    }
    assert_eq!(
        first_finished,
        Some(batch.id()),
        "at the cap the high request waits for the batch one"
    );
    let _ = high;
}

#[test]
fn preemption_disabled_blocks_like_plain_fifo() {
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig {
        preemption: false,
        ..preemption_config()
    });
    s.submit(
        dense(&m),
        &GenerateRequest::new(&[1, 2])
            .max_new(4)
            .priority(Priority::Batch),
    )
    .unwrap();
    s.tick(|_| {});
    s.submit(
        dense(&m),
        &GenerateRequest::new(&[7, 8])
            .max_new(4)
            .priority(Priority::High),
    )
    .unwrap();
    while s.tick(|_| {}) > 0 {}
    assert_eq!(s.preemption_stats(), PreemptionStats::default());
}

#[test]
fn priority_classes_admit_before_older_lower_classes() {
    let m = model();
    // One slot, no preemption: admission order alone decides.
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 1,
        preemption: false,
        ..SchedulerConfig::default()
    });
    let req = |p: &[u32], prio: Priority| GenerateRequest::new(p).max_new(2).priority(prio);
    let occupant = s.submit(dense(&m), &req(&[9], Priority::Normal)).unwrap();
    s.tick(|_| {}); // occupant holds the only slot
    let batch = s.submit(dense(&m), &req(&[1], Priority::Batch)).unwrap();
    let normal = s.submit(dense(&m), &req(&[2], Priority::Normal)).unwrap();
    let high = s.submit(dense(&m), &req(&[3], Priority::High)).unwrap();
    let mut first_tokens = Vec::new();
    while s.tick(|ev| {
        if ev.index == 0 {
            first_tokens.push(ev.request);
        }
    }) > 0
    {}
    assert_eq!(
        first_tokens,
        vec![occupant.id(), high.id(), normal.id(), batch.id()],
        "admission is priority-first, FIFO within a class"
    );
}

#[test]
fn resumed_requests_admit_ahead_of_equal_priority_fresh_ones() {
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 4,
        block_tokens: 4,
        kv_block_budget: 4,
        prefix_cache: false,
        prefix_retain_blocks: 0,
        preemption: true,
        max_preemptions_per_request: 8,
        swap_budget_bytes: u64::MAX,
        kv_dtype: KvDtype::F32,
    });
    let batch = s
        .submit(
            dense(&m),
            &GenerateRequest::new(&[1, 2])
                .max_new(4)
                .priority(Priority::Batch),
        )
        .unwrap();
    for _ in 0..3 {
        s.tick(|_| {}); // two tokens emitted before eviction
    }
    s.submit(
        dense(&m),
        &GenerateRequest::new(&[7, 8])
            .max_new(4)
            .priority(Priority::High),
    )
    .unwrap();
    s.tick(|_| {});
    assert_eq!(s.preempted_requests(), 1);
    // A fresh Batch request arrives while the first waits to resume:
    // the preempted one must come back first.
    let fresh = s
        .submit(
            dense(&m),
            &GenerateRequest::new(&[4, 5])
                .max_new(4)
                .priority(Priority::Batch),
        )
        .unwrap();
    let mut events = Vec::new();
    while s.tick(|ev| events.push((ev.request, ev.index))) > 0 {}
    let resumed_at = events
        .iter()
        .position(|&(r, i)| r == batch.id() && i == 2)
        .expect("the resumed request continues at index 2, gapless");
    let fresh_at = events
        .iter()
        .position(|&(r, i)| r == fresh.id() && i == 0)
        .expect("the fresh request eventually starts");
    assert!(
        resumed_at < fresh_at,
        "the resume queue admits ahead of equal-priority fresh work"
    );
    let outputs = s.take_finished();
    let resumed = outputs.iter().find(|o| o.id == batch.id()).unwrap();
    let fresh_out = outputs.iter().find(|o| o.id == fresh.id()).unwrap();
    assert_eq!(resumed.preemptions, 1);
    assert_eq!(fresh_out.preemptions, 0);
    assert_eq!(s.preemption_stats().resumed, 1);
}

#[test]
fn take_finished_drains_incrementally() {
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig::default());
    s.submit(dense(&m), &GenerateRequest::new(&[1]).max_new(1))
        .unwrap();
    s.submit(dense(&m), &GenerateRequest::new(&[2, 3]).max_new(6))
        .unwrap();
    while s.take_finished().is_empty() {
        s.tick(|_| {});
    }
    assert!(s.unfinished_requests() > 0, "long request still going");
    while s.tick(|_| {}) > 0 {}
    assert_eq!(s.take_finished().len(), 1);
    assert!(s.take_finished().is_empty(), "drained");
}

/// Signbit draft over a dense verifier — the paper's sparse-predictor
/// configuration of lossless speculative decoding.
fn speculative<'m>(m: &'m Model, k: usize) -> Box<dyn Engine + 'm> {
    let draft = EngineBuilder::new(m)
        .signbit(AlphaSchedule::uniform(1.0))
        .build()
        .unwrap();
    let verify = EngineBuilder::new(m).build().unwrap();
    EngineBuilder::speculative(draft, verify, k).unwrap()
}

/// Oracle draft over a dense verifier: the draft's argmax chain equals
/// dense decode exactly, so every proposal must be accepted.
fn oracle_speculative<'m>(m: &'m Model, k: usize) -> Box<dyn Engine + 'm> {
    let draft = EngineBuilder::new(m).oracle().build().unwrap();
    let verify = EngineBuilder::new(m).build().unwrap();
    EngineBuilder::speculative(draft, verify, k).unwrap()
}

/// Summed `(drafted, accepted)` of the three requests below at k = 1, 4, 8
/// over an f16 KV pool. The f32 draft session widens the serving pool's f16
/// words as it resyncs, so a change to that widening moves a proposal and
/// with it these counts.
const F16_SPECULATION_COUNTS: [(u64, u64); 3] = [(12, 12), (21, 20), (27, 22)];

#[test]
fn speculative_scheduling_is_bit_identical_to_dense_only() {
    let m = model();
    let reqs = [
        GenerateRequest::new(&[1, 2, 3]).max_new(10),
        GenerateRequest::new(&[4, 5]).max_new(8),
        GenerateRequest::new(&[9]).max_new(12),
    ];
    for kv in [KvDtype::F32, KvDtype::F16] {
        let config = SchedulerConfig {
            kv_dtype: kv,
            ..SchedulerConfig::default()
        };
        // f16 KV rounds the context, so its baseline is dense-only decode
        // over an f16 pool, not the f32 solo run.
        let solos: Vec<Vec<u32>> = reqs
            .iter()
            .map(|r| match kv {
                KvDtype::F32 => solo_tokens(&m, r),
                KvDtype::F16 => {
                    let mut s = Scheduler::new(config);
                    s.submit(dense(&m), r).unwrap();
                    s.run().remove(0).tokens
                }
            })
            .collect();
        for (k, f16_counts) in [1, 4, 8].into_iter().zip(F16_SPECULATION_COUNTS) {
            for threads in [1, 2, 4] {
                let mut s = Scheduler::new(config).parallel(ParallelOptions::threads(threads));
                for req in &reqs {
                    s.submit(speculative(&m, k), req).unwrap();
                }
                let mut streamed: Vec<Vec<u32>> = vec![Vec::new(); reqs.len()];
                while s.tick(|e| {
                    assert_eq!(e.index, streamed[e.request].len(), "events in order");
                    streamed[e.request].push(e.token);
                }) > 0
                {}
                let mut outputs = s.take_finished();
                outputs.sort_by_key(|o| o.id);
                let mut drafted_sum = 0;
                let mut accepted_sum = 0;
                for (i, out) in outputs.iter().enumerate() {
                    assert_eq!(
                        out.tokens,
                        solos[i],
                        "k={k} threads={threads} kv={}: speculative tokens must be \
                         bit-identical to dense-only",
                        kv.label()
                    );
                    assert_eq!(
                        out.tokens, streamed[i],
                        "streamed events rebuild the output"
                    );
                    let spec = out.speculative.expect("speculative engines report stats");
                    assert!(spec.drafted > 0, "k={k}: blocks were drafted");
                    assert!(spec.accepted <= spec.drafted);
                    drafted_sum += spec.drafted;
                    accepted_sum += spec.accepted;
                }
                let agg = s.speculative_stats();
                assert_eq!(agg.drafted, drafted_sum, "aggregate folds retired requests");
                assert_eq!(agg.accepted, accepted_sum);
                if kv == KvDtype::F16 {
                    assert_eq!(
                        (drafted_sum, accepted_sum),
                        f16_counts,
                        "k={k} threads={threads}: f16 draft proposals moved"
                    );
                }
            }
        }
    }
}

#[test]
fn speculative_oracle_draft_accepts_everything_through_the_scheduler() {
    let m = model();
    let req = GenerateRequest::new(&[1, 2, 3]).max_new(9);
    let solo = solo_tokens(&m, &req);
    let mut s = Scheduler::new(SchedulerConfig::default());
    s.submit(oracle_speculative(&m, 4), &req).unwrap();
    while s.tick(|_| {}) > 0 {}
    let out = &s.take_finished()[0];
    assert_eq!(out.tokens, solo);
    let spec = out.speculative.expect("stats surfaced on the output");
    assert!(spec.drafted > 0);
    assert_eq!(spec.accepted, spec.drafted, "oracle draft never misses");
    assert!((s.speculative_stats().acceptance_rate() - 1.0).abs() < 1e-9);
}

#[test]
fn speculative_survives_a_preemption_storm_bit_identically() {
    let m = model();
    for k in [1, 4, 8] {
        for threads in [1, 2, 4] {
            let mut s =
                Scheduler::new(preemption_config()).parallel(ParallelOptions::threads(threads));
            // Five waves over a 220-tick storm: each wave's Batch request
            // fills the whole budget, then a High request lands mid-decode
            // three ticks later and must evict it (swap path; pending
            // speculative state and partial tokens ride along).
            let mut expected: Vec<Vec<u32>> = Vec::new();
            for tick in 0..220 {
                if tick % 40 == 0 && tick / 40 < 5 {
                    let w = (tick / 40) as u32;
                    let req = GenerateRequest::new(&[1, 2 + w])
                        .max_new(6)
                        .priority(Priority::Batch);
                    s.submit(speculative(&m, k), &req).unwrap();
                    expected.push(solo_tokens(&m, &req));
                }
                if tick % 40 == 3 && tick / 40 < 5 {
                    let w = (tick / 40) as u32;
                    let req = GenerateRequest::new(&[7, 8 + w])
                        .max_new(6)
                        .priority(Priority::High);
                    s.submit(speculative(&m, k), &req).unwrap();
                    expected.push(solo_tokens(&m, &req));
                }
                s.tick(|_| {});
            }
            while s.tick(|_| {}) > 0 {}
            let stats = s.preemption_stats();
            assert_eq!(stats.preemptions, 5, "k={k} threads={threads}");
            assert_eq!(stats.resumed, 5);
            let mut outputs = s.take_finished();
            outputs.sort_by_key(|o| o.id);
            assert_eq!(outputs.len(), expected.len());
            for (out, solo) in outputs.iter().zip(&expected) {
                assert_eq!(
                    out.tokens, *solo,
                    "k={k} threads={threads}: preempted speculative run \
                     diverged from dense-only"
                );
                assert!(out.speculative.is_some());
            }
            assert!(s.speculative_stats().drafted > 0);
        }
    }
}

/// A sign-bit sparse engine at the given weight format — the engine axis
/// of the dtype matrix (`WeightFormat::F32` vs `Int8`).
fn engine_for<'m>(m: &'m Model, wf: WeightFormat) -> Box<dyn Engine + 'm> {
    EngineBuilder::new(m)
        .signbit(AlphaSchedule::uniform(1.0))
        .weight_format(wf)
        .build()
        .unwrap()
}

/// Solo reference for one dtype configuration: the same request decoded
/// alone in a scheduler with the *same* weight format and KV dtype. The
/// identity claim for quantized configs is batched == its own solo, not
/// batched == fp32 (different storage rounding is a different function).
fn sched_solo_tokens(
    m: &Model,
    config: &SchedulerConfig,
    wf: WeightFormat,
    req: &GenerateRequest,
) -> Vec<u32> {
    let mut s = Scheduler::new(*config);
    s.submit(engine_for(m, wf), req).unwrap();
    s.run().remove(0).tokens
}

#[test]
fn every_dtype_config_is_bit_identical_to_its_own_solo_decode() {
    let m = model();
    let reqs = [
        GenerateRequest::new(&[1, 2, 3]).max_new(8),
        GenerateRequest::new(&[4, 5]).max_new(6),
        GenerateRequest::new(&[9]).max_new(10),
    ];
    for wf in [WeightFormat::F32, WeightFormat::Int8] {
        for kv in [KvDtype::F32, KvDtype::F16] {
            let config = SchedulerConfig {
                kv_dtype: kv,
                ..SchedulerConfig::default()
            };
            let solos: Vec<Vec<u32>> = reqs
                .iter()
                .map(|r| sched_solo_tokens(&m, &config, wf, r))
                .collect();
            for threads in [1, 2, 4] {
                let mut s = Scheduler::new(config).parallel(ParallelOptions::threads(threads));
                for req in &reqs {
                    s.submit(engine_for(&m, wf), req).unwrap();
                }
                let pool = s.kv_pool().clone();
                let outputs = s.run();
                for (out, solo) in outputs.iter().zip(&solos) {
                    assert_eq!(
                        out.tokens,
                        *solo,
                        "weights={} kv={} threads={threads}: batched decode \
                         diverged from its own solo decode",
                        wf.label(),
                        kv.label(),
                    );
                    assert_eq!(out.finish, FinishReason::MaxTokens);
                }
                assert_eq!(pool.blocks_in_use(), 0, "pool drains");
            }
        }
    }
}

#[test]
fn f16_kv_pool_reports_half_the_bytes_of_f32() {
    let m = model();
    let req = GenerateRequest::new(&[1, 2, 3, 4, 5]).max_new(8);
    let peak = |kv: KvDtype| {
        let config = SchedulerConfig {
            kv_dtype: kv,
            prefix_cache: false,
            ..SchedulerConfig::default()
        };
        let mut s = Scheduler::new(config);
        s.submit(dense(&m), &req).unwrap();
        let mut peak = 0u64;
        while s.tick(|_| {}) > 0 {
            peak = peak.max(s.kv_pool().in_use_bytes());
        }
        assert_eq!(s.kv_pool().blocks_in_use(), 0, "pool drains");
        peak
    };
    let full = peak(KvDtype::F32);
    let half = peak(KvDtype::F16);
    assert!(full > 0, "decode must touch the pool");
    assert_eq!(half * 2, full, "f16 must halve in-use KV bytes");
}

#[test]
fn every_dtype_config_survives_the_preemption_storm_and_drains_to_zero() {
    let m = model();
    for wf in [WeightFormat::F32, WeightFormat::Int8] {
        for kv in [KvDtype::F32, KvDtype::F16] {
            let config = SchedulerConfig {
                kv_dtype: kv,
                ..preemption_config()
            };
            // The same five Batch + five High waves as the speculative
            // storm, each decoded solo at this exact configuration first.
            let mut waves = Vec::new();
            for w in 0..5u32 {
                waves.push(
                    GenerateRequest::new(&[1, 2 + w])
                        .max_new(6)
                        .priority(Priority::Batch),
                );
                waves.push(
                    GenerateRequest::new(&[7, 8 + w])
                        .max_new(6)
                        .priority(Priority::High),
                );
            }
            let solos: Vec<Vec<u32>> = waves
                .iter()
                .map(|r| sched_solo_tokens(&m, &config, wf, r))
                .collect();
            for threads in [1, 2, 4] {
                let mut s = Scheduler::new(config).parallel(ParallelOptions::threads(threads));
                for tick in 0..220 {
                    if tick % 40 == 0 && tick / 40 < 5 {
                        s.submit(engine_for(&m, wf), &waves[2 * (tick / 40)])
                            .unwrap();
                    }
                    if tick % 40 == 3 && tick / 40 < 5 {
                        s.submit(engine_for(&m, wf), &waves[2 * (tick / 40) + 1])
                            .unwrap();
                    }
                    s.tick(|_| {});
                }
                while s.tick(|_| {}) > 0 {}
                let stats = s.preemption_stats();
                let tag = format!("weights={} kv={} threads={threads}", wf.label(), kv.label());
                assert_eq!(stats.preemptions, 5, "{tag}");
                assert_eq!(stats.resumed, 5, "{tag}");
                assert_eq!(stats.swapped_bytes, 0, "{tag}: cold buffers returned");
                assert_eq!(s.kv_pool().blocks_in_use(), 0, "{tag}: pool drains to zero");
                assert_eq!(s.kv_pool().in_use_bytes(), 0, "{tag}");
                let mut outputs = s.take_finished();
                outputs.sort_by_key(|o| o.id);
                assert_eq!(outputs.len(), solos.len());
                // Submission order interleaves Batch/High per wave, so ids
                // line up with `waves` order.
                for (out, solo) in outputs.iter().zip(&solos) {
                    assert_eq!(
                        out.tokens, *solo,
                        "{tag}: preempted run diverged from its own solo decode"
                    );
                }
            }
        }
    }
}

#[test]
fn speculative_warm_prefix_resubmission_stays_bit_identical() {
    let m = model();
    let prompt: Vec<u32> = (1..=10).collect();
    let req = GenerateRequest::new(&prompt).max_new(4);
    let solo = solo_tokens(&m, &req);
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 2,
        block_tokens: 4,
        kv_block_budget: usize::MAX,
        ..SchedulerConfig::default()
    });
    s.submit(speculative(&m, 4), &req).unwrap();
    while s.tick(|_| {}) > 0 {}
    let cold = s.take_finished();
    assert_eq!(
        cold[0].tokens, solo,
        "cold speculative run is bit-identical"
    );
    assert_eq!(cold[0].prefill_skipped_tokens, 0);

    s.submit(speculative(&m, 4), &req).unwrap();
    while s.tick(|_| {}) > 0 {}
    let warm = s.take_finished();
    assert_eq!(
        warm[0].tokens, solo,
        "warm speculative run is bit-identical"
    );
    assert_eq!(
        warm[0].prefill_skipped_tokens, 8,
        "two full blocks attached"
    );
    let spec = warm[0].speculative.expect("stats on the warm output");
    assert!(
        spec.drafted > 0,
        "drafting resumes over the attached prefix"
    );
}

/// Four requests admitted on different ticks — one preempted and
/// recomputed, one attaching a warm prefix — as one line per delivered
/// token (`tick:request:index:token`) followed by one line per output.
fn staggered_scenario(threads: usize) -> String {
    use std::fmt::Write;
    let m = model();
    let mut s = Scheduler::new(SchedulerConfig {
        max_slots: 2,
        block_tokens: 4,
        swap_budget_bytes: 0,
        ..SchedulerConfig::default()
    })
    .parallel(ParallelOptions::threads(threads));
    let long = [1, 2, 3, 4, 5, 6, 7, 8, 9];
    let mut warm = long;
    warm[8] = 11;
    let arrivals = [
        (0, GenerateRequest::new(&long).max_new(5)),
        (
            2,
            GenerateRequest::new(&[7, 8, 9, 10, 11, 12])
                .max_new(6)
                .priority(Priority::Batch),
        ),
        (
            10,
            GenerateRequest::new(&[3, 1, 4, 1, 5])
                .max_new(4)
                .priority(Priority::High),
        ),
        (11, GenerateRequest::new(&warm).max_new(3)),
    ];
    let mut trace = String::new();
    let mut next = 0;
    loop {
        while next < arrivals.len() && arrivals[next].0 == s.ticks() {
            s.submit(dense(&m), &arrivals[next].1).unwrap();
            next += 1;
        }
        let tick = s.ticks();
        let left = s.tick(|e| {
            writeln!(trace, "{tick}:{}:{}:{}", e.request, e.index, e.token).unwrap();
        });
        if left == 0 && next == arrivals.len() {
            break;
        }
    }
    let stats = s.stats();
    assert_eq!(stats.preemption.recomputed, 1, "one drop-and-recompute");
    assert_eq!(stats.prefix.attached_requests, 2, "warm request + replay");
    let mut outputs = s.take_finished();
    outputs.sort_by_key(|o| o.id);
    for (o, (_, req)) in outputs.iter().zip(&arrivals) {
        assert_eq!(o.tokens, solo_tokens(&m, req), "request {}", o.id);
        writeln!(
            trace,
            "out {} {:?} sub {} adm {:?} fin {} pre {} skip {}",
            o.id,
            o.tokens,
            o.submitted_tick,
            o.admitted_tick,
            o.finished_tick,
            o.preemptions,
            o.prefill_skipped_tokens
        )
        .unwrap();
    }
    trace
}

#[test]
fn staggered_admissions_keep_the_recorded_tokens_events_and_tick_stamps() {
    for threads in [1, 2, 4] {
        assert_eq!(
            staggered_scenario(threads),
            STAGGERED_TRACE,
            "{threads} slot threads"
        );
    }
}

/// Re-recorded when prefill began taking `PREFILL_CHUNK` positions in
/// decoder-free ticks: every request's tokens and the order of its own
/// events are those of the trace recorded before prefill was batched across
/// slots; tick stamps, and so the interleaving between requests, moved.
const STAGGERED_TRACE: &str = "\
3:0:0:46\n\
4:0:1:16\n\
5:0:2:21\n\
6:0:3:16\n\
7:0:4:21\n\
8:1:0:16\n\
9:1:1:21\n\
10:1:2:16\n\
13:2:0:46\n\
14:2:1:16\n\
15:2:2:21\n\
16:2:3:16\n\
20:3:0:17\n\
21:3:1:16\n\
22:3:2:21\n\
26:1:3:21\n\
27:1:4:16\n\
28:1:5:21\n\
out 0 [46, 16, 21, 16, 21] sub 0 adm Some(0) fin 7 pre 0 skip 0\n\
out 1 [16, 21, 16, 21, 16, 21] sub 2 adm Some(2) fin 28 pre 1 skip 4\n\
out 2 [46, 16, 21, 16] sub 10 adm Some(10) fin 16 pre 0 skip 0\n\
out 3 [17, 16, 21] sub 11 adm Some(11) fin 22 pre 0 skip 8\n\
";

#[test]
fn decoder_free_ticks_take_a_chunk_and_decoder_ticks_take_one() {
    // Two 22-token prompts beside a request that is decoding from tick 1
    // to tick 7. The prefill positions each tick took, from the counters:
    let m = model();
    let long_a: Vec<u32> = (1..=22).collect();
    let long_b: Vec<u32> = (30..52).collect();
    let requests = [
        GenerateRequest::new(&[1, 2]).max_new(6),
        GenerateRequest::new(&long_a).max_new(2),
        GenerateRequest::new(&long_b).max_new(2),
    ];
    for threads in [1, 2, 4] {
        let mut s = Scheduler::new(SchedulerConfig {
            max_slots: 3,
            prefix_cache: false,
            ..SchedulerConfig::default()
        })
        .parallel(ParallelOptions::threads(threads));
        for req in &requests {
            s.submit(dense(&m), req).unwrap();
        }
        let mut per_tick = Vec::new();
        let mut last_short_token = 0;
        loop {
            let before = s.stats().prefill_positions;
            let tick = s.ticks();
            let left = s.tick(|e| {
                if e.request == 0 {
                    last_short_token = tick;
                }
            });
            per_tick.push(s.stats().prefill_positions - before);
            if left == 0 {
                break;
            }
        }
        assert_eq!(
            last_short_token, 7,
            "the short request decodes through tick 7"
        );
        assert_eq!(
            per_tick,
            [
                // Nobody decodes yet: a chunk of each long prompt, and the
                // short prompt's one dense position.
                4 + 4 + 1,
                // The short request takes its engine step, then samples and
                // decodes: one position per long prompt per tick.
                2,
                2,
                2,
                2,
                2,
                2,
                2,
                // It has retired: chunks again, down to the 21st position
                // (the 22nd token is the engine's).
                8,
                8,
                4,
                // Engine steps and samples of the long requests.
                0,
                0,
                0
            ],
            "{threads} slot threads"
        );
        let mut outputs = s.take_finished();
        outputs.sort_by_key(|o| o.id);
        for (o, req) in outputs.iter().zip(&requests) {
            assert_eq!(o.tokens, solo_tokens(&m, req), "request {}", o.id);
        }
    }
}

#[test]
fn prefill_counters_report_the_mean_batch() {
    // Two equal-length prompts prefill side by side in two slots: every
    // batched step carries both, four positions then two of each (no slot
    // decodes yet). With one slot the same work is steps of one slot's
    // columns.
    let m = model();
    let prompts = [[1u32, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13, 14]];
    for (max_slots, mean_batch) in [(2, 6.0), (1, 3.0)] {
        let mut s = Scheduler::new(SchedulerConfig {
            max_slots,
            prefix_cache: false,
            ..SchedulerConfig::default()
        });
        for prompt in &prompts {
            s.submit(dense(&m), &GenerateRequest::new(prompt).max_new(2))
                .unwrap();
        }
        while s.tick(|_| {}) > 0 {}
        let stats = s.stats();
        // The last prompt token goes through the engine, not prefill.
        assert_eq!(stats.prefill_positions, 2 * 6, "{max_slots} slots");
        assert_eq!(
            stats.prefill_positions as f64 / stats.prefill_batches as f64,
            mean_batch,
            "{max_slots} slots"
        );
    }
}
