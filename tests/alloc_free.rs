//! Allocation-count guard: steady-state decode performs **zero** heap
//! allocations.
//!
//! A counting global allocator wraps `System`; after warming an engine up
//! (one step populates the workspace pool, the predictor scratch, the mask
//! buffers and the logits vector, while the session's KV capacity is
//! reserved up front), every further decode step must allocate nothing.
//! This is the enforceable form of the workspace-reuse tentpole — a
//! regression that re-introduces a per-token `Vec::with_capacity` anywhere
//! on the hot path fails this test immediately.
//!
//! The guarantee covers `threads > 1` too: parked-worker dispatch deposits
//! stack-allocated chunk descriptors into preallocated mailboxes, so
//! fanning a decode step across workers allocates exactly as much as
//! running it inline — nothing. The counting allocator is global, so
//! worker-thread allocations are caught just like caller ones
//! (`worker_thread_allocations_are_counted` is the negative control).
//!
//! Because the counter is process-wide, this binary runs **without
//! libtest** (`harness = false` in the root manifest): `main` runs the
//! checks one after another, so the only threads alive during a measured
//! region are the main thread and the pool workers of the engine under
//! measurement. Under libtest the sibling test threads billed each other
//! and the binary was red on every multi-core host.
//!
//! (This integration-test binary and the tensor pool internals are the only
//! places in the workspace that use `unsafe`: implementing `GlobalAlloc`
//! requires it here, and feeding borrowed chunks to persistent workers
//! requires it there. Every other library module rejects `unsafe`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sparseinfer::model::{generator::WeightGenerator, Model, ModelConfig, PrefillScratch};
use sparseinfer::predictor::AlphaSchedule;
use sparseinfer::sparse::engine::{Engine, EngineBuilder, WeightFormat};
use sparseinfer::sparse::request::GenerateRequest;
use sparseinfer::sparse::scheduler::{Scheduler, SchedulerConfig};
use sparseinfer::tensor::gemv::MIN_MACS_PER_WORKER;
use sparseinfer::tensor::{ParallelOptions, ThreadPool, Vector};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// relaxed atomic side effect with no influence on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn test_model() -> Model {
    let mut cfg = ModelConfig::tiny();
    cfg.hidden_dim = 64;
    cfg.mlp_dim = 160;
    cfg.n_heads = 2;
    cfg.n_layers = 3;
    cfg.vocab_size = 300;
    WeightGenerator::new(&cfg, 7).build()
}

/// Decodes `steps` tokens through `engine` on a capacity-reserved session
/// and returns the number of heap allocations the *steady-state* steps
/// performed (everything after the warm-up steps).
fn steady_state_allocations(engine: &mut dyn Engine, warmup: usize, steps: usize) -> u64 {
    let model = engine.model();
    let mut session = model.start_session_with_capacity(warmup + steps + 1);
    let mut logits = Vector::zeros(0);
    for i in 0..warmup {
        engine.step_into((i % 7) as u32 + 1, &mut session, &mut logits);
    }
    let before = allocations();
    for i in 0..steps {
        engine.step_into((i % 5) as u32 + 1, &mut session, &mut logits);
    }
    allocations() - before
}

fn dense_steady_state_decode_is_allocation_free() {
    let model = test_model();
    let mut engine = EngineBuilder::new(&model).build().unwrap();
    let allocs = steady_state_allocations(engine.as_mut(), 4, 16);
    assert_eq!(allocs, 0, "dense decode allocated {allocs} times");
}

fn signbit_steady_state_decode_is_allocation_free() {
    let model = test_model();
    let mut engine = EngineBuilder::new(&model)
        .signbit(AlphaSchedule::uniform(1.0))
        .build()
        .unwrap();
    let allocs = steady_state_allocations(engine.as_mut(), 4, 16);
    assert_eq!(allocs, 0, "signbit decode allocated {allocs} times");
}

fn oracle_and_random_steady_state_decode_are_allocation_free() {
    let model = test_model();
    for (name, mut engine) in [
        (
            "oracle",
            EngineBuilder::new(&model).oracle().build().unwrap(),
        ),
        (
            "random",
            EngineBuilder::new(&model).random(0.5, 3).build().unwrap(),
        ),
    ] {
        let allocs = steady_state_allocations(engine.as_mut(), 4, 16);
        assert_eq!(allocs, 0, "{name} decode allocated {allocs} times");
    }
}

fn int8_steady_state_decode_is_allocation_free() {
    // The quantized hot path must hold the same bar as f32: the fused
    // block-dequant kernel expands each 32-column block into a stack
    // buffer (never a heap row), and the quantized MLP reuses the same
    // workspace scratch as the f32 route.
    let model = test_model();
    for (name, mut engine) in [
        (
            "dense+int8",
            EngineBuilder::new(&model)
                .weight_format(WeightFormat::Int8)
                .build()
                .unwrap(),
        ),
        (
            "signbit+int8",
            EngineBuilder::new(&model)
                .signbit(AlphaSchedule::uniform(1.0))
                .weight_format(WeightFormat::Int8)
                .build()
                .unwrap(),
        ),
    ] {
        let allocs = steady_state_allocations(engine.as_mut(), 4, 16);
        assert_eq!(allocs, 0, "{name} decode allocated {allocs} times");
    }
}

fn parallel_int8_steady_state_decode_is_allocation_free() {
    let model = test_model();
    for threads in [2usize, 4] {
        let mut engine = EngineBuilder::new(&model)
            .signbit(AlphaSchedule::uniform(1.0))
            .weight_format(WeightFormat::Int8)
            .parallel(ParallelOptions::threads(threads))
            .build()
            .unwrap();
        let allocs = steady_state_allocations(engine.as_mut(), 4, 16);
        assert_eq!(
            allocs, 0,
            "int8 decode at {threads} threads allocated {allocs} times"
        );
    }
}

fn parallel_steady_state_decode_is_allocation_free() {
    // The parked-worker pool must not charge the hot path for dispatch:
    // chunk descriptors live on the caller's stack and mailboxes are
    // preallocated at pool construction.
    let model = test_model();
    for threads in [2usize, 4] {
        for (name, mut engine) in [
            (
                "dense",
                EngineBuilder::new(&model)
                    .parallel(ParallelOptions::threads(threads))
                    .build()
                    .unwrap(),
            ),
            (
                "signbit",
                EngineBuilder::new(&model)
                    .signbit(AlphaSchedule::uniform(1.0))
                    .parallel(ParallelOptions::threads(threads))
                    .build()
                    .unwrap(),
            ),
        ] {
            let allocs = steady_state_allocations(engine.as_mut(), 4, 16);
            assert_eq!(
                allocs, 0,
                "{name} decode at {threads} threads allocated {allocs} times"
            );
        }
    }
}

fn fanned_out_decode_is_allocation_free() {
    // On `test_model` no GEMV reaches the fan-out rule (the largest, the LM
    // head, is 300 × 64 MACs), so the `threads > 1` checks above run
    // inline. Here the gate and up GEMVs are two workers' worth each.
    let mut cfg = ModelConfig::tiny();
    cfg.hidden_dim = 512;
    cfg.mlp_dim = 2048;
    cfg.n_heads = 4;
    cfg.n_layers = 2;
    cfg.vocab_size = 300;
    assert!(
        cfg.mlp_dim * cfg.hidden_dim >= 2 * MIN_MACS_PER_WORKER,
        "the gate and up GEMVs must split across two workers"
    );
    let model = WeightGenerator::new(&cfg, 7).build();
    for threads in [2usize, 4] {
        let parallel = ParallelOptions::threads(threads);
        let signbit = || {
            EngineBuilder::new(&model)
                .signbit(AlphaSchedule::uniform(1.0))
                .parallel(parallel)
        };
        for (name, mut engine) in [
            (
                "dense",
                EngineBuilder::new(&model)
                    .parallel(parallel)
                    .build()
                    .unwrap(),
            ),
            ("signbit", signbit().build().unwrap()),
            (
                "signbit+int8",
                signbit().weight_format(WeightFormat::Int8).build().unwrap(),
            ),
        ] {
            let allocs = steady_state_allocations(engine.as_mut(), 4, 16);
            assert_eq!(
                allocs, 0,
                "{name} decode at {threads} threads allocated {allocs} times"
            );
        }
    }
}

fn batched_prefill_step_is_allocation_free() {
    // The batched step takes everything from its scratch: after one
    // warm-up step at this batch size it allocates nothing (the reference
    // `forward_token` allocates ~100 vectors per position).
    let model = test_model();
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(ParallelOptions::threads(threads));
        let mut scratch = PrefillScratch::new();
        let mut a = model.start_session_with_capacity(32);
        let mut b = model.start_session_with_capacity(32);
        // Different positions: `a` is three tokens ahead of `b`.
        for token in [5, 6, 7] {
            model.prefill_step(&mut [(token, &mut a)], &pool, &mut scratch);
        }
        model.prefill_step(&mut [(1, &mut a), (2, &mut b)], &pool, &mut scratch);
        let before = allocations();
        for i in 0..16u32 {
            model.prefill_step(
                &mut [(i % 7 + 1, &mut a), (i % 5 + 1, &mut b)],
                &pool,
                &mut scratch,
            );
        }
        let allocs = allocations() - before;
        assert_eq!(
            allocs, 0,
            "batched prefill at {threads} threads allocated {allocs} times"
        );
    }
}

fn chunked_prefill_step_is_allocation_free() {
    // Several positions per session in one step: two sessions, four
    // columns each. The tokens are borrowed slices, the column bookkeeping
    // lives in the scratch, so nothing is allocated here either.
    let model = test_model();
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(ParallelOptions::threads(threads));
        let mut scratch = PrefillScratch::new();
        let mut a = model.start_session_with_capacity(48);
        let mut b = model.start_session_with_capacity(48);
        // Different positions, and a warm-up at this column count.
        model.prefill_step(&mut [(&[5u32, 6, 7][..], &mut a)], &pool, &mut scratch);
        let chunks: [&[u32]; 2] = [&[1, 2, 3, 4], &[9, 8, 7, 6]];
        model.prefill_step(
            &mut [(chunks[0], &mut a), (chunks[1], &mut b)],
            &pool,
            &mut scratch,
        );
        let before = allocations();
        for i in 0..8 {
            model.prefill_step(
                &mut [(chunks[i % 2], &mut a), (chunks[1 - i % 2], &mut b)],
                &pool,
                &mut scratch,
            );
        }
        let allocs = allocations() - before;
        assert_eq!(
            allocs, 0,
            "chunked prefill at {threads} threads allocated {allocs} times"
        );
    }
}

fn scheduler_prefill_ticks_are_allocation_free() {
    // Two slots prefilling side by side: the tick gathers them into the
    // scheduler's one recycled batch and scratch — four positions of each
    // per tick, since neither slot is decoding yet. Paged KV allocates when
    // a session starts a new block — the documented exception — so the
    // measured ticks stay inside the first block of a 64-token page.
    let model = test_model();
    for threads in [1usize, 2] {
        let mut scheduler = Scheduler::new(SchedulerConfig {
            max_slots: 2,
            block_tokens: 64,
            ..SchedulerConfig::default()
        })
        .parallel(ParallelOptions::threads(threads));
        for start in [1u32, 9] {
            let prompt: Vec<u32> = (start..start + 62).collect();
            let engine = EngineBuilder::new(&model).build().unwrap();
            scheduler
                .submit(engine, &GenerateRequest::new(&prompt).max_new(2))
                .unwrap();
        }
        for _ in 0..3 {
            scheduler.tick(|_| {});
        }
        let before = allocations();
        for _ in 0..12 {
            scheduler.tick(|_| {});
        }
        let allocs = allocations() - before;
        let stats = scheduler.stats();
        assert_eq!(
            (stats.prefill_batches, stats.prefill_positions),
            (15, 15 * 8),
            "every measured tick was a two-slot, four-position prefill step"
        );
        assert_eq!(
            allocs, 0,
            "prefill ticks at {threads} slot threads allocated {allocs} times"
        );
    }
}

fn worker_thread_allocations_are_counted() {
    // Negative control for the parallel checks: an allocation made inside a
    // kernel closure on a *pool worker* must tick the counter, otherwise
    // "zero allocations at N threads" would only be measuring the caller.
    // The first chunk of a dispatch always goes to a worker (the caller
    // keeps the last one).
    let pool = ThreadPool::new(ParallelOptions::threads(2));
    let main = std::thread::current().id();
    let mut out = vec![0.0f32; 128];
    let allocate_on_worker = |offset: usize, _: &mut [f32]| {
        if offset == 0 {
            assert_ne!(std::thread::current().id(), main, "chunk 0 is a worker's");
            drop(std::hint::black_box(Box::new(offset)));
        }
    };
    // Like the engines' warm-up steps: the worker finishes starting up (its
    // own lazy thread state) before anything is measured.
    pool.run_chunks(&mut out, 64, allocate_on_worker);
    let before = allocations();
    pool.run_chunks(&mut out, 64, allocate_on_worker);
    assert_eq!(allocations() - before, 1, "the worker's one allocation");
}

fn warmup_does_allocate_proving_the_counter_works() {
    // Sanity check on the instrument itself: the *first* step must
    // allocate (workspace pool, scratch, masks are built lazily).
    let model = test_model();
    let mut engine = EngineBuilder::new(&model)
        .signbit(AlphaSchedule::uniform(1.0))
        .build()
        .unwrap();
    let mut session = model.start_session_with_capacity(8);
    let mut logits = Vector::zeros(0);
    let before = allocations();
    engine.step_into(1, &mut session, &mut logits);
    assert!(
        allocations() > before,
        "cold-start step must populate buffers (counter must tick)"
    );
}

fn main() {
    macro_rules! run {
        ($($check:ident),* $(,)?) => {$(
            $check();
            println!("alloc_free::{} ... ok", stringify!($check));
        )*};
    }
    run![
        dense_steady_state_decode_is_allocation_free,
        signbit_steady_state_decode_is_allocation_free,
        oracle_and_random_steady_state_decode_are_allocation_free,
        int8_steady_state_decode_is_allocation_free,
        parallel_int8_steady_state_decode_is_allocation_free,
        parallel_steady_state_decode_is_allocation_free,
        fanned_out_decode_is_allocation_free,
        batched_prefill_step_is_allocation_free,
        chunked_prefill_step_is_allocation_free,
        scheduler_prefill_ticks_are_allocation_free,
        worker_thread_allocations_are_counted,
        warmup_does_allocate_proving_the_counter_works,
    ];
}
