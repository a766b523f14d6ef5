//! Bit-identical-across-configurations suite.
//!
//! The tentpole property of the hot-path rework: changing *how* the
//! workspace executes — thread count (1/2/4), batch-level slot parallelism,
//! workspace vs allocating wrappers — never changes *what* it computes.
//! Every engine kind (dense, signbit, dejavu, oracle, random) must decode
//! token-identically under every configuration, because each output element
//! has a single writer and every reduction runs in one fixed order.

use std::sync::Arc;

use sparseinfer::model::{generator::WeightGenerator, Model, ModelConfig};
use sparseinfer::predictor::{
    AlphaSchedule, DejaVuPredictor, SparsityPredictor, TrainConfig, Trainer,
};
use sparseinfer::sparse::engine::{Engine, EngineBuilder};
use sparseinfer::sparse::request::{generate, GenerateRequest};
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
    WeightGenerator::new(&cfg, 4242).build()
}

fn trained_dejavu(model: &Model) -> DejaVuPredictor {
    let trace = sparseinfer::model::MlpTrace::capture(model, &(1..12).collect::<Vec<u32>>(), 0);
    Trainer::new(TrainConfig {
        rank: 8,
        epochs: 3,
        ..TrainConfig::default()
    })
    .train(model, &trace)
}

/// Every engine kind of the workspace, built at a given thread count.
fn engine_kinds<'m>(
    model: &'m Model,
    dejavu: &DejaVuPredictor,
    threads: usize,
) -> Vec<(&'static str, Box<dyn Engine + 'm>)> {
    let parallel = ParallelOptions::threads(threads);
    vec![
        (
            "dense",
            EngineBuilder::new(model)
                .parallel(parallel)
                .build()
                .unwrap(),
        ),
        (
            "signbit",
            EngineBuilder::new(model)
                .signbit(AlphaSchedule::uniform(1.0))
                .parallel(parallel)
                .build()
                .unwrap(),
        ),
        (
            "dejavu",
            EngineBuilder::new(model)
                .dejavu(dejavu.clone())
                .parallel(parallel)
                .build()
                .unwrap(),
        ),
        (
            "oracle",
            EngineBuilder::new(model)
                .oracle()
                .parallel(parallel)
                .build()
                .unwrap(),
        ),
        (
            "random",
            EngineBuilder::new(model)
                .random(0.5, 9)
                .parallel(parallel)
                .build()
                .unwrap(),
        ),
    ]
}

#[test]
fn every_engine_kind_is_token_identical_across_thread_counts() {
    let model = test_model();
    let dejavu = trained_dejavu(&model);
    let prompt = [1u32, 5, 9];
    let req = GenerateRequest::new(&prompt).max_new(8).stop_at(EOS);

    let reference: Vec<(&str, Vec<u32>)> = engine_kinds(&model, &dejavu, 1)
        .into_iter()
        .map(|(name, mut e)| (name, generate(e.as_mut(), &req).unwrap().tokens))
        .collect();

    for threads in [2, 4] {
        for ((name, mut engine), (ref_name, expected)) in engine_kinds(&model, &dejavu, threads)
            .into_iter()
            .zip(&reference)
        {
            assert_eq!(name, *ref_name);
            let tokens = generate(engine.as_mut(), &req).unwrap().tokens;
            assert_eq!(
                &tokens, expected,
                "{name} engine diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn parallel_batch_is_token_identical_to_sequential_batch() {
    let model = test_model();
    let dejavu = trained_dejavu(&model);
    let prompts: Vec<Vec<u32>> = vec![
        vec![1, 2, 3],
        vec![7, 8],
        vec![10, 20, 30, 40],
        vec![5],
        vec![9, 9, 9],
    ];

    let run_batch = |slot_threads: usize| {
        let mut batch = Scheduler::new(SchedulerConfig::unbounded())
            .parallel(ParallelOptions::threads(slot_threads));
        for (i, (_, engine)) in engine_kinds(&model, &dejavu, 1).into_iter().enumerate() {
            batch
                .submit(
                    engine,
                    &GenerateRequest::new(&prompts[i]).max_new(6).stop_at(EOS),
                )
                .unwrap();
        }
        let mut events = Vec::new();
        let outputs = batch.run_streaming(|ev| events.push((ev.request, ev.index, ev.token)));
        (
            outputs.into_iter().map(|o| o.tokens).collect::<Vec<_>>(),
            events,
        )
    };

    let (seq_tokens, seq_events) = run_batch(1);
    for threads in [2, 4] {
        let (par_tokens, par_events) = run_batch(threads);
        assert_eq!(par_tokens, seq_tokens, "tokens @ {threads} slot threads");
        assert_eq!(
            par_events, seq_events,
            "streaming order @ {threads} slot threads"
        );
    }
}

#[test]
fn kernel_and_slot_parallelism_compose() {
    // Kernel threads inside each engine, slot threads across the batch:
    // still bit-identical to fully sequential decode.
    let model = test_model();
    let prompt = [2u32, 4, 6];
    let req = GenerateRequest::new(&prompt).max_new(5).stop_at(EOS);

    let solo = {
        let mut e = EngineBuilder::new(&model)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap();
        generate(e.as_mut(), &req).unwrap().tokens
    };

    let shared: Arc<dyn SparsityPredictor> = Arc::new(
        sparseinfer::predictor::SignBitPredictor::from_model(&model, AlphaSchedule::uniform(1.0)),
    );
    let mut batch =
        Scheduler::new(SchedulerConfig::unbounded()).parallel(ParallelOptions::threads(2));
    for _ in 0..3 {
        let engine = EngineBuilder::new(&model)
            .predictor_shared(Arc::clone(&shared))
            .parallel(ParallelOptions::threads(2))
            .build()
            .unwrap();
        batch.submit(engine, &req).unwrap();
    }
    for output in batch.run() {
        assert_eq!(output.tokens, solo, "request {}", output.id);
    }
}
