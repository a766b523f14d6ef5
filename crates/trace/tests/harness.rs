//! Harness-level contracts: trace determinism across slot-thread counts,
//! and the gpu-sim projection agreeing with the measured CPU run on every
//! relative ordering it exists to predict.

use sparseinfer::gpu_sim::GpuSpec;
use sparseinfer::model::{generator::WeightGenerator, Model, ModelConfig};
use sparseinfer::predictor::AlphaSchedule;
use sparseinfer::sparse::engine::{Engine, EngineBuilder};
use sparseinfer::sparse::request::Priority;
use sparseinfer::sparse::scheduler::SchedulerConfig;
use sparseinfer_trace::{replay, CostModel, ReplayConfig, ReplayOutcome, TraceSpec, Workload};

fn harness_model() -> Model {
    let mut cfg = ModelConfig::tiny();
    cfg.vocab_size = 300;
    WeightGenerator::new(&cfg, 77).build()
}

/// Dense/sparse engine mix, alternating per request — the shape real
/// mixed traffic has, and the harder case for the determinism contract.
fn mixed_engine<'m>(model: &'m Model, i: usize) -> Box<dyn Engine + 'm> {
    if i.is_multiple_of(2) {
        EngineBuilder::new(model)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap()
    } else {
        EngineBuilder::new(model).build().unwrap()
    }
}

fn contended_config(slot_threads: usize) -> ReplayConfig {
    ReplayConfig {
        scheduler: SchedulerConfig::builder()
            .max_slots(3)
            .block_tokens(8)
            .kv_block_budget(96)
            .preemption(true)
            .build()
            .unwrap(),
        slot_threads,
    }
}

/// A replay's records and report, extracted for equality assertions.
#[derive(Debug, PartialEq)]
struct DeterministicView {
    tokens: Vec<Vec<u32>>,
    queue_waits: Vec<Option<u64>>,
    tick_stamps: Vec<(u64, Option<u64>, u64)>,
    macs: Vec<u64>,
    completed: usize,
    cancelled: usize,
    total_tokens: usize,
    queue_wait_ticks: [u64; 3],
    peak_kv_blocks: usize,
    preemptions: usize,
}

impl DeterministicView {
    fn of(outcome: &ReplayOutcome) -> Self {
        Self {
            tokens: outcome.records.iter().map(|r| r.tokens.clone()).collect(),
            queue_waits: outcome.records.iter().map(|r| r.queue_wait_ticks).collect(),
            tick_stamps: outcome
                .records
                .iter()
                .map(|r| (r.submitted_tick, r.admitted_tick, r.finished_tick))
                .collect(),
            macs: outcome.records.iter().map(|r| r.macs).collect(),
            completed: outcome.report.completed,
            cancelled: outcome.report.cancelled,
            total_tokens: outcome.report.tokens,
            queue_wait_ticks: outcome.report.queue_wait_ticks,
            peak_kv_blocks: outcome.report.peak_kv_blocks,
            preemptions: outcome.report.scheduler.preemption.preemptions,
        }
    }
}

/// Satellite contract: the same trace replayed at 1, 2 and 4 slot threads
/// is token-identical and identical in every report field.
#[test]
fn replay_is_deterministic_across_slot_thread_counts() {
    let model = harness_model();
    for spec in [
        TraceSpec::steady(31).requests(12),
        TraceSpec::bursty(31).requests(12),
    ] {
        let workload = spec.generate();
        let reference = DeterministicView::of(&replay(&workload, &contended_config(1), |i| {
            mixed_engine(&model, i)
        }));
        assert!(reference.total_tokens > 0);
        assert_eq!(
            reference.completed + reference.cancelled,
            12,
            "the whole trace is replayed and retired under the bounded budget"
        );
        for threads in [2usize, 4] {
            let outcome = replay(&workload, &contended_config(threads), |i| {
                mixed_engine(&model, i)
            });
            assert_eq!(
                DeterministicView::of(&outcome),
                reference,
                "threads={threads}: deterministic replay fields diverged"
            );
        }
    }
}

/// The same seed expands to the same workload; a different seed does not
/// (the spec-level half of the determinism satellite).
#[test]
fn trace_spec_expansion_is_seed_deterministic() {
    let spec = TraceSpec::flash_crowd(5).requests(20);
    assert_eq!(spec.generate(), spec.generate());
    assert_ne!(
        spec.generate(),
        TraceSpec::flash_crowd(6).requests(20).generate()
    );

    // Each concern draws from its own stream and every stream stays
    // aligned: making half the requests High reshuffles nothing else, not
    // even the Batch/Normal class of the requests that did not turn High.
    let with_high = |high: f64| {
        let mut spec = spec.clone();
        spec.priorities.high = high;
        spec.generate()
    };
    let (none_high, half_high) = (with_high(0.0), with_high(0.5));
    let turned_high = |w: &Workload| {
        w.requests
            .iter()
            .filter(|r| r.priority == Priority::High)
            .count()
    };
    assert_eq!(turned_high(&none_high), 0);
    assert!(turned_high(&half_high) > 0);
    for (a, b) in none_high.requests.iter().zip(&half_high.requests) {
        assert_eq!(a.prompt, b.prompt);
        assert_eq!(a.max_new, b.max_new);
        assert_eq!(a.cancel_after_tokens, b.cancel_after_tokens);
        if b.priority != Priority::High {
            assert_eq!(a.priority, b.priority);
        }
    }
}

/// Tentpole validation: the gpu-sim projection must order dense vs sparse
/// the same way the measured CPU run does (measured via deterministic MAC
/// counts — the replay reads no clock).
#[test]
fn projection_orders_dense_vs_sparse_like_the_measured_run() {
    let model = harness_model();
    let workload = TraceSpec::steady(17).requests(10).generate();
    let config = contended_config(1);

    let dense_run = replay(&workload, &config, |_| {
        EngineBuilder::new(&model).build().unwrap()
    });
    let sparse_run = replay(&workload, &config, |_| {
        EngineBuilder::new(&model)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap()
    });

    // Measured: the sparse engines skipped real rows on the same trace.
    let macs = |o: &ReplayOutcome| o.records.iter().map(|r| r.macs).sum::<u64>();
    assert!(
        macs(&sparse_run) < macs(&dense_run),
        "sparse replay must execute fewer MACs than dense"
    );

    // Projected: the simulator agrees, on both device presets, at the
    // paper-scale model the planning question is actually about.
    let paper = ModelConfig::sim_7b();
    for spec in [
        GpuSpec::jetson_orin_agx_64gb(),
        GpuSpec::jetson_orin_nano_8gb(),
    ] {
        let dense = sparseinfer_trace::project(
            &dense_run.records,
            &CostModel::dense(&spec, &paper, 256),
            &spec,
        );
        let sparse = sparseinfer_trace::project(
            &dense_run.records,
            &CostModel::sparseinfer(&spec, &paper, 0.9, 256),
            &spec,
        );
        assert!(
            sparse.total_us < dense.total_us,
            "{}: projected sparse {} must beat dense {}",
            spec.name,
            sparse.total_us,
            dense.total_us
        );
        assert!(sparse.ttft_us[1] <= dense.ttft_us[1]);
    }
}

/// Tentpole validation, prefix-cache axis: warm beats cold in the
/// measured run (fewer prefilled tokens) and the projection orders the
/// two replays the same way.
#[test]
fn projection_orders_cold_vs_warm_prefix_like_the_measured_run() {
    let model = harness_model();
    let mut spec = TraceSpec::steady(23).requests(10).mean_gap_ticks(8.0);
    spec.cancel_rate = 0.0;
    spec.prefixes.shared_fraction = 1.0;
    spec.prefixes.prefixes = 1;
    let workload = spec.generate();

    let run = |prefix_cache: bool| {
        let config = ReplayConfig {
            scheduler: SchedulerConfig::builder()
                .max_slots(2)
                .block_tokens(8)
                .prefix_cache(prefix_cache)
                .build()
                .unwrap(),
            ..ReplayConfig::default()
        };
        replay(&workload, &config, |_| {
            EngineBuilder::new(&model).build().unwrap()
        })
    };
    let cold = run(false);
    let warm = run(true);

    // Measured: the warm run prefilled strictly fewer prompt positions.
    let prefilled = |o: &ReplayOutcome| {
        o.records
            .iter()
            .map(|r| r.prompt_tokens - r.prefill_skipped_tokens)
            .sum::<usize>()
    };
    assert_eq!(warm.report.scheduler.prefix.skipped_tokens as usize, {
        let skipped: usize = warm.records.iter().map(|r| r.prefill_skipped_tokens).sum();
        skipped
    });
    assert!(
        prefilled(&warm) < prefilled(&cold),
        "warm replay must skip prefill the cold one pays for"
    );
    // Tokens are unaffected by the cache — only the prefill work moved.
    let tokens = |o: &ReplayOutcome| {
        o.records
            .iter()
            .map(|r| r.tokens.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(tokens(&warm), tokens(&cold));

    // Projected: the simulator orders the two runs the same way.
    let gpu = GpuSpec::jetson_orin_agx_64gb();
    let cost = CostModel::dense(&gpu, &ModelConfig::sim_7b(), 256);
    let cold_p = sparseinfer_trace::project(&cold.records, &cost, &gpu);
    let warm_p = sparseinfer_trace::project(&warm.records, &cost, &gpu);
    assert!(
        warm_p.total_us < cold_p.total_us,
        "projected warm {} must beat cold {}",
        warm_p.total_us,
        cold_p.total_us
    );
}
