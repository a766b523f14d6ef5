//! Cross-commit golden test: the bits of every logit and the final op
//! counts of a fixed decode, committed as constants.
//!
//! The identity tests elsewhere prove relations *within* one commit (dense
//! engine ≡ model decode, int8 ≡ f32 over the dequantized weights, N threads
//! ≡ 1 thread). None of them notices a change that moves all sides
//! together — a reordered reduction, a regrouped `(q·scale)·h3`, a scale
//! picked by chunk-local instead of global column. These constants were
//! produced at the commit *before* the kernels became generic over weight
//! storage and must never be regenerated by a refactor: a kernel change that
//! alters them has changed the arithmetic.
//!
//! The model's shapes are awkward on purpose: `d = 288` is not a multiple
//! of the 64-column worker minimum, and `k = 330` is neither a multiple of
//! the 4-row blocking nor of the 64-row worker minimum. Its down projection
//! (330 × 288) stays on one worker under the multiply-accumulate fan-out
//! rule; worker ranges that start inside a 32-column scale block are
//! covered by the tensor crate's down-projection sweep instead.

use sparseinfer::model::{generator::WeightGenerator, Model, ModelConfig};
use sparseinfer::predictor::AlphaSchedule;
use sparseinfer::sparse::engine::{Engine, EngineBuilder, WeightFormat};
use sparseinfer::tensor::{ParallelOptions, Vector};

const STEPS: usize = 24;

/// What one configuration must reproduce at every thread count.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over the little-endian bit pattern of every logit of every
    /// step, in order.
    logits_hash: u64,
    macs: u64,
    weight_bytes_loaded: u64,
    rows_skipped: u64,
    rows_computed: u64,
    activation_bytes: u64,
    atomic_adds: u64,
}

const GOLDEN: [(&str, Golden); 6] = [
    (
        "dense/f32",
        Golden {
            logits_hash: 17_940_056_243_799_118_074,
            macs: 44_934_912,
            weight_bytes_loaded: 88_833_024,
            rows_skipped: 0,
            rows_computed: 71_280,
            activation_bytes: 2_892_672,
            atomic_adds: 6_842_880,
        },
    ),
    (
        "dense/int8",
        Golden {
            logits_hash: 5_137_350_900_237_635_531,
            macs: 44_934_912,
            weight_bytes_loaded: 68_304_384,
            rows_skipped: 0,
            rows_computed: 71_280,
            activation_bytes: 2_892_672,
            atomic_adds: 6_842_880,
        },
    ),
    (
        "signbit/f32",
        Golden {
            logits_hash: 16_972_293_707_029_328_552,
            macs: 27_457_344,
            weight_bytes_loaded: 54_735_840,
            rows_skipped: 60_686,
            rows_computed: 10_594,
            activation_bytes: 2_429_568,
            atomic_adds: 842_688,
        },
    ),
    (
        "signbit/int8",
        Golden {
            logits_hash: 520_863_816_155_067_311,
            macs: 27_459_936,
            weight_bytes_loaded: 51_687_360,
            rows_skipped: 60_677,
            rows_computed: 10_603,
            activation_bytes: 2_429_568,
            atomic_adds: 843_840,
        },
    ),
    (
        "oracle/f32",
        Golden {
            logits_hash: 17_940_056_243_799_118_074,
            macs: 27_739_584,
            weight_bytes_loaded: 54_442_368,
            rows_skipped: 59_706,
            rows_computed: 11_574,
            activation_bytes: 2_429_568,
            atomic_adds: 1_111_104,
        },
    ),
    (
        "oracle/int8",
        Golden {
            logits_hash: 6_855_103_628_138_938_367,
            macs: 27_736_128,
            weight_bytes_loaded: 51_105_600,
            rows_skipped: 59_718,
            rows_computed: 11_562,
            activation_bytes: 2_429_568,
            atomic_adds: 1_109_376,
        },
    ),
];

fn golden_model() -> Model {
    let mut cfg = ModelConfig::tiny();
    cfg.hidden_dim = 288;
    cfg.mlp_dim = 330;
    cfg.n_heads = 4;
    cfg.n_layers = 3;
    cfg.vocab_size = 300;
    WeightGenerator::new(&cfg, 20250927).build()
}

fn build<'m>(
    model: &'m Model,
    predictor: &str,
    format: WeightFormat,
    threads: usize,
) -> Box<dyn Engine + 'm> {
    let builder = EngineBuilder::new(model)
        .weight_format(format)
        .parallel(ParallelOptions::threads(threads));
    match predictor {
        "dense" => builder,
        "signbit" => builder.signbit(AlphaSchedule::uniform(1.0)),
        "oracle" => builder.oracle(),
        other => unreachable!("unknown predictor {other}"),
    }
    .build()
    .expect("golden engine builds")
}

fn decode(engine: &mut dyn Engine) -> Golden {
    let mut session = engine.model().start_session();
    let mut logits = Vector::zeros(0);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..STEPS {
        engine.step_into((i * 7 + 3) as u32 % 300, &mut session, &mut logits);
        for v in logits.iter() {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let ops = engine.ops();
    Golden {
        logits_hash: hash,
        macs: ops.macs,
        weight_bytes_loaded: ops.weight_bytes_loaded,
        rows_skipped: ops.rows_skipped,
        rows_computed: ops.rows_computed,
        activation_bytes: ops.activation_bytes,
        atomic_adds: ops.atomic_adds,
    }
}

#[test]
fn logit_bits_and_op_counts_match_the_committed_constants() {
    let model = golden_model();
    // Every mismatch is reported, not only the first: a changed reduction
    // usually moves several rows at once and the pattern is the diagnosis.
    let mut mismatches = Vec::new();
    for (name, want) in &GOLDEN {
        let (predictor, format) = name.split_once('/').expect("predictor/format");
        let format = match format {
            "f32" => WeightFormat::F32,
            _ => WeightFormat::Int8,
        };
        for threads in [1, 2, 4] {
            let mut engine = build(&model, predictor, format, threads);
            let got = decode(engine.as_mut());
            if &got != want {
                mismatches.push(format!("{name} @ {threads} threads: got {got:?}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

// ---------------------------------------------------------------------
// Prefill goldens: KV contents after a dense prefill, and the logits of
// the engine steps that follow, produced at the commit before prefill was
// batched across sessions, one position at a time through the layer-by-layer
// forward pass `Model::forward_token` ran then (it is a one-column
// `Model::step` now).
// ---------------------------------------------------------------------

use sparseinfer::model::kv::KvBlockPool;
use sparseinfer::model::model::DecodeSession;
use sparseinfer::model::KvDtype;

/// Three prompts of different lengths over the golden model's vocabulary.
const PREFILL_PROMPT_LENS: [usize; 3] = [5, 9, 14];
/// Engine steps hashed after each prefill.
const FOLLOW_STEPS: usize = 4;

fn prefill_prompt(p: usize) -> Vec<u32> {
    (0..PREFILL_PROMPT_LENS[p])
        .map(|i| ((i * 11 + p * 17 + 5) % 300) as u32)
        .collect()
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for byte in bytes {
        *hash = (*hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// What one prefilled prompt must reproduce under one KV element type.
#[derive(Debug, PartialEq, Eq)]
struct PrefillGolden {
    /// FNV-1a over every layer's cached keys then values, position by
    /// position (`f32` bit patterns; `F16` words widened losslessly).
    kv_hash: u64,
    /// FNV-1a over the logits of the [`FOLLOW_STEPS`] dense engine steps
    /// that follow the prefill.
    logits_hash: u64,
}

const PREFILL_GOLDEN_F32: [PrefillGolden; 3] = [
    PrefillGolden {
        kv_hash: 6_405_544_614_192_110_387,
        logits_hash: 4_778_492_370_212_650_904,
    },
    PrefillGolden {
        kv_hash: 8_042_913_340_919_043_036,
        logits_hash: 8_613_259_132_470_125_835,
    },
    PrefillGolden {
        kv_hash: 12_697_270_258_689_902_249,
        logits_hash: 13_038_583_803_588_059_039,
    },
];

const PREFILL_GOLDEN_F16: [PrefillGolden; 3] = [
    PrefillGolden {
        kv_hash: 16_224_581_253_523_786_459,
        logits_hash: 193_536_269_199_298_583,
    },
    PrefillGolden {
        kv_hash: 10_165_987_432_858_863_662,
        logits_hash: 1_690_194_637_379_539_461,
    },
    PrefillGolden {
        kv_hash: 3_282_064_678_304_131_000,
        logits_hash: 17_767_882_215_380_086_541,
    },
];

/// The three session layouts prefill must be identical over.
#[derive(Debug, Clone, Copy)]
enum KvLayout {
    Contiguous,
    PagedF32,
    PagedF16,
}

impl KvLayout {
    const ALL: [KvLayout; 3] = [KvLayout::Contiguous, KvLayout::PagedF32, KvLayout::PagedF16];

    /// A block size that is not a divisor of any prompt length.
    fn pool(self) -> Option<KvBlockPool> {
        match self {
            KvLayout::Contiguous => None,
            KvLayout::PagedF32 => Some(KvBlockPool::new(4)),
            KvLayout::PagedF16 => Some(KvBlockPool::with_budget_dtype(4, usize::MAX, KvDtype::F16)),
        }
    }

    fn golden(self) -> &'static [PrefillGolden; 3] {
        match self {
            KvLayout::PagedF16 => &PREFILL_GOLDEN_F16,
            _ => &PREFILL_GOLDEN_F32,
        }
    }
}

fn start_session(model: &Model, pool: Option<&KvBlockPool>) -> DecodeSession {
    match pool {
        Some(pool) => model.start_paged_session(pool),
        None => model.start_session_with_capacity(32),
    }
}

fn kv_hash(session: &DecodeSession) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for cache in &session.caches {
        for t in 0..cache.len() {
            if cache.dtype() == KvDtype::F16 {
                for side in [cache.key_h(t), cache.value_h(t)] {
                    for v in side {
                        fnv1a(&mut hash, &v.to_f32().to_bits().to_le_bytes());
                    }
                }
            } else {
                for side in [cache.key(t), cache.value(t)] {
                    for v in side {
                        fnv1a(&mut hash, &v.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    hash
}

/// Hashes the session's KV, then the logits of [`FOLLOW_STEPS`] dense
/// engine steps fed on top of it.
fn prefill_golden_of(model: &Model, session: &mut DecodeSession) -> PrefillGolden {
    let kv_hash = kv_hash(session);
    let mut engine = build(model, "dense", WeightFormat::F32, 1);
    let mut logits = Vector::zeros(0);
    let mut logits_hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..FOLLOW_STEPS {
        engine.step_into((i * 13 + 2) as u32 % 300, session, &mut logits);
        for v in logits.iter() {
            fnv1a(&mut logits_hash, &v.to_bits().to_le_bytes());
        }
    }
    PrefillGolden {
        kv_hash,
        logits_hash,
    }
}

#[test]
fn forward_token_prefill_matches_the_committed_constants() {
    // The one-column step the benchmark pins, one position at a time.
    let model = golden_model();
    let mut mismatches = Vec::new();
    for layout in KvLayout::ALL {
        let pool = layout.pool();
        for (p, want) in layout.golden().iter().enumerate() {
            let mut session = start_session(&model, pool.as_ref());
            for token in prefill_prompt(p) {
                let _ = model.forward_token(token, &mut session);
            }
            let got = prefill_golden_of(&model, &mut session);
            if &got != want {
                mismatches.push(format!("{layout:?} prompt {p}: got {got:?}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Prefills `lanes` sessions (prompts assigned round-robin, so some repeat)
/// through [`Model::prefill_step`], lane `i` joining on step `i`: batches
/// grow, then shrink as the short prompts finish, and no two lanes sit at
/// the same position. Returns each lane's session.
fn batched_prefill(
    model: &Model,
    kv_pool: Option<&KvBlockPool>,
    lanes: usize,
    threads: usize,
) -> Vec<DecodeSession> {
    use sparseinfer::model::PrefillScratch;
    use sparseinfer::tensor::ThreadPool;

    let pool = ThreadPool::new(ParallelOptions::threads(threads));
    let mut scratch = PrefillScratch::new();
    let prompts: Vec<Vec<u32>> = (0..lanes).map(|lane| prefill_prompt(lane % 3)).collect();
    let mut sessions: Vec<DecodeSession> =
        (0..lanes).map(|_| start_session(model, kv_pool)).collect();
    for step in 0.. {
        let mut batch: Vec<(u32, &mut DecodeSession)> = sessions
            .iter_mut()
            .enumerate()
            .filter(|(lane, session)| *lane <= step && session.position < prompts[*lane].len())
            .map(|(lane, session)| (prompts[lane][session.position], session))
            .collect();
        if batch.is_empty() {
            break;
        }
        model.prefill_step(&mut batch, &pool, &mut scratch);
    }
    sessions
}

#[test]
fn batched_prefill_matches_the_committed_constants() {
    let model = golden_model();
    let mut mismatches = Vec::new();
    for layout in KvLayout::ALL {
        for lanes in [1, 2, 3, 5] {
            for threads in [1, 2, 4] {
                let kv_pool = layout.pool();
                let sessions = batched_prefill(&model, kv_pool.as_ref(), lanes, threads);
                for (lane, mut session) in sessions.into_iter().enumerate() {
                    let got = prefill_golden_of(&model, &mut session);
                    if got != layout.golden()[lane % 3] {
                        mismatches.push(format!(
                            "{layout:?} batch {lanes} lane {lane} @ {threads} threads: got {got:?}"
                        ));
                    }
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// [`batched_prefill`] with several positions per lane and step: lane `i`
/// joins on step `i`, and on each step takes the next `1 + (lane + step) % 5`
/// tokens of its prompt — chunks of one to five positions side by side in
/// one [`Model::prefill_step`], most of them crossing a boundary of the
/// 4-token KV blocks, all of them ending somewhere else than their
/// neighbours'.
fn chunked_prefill(
    model: &Model,
    kv_pool: Option<&KvBlockPool>,
    lanes: usize,
    threads: usize,
) -> Vec<DecodeSession> {
    use sparseinfer::model::PrefillScratch;
    use sparseinfer::tensor::ThreadPool;

    let pool = ThreadPool::new(ParallelOptions::threads(threads));
    let mut scratch = PrefillScratch::new();
    let prompts: Vec<Vec<u32>> = (0..lanes).map(|lane| prefill_prompt(lane % 3)).collect();
    let mut sessions: Vec<DecodeSession> =
        (0..lanes).map(|_| start_session(model, kv_pool)).collect();
    for step in 0.. {
        let mut batch: Vec<(&[u32], &mut DecodeSession)> = sessions
            .iter_mut()
            .enumerate()
            .filter(|(lane, session)| *lane <= step && session.position < prompts[*lane].len())
            .map(|(lane, session)| {
                let rest = &prompts[lane][session.position..];
                (&rest[..rest.len().min(1 + (lane + step) % 5)], session)
            })
            .collect();
        if batch.is_empty() {
            break;
        }
        model.prefill_step(&mut batch, &pool, &mut scratch);
    }
    sessions
}

#[test]
fn chunked_prefill_matches_the_committed_constants() {
    // The same constants as one position at a time: how many positions of
    // a session share a step must not show in a single KV word.
    let model = golden_model();
    let mut mismatches = Vec::new();
    for layout in KvLayout::ALL {
        for lanes in [1, 2, 5] {
            for threads in [1, 2, 4] {
                let kv_pool = layout.pool();
                let sessions = chunked_prefill(&model, kv_pool.as_ref(), lanes, threads);
                for (lane, mut session) in sessions.into_iter().enumerate() {
                    let got = prefill_golden_of(&model, &mut session);
                    if got != layout.golden()[lane % 3] {
                        mismatches.push(format!(
                            "{layout:?} chunked {lanes} lane {lane} @ {threads} threads: got {got:?}"
                        ));
                    }
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
