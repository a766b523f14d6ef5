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
//! The model's shapes are awkward on purpose: `d = 288` splits into
//! down-projection worker chunks of 144 (2 threads) and 72 (4 threads)
//! columns, every one of which starts in the middle of a 32-column scale
//! block, and `k = 330` is neither a multiple of the 4-row blocking nor of
//! the 64-row worker minimum.

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
