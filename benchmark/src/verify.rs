//! Output checks: a run is only worth timing if its tokens are right.
//!
//! The program's contract is that a request's tokens are bit-identical to
//! running it alone with the same engine configuration — through the
//! scheduler, prefix sharing, preemption, swap and HTTP. The benchmark
//! holds every workload to it, and measures the paper's accuracy axis
//! (agreement of the sparse engine with the dense one) beside the speed.

use sparseinfer::sparse::engine::Engine;
use sparseinfer::sparse::request::{generate, GenerateRequest};
use sparseinfer::tensor::Vector;

use crate::drivers::Record;
use crate::setup::Engines;
use crate::workloads::{agreement_prompts, Request, Spec};

/// Re-runs the first `spec.verify_requests` complete records alone —
/// fresh engine, fresh private KV, no scheduler — and returns the ids
/// whose tokens differ. Greedy decoding is prefix-stable, so the re-run
/// may stop after `spec.verify_new` tokens and compare that head.
pub fn mismatched_against_solo(
    spec: &Spec,
    engines: &Engines<'_>,
    requests: &[Request],
    records: &[Record],
) -> Vec<usize> {
    let mut engine = engines.bare();
    records
        .iter()
        .filter(|r| r.complete)
        .take(spec.verify_requests)
        .filter(|record| {
            let req = &requests[record.id];
            let head = req.max_new.min(spec.verify_new);
            let solo = generate(
                engine.as_mut(),
                &GenerateRequest::new(&req.prompt).max_new(head),
            );
            !solo.is_ok_and(|g| g.tokens[..] == record.tokens[..head.min(record.tokens.len())])
        })
        .map(|r| r.id)
        .collect()
}

/// Share of positions at which the workload's engine, teacher-forced on
/// the dense engine's greedy continuation of fixed prompts, picks the
/// token the dense engine picked. Returns `(agreeing, positions)`.
pub fn dense_agreement(spec: &Spec, engines: &Engines<'_>) -> (usize, usize) {
    let positions = spec.agreement_positions;
    let mut dense = engines.dense();
    let mut engine = engines.bare();
    let mut agreeing = 0;
    let mut total = 0;
    for prompt in agreement_prompts(spec) {
        let continuation = generate(
            dense.as_mut(),
            &GenerateRequest::new(&prompt).max_new(positions),
        )
        .expect("fixed prompts are non-empty")
        .tokens;
        // As the request layer does: dense prefill through the bare model
        // for all but the last prompt token, the engine from there on.
        let (last, head) = prompt.split_last().expect("fixed prompts are non-empty");
        let mut session = engines.model.start_session();
        for &token in head {
            let _ = engines.model.forward_token(token, &mut session);
        }
        let mut fed = vec![*last];
        fed.extend(&continuation[..positions - 1]);
        let mut logits = vec![Vector::zeros(0); positions];
        engine.score_block_into(&fed, &mut session, &mut logits);
        agreeing += logits
            .iter()
            .zip(&continuation)
            .filter(|(l, &t)| l.argmax() == Some(t as usize))
            .count();
        total += positions;
    }
    (agreeing, total)
}

/// The bare engine's exact operation counts over a short fixed decode:
/// `(rows skipped share, MACs per position, weight bytes per position)`.
pub fn op_counts(engine: &mut dyn Engine) -> (f64, f64, f64) {
    let req = GenerateRequest::new(&[5, 4, 3, 2]).max_new(16);
    let _ = generate(engine, &req);
    let ops = engine.ops();
    // The engine saw the last prompt token and every generated one but the
    // final (never fed back): 16 positions.
    let positions = 16.0;
    let rows = (ops.rows_skipped + ops.rows_computed).max(1) as f64;
    (
        ops.rows_skipped as f64 / rows,
        ops.macs as f64 / positions,
        ops.weight_bytes_loaded as f64 / positions,
    )
}
