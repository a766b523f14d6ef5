//! Capacity planning: replays a *measured* trace through the
//! [`gpu_sim`](sparseinfer::gpu_sim) roofline model to project what the
//! same load would cost on a real device.
//!
//! The CPU replay supplies the schedule — which requests were resident on
//! which ticks, how much prefill each skipped, how many tokens each
//! emitted — all deterministic tick-stamp facts. The projection supplies
//! the per-token prices on the target [`GpuSpec`]. Each request's total
//! cost (un-skipped prefill tokens at the prefill price plus emitted
//! tokens at the decode price) is spread uniformly over its measured
//! residency `[admitted_tick, finished_tick]`; summing the per-tick loads
//! and prefix-summing them turns the tick clock into a simulated wall
//! clock, from which projected TTFT percentiles and throughput fall out.
//!
//! This is a planning model, not a cycle simulator — but it preserves
//! exactly the *relative* orderings that matter for capacity questions
//! (sparse beats dense, a warm prefix cache beats a cold one, a wider
//! memory bus beats a narrower one), and those orderings are validated
//! against the measured CPU run in this crate's tests.

use sparseinfer::gpu_sim::latency::{
    dense_token_latency_at, sparseinfer_token_latency, MlpStepSparsity, SparseVariant,
};
use sparseinfer::gpu_sim::GpuSpec;
use sparseinfer::model::ModelConfig;

use crate::replay::RequestRecord;

/// Per-token prices on a device, in µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Price of one prefill token (prefill is dense either way; only the
    /// prefix cache changes how many of them a request pays for).
    pub prefill_us_per_token: f64,
    /// Price of one decode token.
    pub decode_us_per_token: f64,
}

impl CostModel {
    /// Dense (llama.cpp-baseline) prices at context length `ctx`.
    pub fn dense(spec: &GpuSpec, config: &ModelConfig, ctx: usize) -> Self {
        let dense = dense_token_latency_at(spec, config, ctx).total_us();
        Self {
            prefill_us_per_token: dense,
            decode_us_per_token: dense,
        }
    }

    /// SparseInfer prices: dense prefill, fused sign-bit sparse decode at
    /// a uniform per-layer `sparsity`.
    pub fn sparseinfer(spec: &GpuSpec, config: &ModelConfig, sparsity: f64, ctx: usize) -> Self {
        let per_layer = vec![MlpStepSparsity::uniform(sparsity); config.n_layers];
        let sparse =
            sparseinfer_token_latency(spec, config, &per_layer, SparseVariant::fused(), ctx)
                .total_us();
        Self {
            prefill_us_per_token: dense_token_latency_at(spec, config, ctx).total_us(),
            decode_us_per_token: sparse,
        }
    }
}

/// The projected cost of one measured trace on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// The device name, from [`GpuSpec::name`].
    pub gpu: String,
    /// Simulated wall clock for the whole trace, µs.
    pub total_us: f64,
    /// Projected TTFT percentiles `[p50, p95, p99]`, µs.
    pub ttft_us: [f64; 3],
    /// Tokens the trace emitted (from the measured records).
    pub tokens: usize,
    /// Projected mean decode cost, µs per emitted token.
    pub us_per_token: f64,
}

/// Projects a measured replay onto a device.
///
/// `spec` is validated first (so a hand-edited device spec fails loudly),
/// and `cost` carries the per-token prices — build it with
/// [`CostModel::dense`] or [`CostModel::sparseinfer`] against the *paper
/// scale* model configuration you are planning for, which need not be the
/// small CPU model that produced the records.
///
/// # Panics
///
/// Panics if `spec` fails [`GpuSpec::validate`].
pub fn project(records: &[RequestRecord], cost: &CostModel, spec: &GpuSpec) -> Projection {
    spec.validate().expect("valid GpuSpec");
    let horizon = records
        .iter()
        .map(|r| r.finished_tick as usize + 1)
        .max()
        .unwrap_or(0);

    // Spread each request's device cost uniformly over its measured
    // residency, then sum per tick: concurrent residents make a tick
    // proportionally more expensive, which is how queueing delay at high
    // offered load survives the translation onto the simulated clock.
    let mut tick_load_us = vec![0.0f64; horizon];
    for r in records {
        let Some(admitted) = r.admitted_tick else {
            continue;
        };
        let prefilled = r.prompt_tokens.saturating_sub(r.prefill_skipped_tokens);
        let total = prefilled as f64 * cost.prefill_us_per_token
            + r.tokens.len() as f64 * cost.decode_us_per_token;
        let residency = (r.finished_tick - admitted + 1) as f64;
        let share = total / residency;
        for load in &mut tick_load_us[admitted as usize..=r.finished_tick as usize] {
            *load += share;
        }
    }

    // Simulated time at the *start* of each tick, plus the grand total.
    let mut at_start = vec![0.0f64; horizon + 1];
    for (t, load) in tick_load_us.iter().enumerate() {
        at_start[t + 1] = at_start[t] + load;
    }
    let total_us = at_start[horizon];

    let mut ttfts: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            // First token lands at the end of its emission tick; waiting
            // starts when the request was submitted.
            let first = r.first_token_tick?;
            Some(at_start[first as usize + 1] - at_start[r.submitted_tick as usize])
        })
        .collect();
    ttfts.sort_by(|a, b| a.partial_cmp(b).expect("finite projection"));

    let tokens: usize = records.iter().map(|r| r.tokens.len()).sum();
    Projection {
        gpu: spec.name.clone(),
        total_us,
        ttft_us: [
            percentile_f(&ttfts, 0.50),
            percentile_f(&ttfts, 0.95),
            percentile_f(&ttfts, 0.99),
        ],
        tokens,
        us_per_token: if tokens == 0 {
            0.0
        } else {
            total_us / tokens as f64
        },
    }
}

/// Nearest-rank percentile of an ascending slice (0 on empty input).
fn percentile_f(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer::sparse::request::FinishReason;

    #[allow(clippy::too_many_arguments)]
    fn record(
        id: usize,
        submitted: u64,
        admitted: u64,
        first: u64,
        finished: u64,
        prompt: usize,
        skipped: usize,
        tokens: usize,
    ) -> RequestRecord {
        RequestRecord {
            id,
            prompt_tokens: prompt,
            tokens: vec![1; tokens],
            finish: FinishReason::MaxTokens,
            submitted_tick: submitted,
            admitted_tick: Some(admitted),
            first_token_tick: Some(first),
            finished_tick: finished,
            queue_wait_ticks: Some(admitted - submitted),
            prefill_skipped_tokens: skipped,
            preemptions: 0,
            macs: 0,
        }
    }

    fn paper_scale() -> (GpuSpec, ModelConfig) {
        (GpuSpec::jetson_orin_agx_64gb(), ModelConfig::sim_7b())
    }

    #[test]
    fn queueing_shows_up_in_projected_ttft() {
        let (spec, config) = paper_scale();
        let cost = CostModel::dense(&spec, &config, 128);
        // Two identical requests; the second waits 4 ticks in queue.
        let first = record(0, 0, 0, 0, 3, 8, 0, 4);
        let queued = record(1, 0, 4, 4, 7, 8, 0, 4);
        let solo = project(std::slice::from_ref(&first), &cost, &spec);
        let both = project(&[first, queued], &cost, &spec);
        // The queued request's TTFT includes everything the first one
        // burned before it started.
        assert!(
            both.ttft_us[1] > solo.ttft_us[0] * 2.0,
            "queued {:?} vs solo {:?}",
            both.ttft_us,
            solo.ttft_us
        );
        assert!(both.total_us > solo.total_us);
    }

    #[test]
    fn skipped_prefill_is_cheaper() {
        let (spec, config) = paper_scale();
        let cost = CostModel::dense(&spec, &config, 128);
        let cold = vec![record(0, 0, 0, 0, 3, 64, 0, 4)];
        let warm = vec![record(0, 0, 0, 0, 3, 64, 48, 4)];
        let cold_p = project(&cold, &cost, &spec);
        let warm_p = project(&warm, &cost, &spec);
        assert!(warm_p.total_us < cold_p.total_us);
        assert!(warm_p.ttft_us[0] < cold_p.ttft_us[0]);
    }

    #[test]
    fn sparse_decode_is_cheaper_than_dense_on_the_same_trace() {
        let (spec, config) = paper_scale();
        let trace = vec![record(0, 0, 0, 0, 9, 4, 0, 32)];
        let dense = project(&trace, &CostModel::dense(&spec, &config, 256), &spec);
        let sparse = project(
            &trace,
            &CostModel::sparseinfer(&spec, &config, 0.9, 256),
            &spec,
        );
        assert!(sparse.total_us < dense.total_us);
    }

    #[test]
    fn never_admitted_requests_cost_nothing() {
        let (spec, config) = paper_scale();
        let cost = CostModel::dense(&spec, &config, 128);
        let mut r = record(0, 0, 0, 0, 3, 8, 0, 4);
        r.admitted_tick = None;
        r.first_token_tick = None;
        r.tokens.clear();
        let p = project(&[r], &cost, &spec);
        assert_eq!(p.total_us, 0.0);
        assert_eq!(p.tokens, 0);
    }
}
