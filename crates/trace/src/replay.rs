//! The replay driver: feeds a generated [`Workload`] through the
//! library's continuous-batching [`Scheduler`] and reports what the
//! schedule did.
//!
//! Everything reported is derived from the scheduler's tick stamps and
//! counters — queue waits, preemption/eviction counts, emitted token
//! counts, peak KV blocks. These are a pure function of the trace and the
//! scheduler configuration: identical on every host and at every
//! slot-thread count. Nothing here reads a clock; wall-clock TTFT,
//! inter-token latency and throughput are measured by `benchmark/`.

use sparseinfer::sparse::engine::Engine;
use sparseinfer::sparse::request::{FinishReason, GenerateRequest};
use sparseinfer::sparse::scheduler::{RequestHandle, Scheduler, SchedulerConfig, SchedulerStats};
use sparseinfer::tensor::ParallelOptions;

use crate::spec::Workload;

/// How to run a replay.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The scheduler under load.
    pub scheduler: SchedulerConfig,
    /// Slot threads ticking concurrently (1 = single-threaded). Token
    /// streams and every report field are identical at any value.
    pub slot_threads: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            slot_threads: 1,
        }
    }
}

/// Everything measured about one request of a replay.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Scheduler request id (the submission index of the trace).
    pub id: usize,
    /// Prompt length, in tokens.
    pub prompt_tokens: usize,
    /// The generated tokens (bit-identical across slot-thread counts for
    /// a fixed trace — the determinism contract, testable here).
    pub tokens: Vec<u32>,
    /// Why decoding stopped.
    pub finish: FinishReason,
    /// Tick the request was submitted on.
    pub submitted_tick: u64,
    /// Tick of first admission into a slot; `None` if it never ran.
    pub admitted_tick: Option<u64>,
    /// Tick its first token was emitted on; `None` if it never emitted.
    pub first_token_tick: Option<u64>,
    /// Tick it retired on.
    pub finished_tick: u64,
    /// Queue wait in ticks (`admitted - submitted`); `None` if never
    /// admitted.
    pub queue_wait_ticks: Option<u64>,
    /// Prompt positions served from the prefix cache instead of prefill.
    pub prefill_skipped_tokens: usize,
    /// Times the request was preempted.
    pub preemptions: usize,
    /// MACs the request executed (decode path).
    pub macs: u64,
}

/// The aggregate report of one replay.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that ran to a natural finish (`MaxTokens` / `Stop`).
    pub completed: usize,
    /// Requests cancelled mid-stream (the trace's cancellation knob).
    pub cancelled: usize,
    /// Tokens emitted across the replay.
    pub tokens: usize,
    /// Queue-wait percentiles `[p50, p95, p99]` in ticks.
    pub queue_wait_ticks: [u64; 3],
    /// Worst queue wait in ticks.
    pub queue_wait_max_ticks: u64,
    /// Peak KV blocks allocated at any tick boundary.
    pub peak_kv_blocks: usize,
    /// Peak KV bytes allocated at any tick boundary.
    pub peak_kv_bytes: u64,
    /// `kv_block_budget - peak_kv_blocks`; `None` when the budget is
    /// unbounded — the capacity-planning headroom.
    pub kv_headroom_blocks: Option<usize>,
    /// The headroom in bytes; `None` when unbounded.
    pub kv_headroom_bytes: Option<u64>,
    /// The scheduler's final stats snapshot (preemption, prefix-cache and
    /// speculative aggregates included).
    pub scheduler: SchedulerStats,
}

/// A replay's full result: the per-request records (for projection and
/// determinism checks) plus the aggregated report.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Per-request measurements, ordered by request id.
    pub records: Vec<RequestRecord>,
    /// The aggregated report.
    pub report: SloReport,
}

/// Replays a workload through a fresh [`Scheduler`], building each
/// request's engine with `engine_for(request index)`.
///
/// The driver advances one scheduler tick per loop iteration: it submits
/// every request whose arrival tick has been reached, ticks, applies the
/// trace's mid-stream cancellations, and samples the KV pool at the tick
/// boundary. It runs until the trace is fully submitted and drained.
pub fn replay<'m, F>(workload: &Workload, config: &ReplayConfig, mut engine_for: F) -> ReplayOutcome
where
    F: FnMut(usize) -> Box<dyn Engine + 'm>,
{
    let mut scheduler = Scheduler::new(config.scheduler);
    if config.slot_threads > 1 {
        scheduler = scheduler.parallel(ParallelOptions::threads(config.slot_threads));
    }
    let n = workload.requests.len();

    let mut handles: Vec<Option<RequestHandle>> = (0..n).map(|_| None).collect();
    // Scheduler ids are assigned per *accepted* submission; a rejected
    // submit allocates no id, so the id → trace-index mapping is explicit.
    let mut trace_index_of_id: Vec<usize> = Vec::with_capacity(n);
    let mut emitted = vec![0usize; n];
    let mut first_token_tick: Vec<Option<u64>> = vec![None; n];

    let mut peak_kv_blocks = 0usize;
    let mut peak_kv_bytes = 0u64;
    let mut block_bytes = 0u64;

    let mut next = 0usize;
    let mut tick: u64 = 0;
    loop {
        while next < n && workload.requests[next].arrives_at_tick <= tick {
            let r = &workload.requests[next];
            let request = GenerateRequest::new(&r.prompt)
                .max_new(r.max_new)
                .priority(r.priority);
            // A rejected submit (e.g. a prompt that could never fit the
            // whole KV budget) produces no record; everything accepted
            // does, whatever its finish reason.
            if let Ok(handle) = scheduler.submit(engine_for(next), &request) {
                handles[next] = Some(handle);
                trace_index_of_id.push(next);
            }
            next += 1;
        }
        let unfinished = scheduler.tick(|ev| {
            let i = trace_index_of_id[ev.request];
            first_token_tick[i].get_or_insert(tick);
            emitted[i] += 1;
        });
        for (i, r) in workload.requests.iter().enumerate() {
            if let (Some(cancel_at), Some(handle)) = (r.cancel_after_tokens, handles[i].as_ref()) {
                if emitted[i] >= cancel_at {
                    handle.cancel();
                }
            }
        }
        let pool = scheduler.kv_pool();
        let blocks = pool.blocks_in_use();
        let bytes = pool.in_use_bytes();
        if blocks > 0 {
            block_bytes = bytes / blocks as u64;
        }
        peak_kv_blocks = peak_kv_blocks.max(blocks);
        peak_kv_bytes = peak_kv_bytes.max(bytes);
        tick += 1;
        if unfinished == 0 && next == n {
            break;
        }
    }
    let stats = scheduler.stats();
    let mut outputs = scheduler.take_finished();
    outputs.sort_by_key(|o| o.id);

    let mut records: Vec<RequestRecord> = Vec::with_capacity(outputs.len());
    for o in outputs {
        let i = trace_index_of_id[o.id];
        let queue_wait_ticks = o.admitted_tick.map(|a| a - o.submitted_tick);
        records.push(RequestRecord {
            id: o.id,
            prompt_tokens: workload.requests[i].prompt.len(),
            tokens: o.tokens,
            finish: o.finish,
            submitted_tick: o.submitted_tick,
            admitted_tick: o.admitted_tick,
            first_token_tick: first_token_tick[i],
            finished_tick: o.finished_tick,
            queue_wait_ticks,
            prefill_skipped_tokens: o.prefill_skipped_tokens,
            preemptions: o.preemptions,
            macs: o.ops.macs,
        });
    }

    let report = aggregate(
        config,
        &records,
        &stats,
        peak_kv_blocks,
        peak_kv_bytes,
        block_bytes,
    );
    ReplayOutcome { records, report }
}

/// Folds the per-request records into the [`SloReport`].
fn aggregate(
    config: &ReplayConfig,
    records: &[RequestRecord],
    stats: &SchedulerStats,
    peak_kv_blocks: usize,
    peak_kv_bytes: u64,
    block_bytes: u64,
) -> SloReport {
    let completed = records
        .iter()
        .filter(|r| matches!(r.finish, FinishReason::MaxTokens | FinishReason::Stop(_)))
        .count();
    let cancelled = records
        .iter()
        .filter(|r| matches!(r.finish, FinishReason::Cancelled))
        .count();
    let tokens: usize = records.iter().map(|r| r.tokens.len()).sum();

    let mut waits: Vec<u64> = records.iter().filter_map(|r| r.queue_wait_ticks).collect();
    waits.sort_unstable();

    let budget = config.scheduler.kv_block_budget;
    let kv_headroom_blocks = (budget != usize::MAX).then(|| budget.saturating_sub(peak_kv_blocks));
    let kv_headroom_bytes = kv_headroom_blocks.map(|b| b as u64 * block_bytes);

    SloReport {
        requests: records.len(),
        completed,
        cancelled,
        tokens,
        queue_wait_ticks: [
            percentile_u(&waits, 0.50),
            percentile_u(&waits, 0.95),
            percentile_u(&waits, 0.99),
        ],
        queue_wait_max_ticks: waits.last().copied().unwrap_or(0),
        peak_kv_blocks,
        peak_kv_bytes,
        kv_headroom_blocks,
        kv_headroom_bytes,
        scheduler: stats.clone(),
    }
}

/// Nearest-rank percentile of an ascending slice of tick counts (0 on
/// empty input).
fn percentile_u(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TraceSpec;
    use sparseinfer::model::{generator::WeightGenerator, Model, ModelConfig};
    use sparseinfer::sparse::engine::EngineBuilder;

    fn tiny_model() -> Model {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 300;
        WeightGenerator::new(&cfg, 7).build()
    }

    fn tight_config() -> ReplayConfig {
        ReplayConfig {
            scheduler: SchedulerConfig::builder()
                .max_slots(2)
                .block_tokens(8)
                .kv_block_budget(256)
                .build()
                .unwrap(),
            ..ReplayConfig::default()
        }
    }

    #[test]
    fn replay_drains_the_whole_trace_and_reports_it() {
        let model = tiny_model();
        let workload = TraceSpec::steady(21).requests(8).generate();
        let outcome = replay(&workload, &tight_config(), |_| {
            EngineBuilder::new(&model).build().unwrap()
        });
        let report = &outcome.report;
        assert_eq!(outcome.records.len(), 8);
        assert_eq!(report.requests, 8);
        assert_eq!(report.completed + report.cancelled, 8);
        assert!(report.tokens > 0);
        assert!(report.peak_kv_blocks > 0);
        assert_eq!(report.kv_headroom_blocks, Some(256 - report.peak_kv_blocks));
        assert_eq!(report.scheduler.retired, 8);
        // Every admitted request has consistent tick stamps.
        for r in &outcome.records {
            let admitted = r.admitted_tick.expect("budget fits all");
            assert!(admitted >= r.submitted_tick);
            assert!(r.finished_tick >= admitted);
            assert_eq!(r.queue_wait_ticks, Some(admitted - r.submitted_tick));
            if let Some(first) = r.first_token_tick {
                assert!(first >= admitted);
            }
        }
    }
}
