//! Observability: the public stats structs and every aggregate accessor —
//! prefix-cache, preemption and speculative-decoding counters, the memory
//! estimate, and the finished-output sink that folds retired requests into
//! the lifetime aggregates. Split out of the scheduler core.

use super::*;

/// Aggregate prefix-cache accounting of one [`Scheduler`] (see
/// [`Scheduler::prefix_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Requests admitted with at least one attached prefix block.
    pub attached_requests: usize,
    /// Total prompt positions skipped across all requests (the sum of
    /// every output's `prefill_skipped_tokens`).
    pub skipped_tokens: u64,
    /// Block handles newly published to the index over the scheduler's
    /// lifetime.
    pub published_blocks: usize,
    /// Block handles evicted from the index (LRU cap or budget pressure).
    pub evicted_blocks: usize,
    /// Blocks the index currently retains (pinned + unreferenced).
    pub retained_blocks: usize,
    /// Retained blocks no live session references (the evictable set the
    /// [`prefix_retain_blocks`](SchedulerConfig::prefix_retain_blocks)
    /// cap applies to).
    pub unreferenced_blocks: usize,
}

/// Aggregate preemption accounting of one [`Scheduler`] (see
/// [`Scheduler::preemption_stats`]). All zeros when
/// [`preemption`](SchedulerConfig::preemption) is off or traffic is
/// single-priority.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreemptionStats {
    /// Preemption events over the scheduler's lifetime (each counts one
    /// victim eviction, whether by swap-out or drop-and-recompute).
    pub preemptions: usize,
    /// Preemptions that swapped the victim's KV to a cold buffer.
    pub swapped_out: usize,
    /// Preemptions that dropped the victim's KV for recompute.
    pub recomputed: usize,
    /// Preempted requests resumed into a slot so far.
    pub resumed: usize,
    /// Requests currently preempted and waiting to resume.
    pub preempted_now: usize,
    /// Bytes currently held in cold swap buffers (also surfaced as
    /// [`MemoryEstimate::swapped_bytes`]).
    pub swapped_bytes: u64,
}

/// One point-in-time snapshot of **every** observable the scheduler
/// exposes — the single stats surface behind [`Scheduler::stats`].
///
/// The individual accessors ([`prefix_stats`](Scheduler::prefix_stats),
/// [`preemption_stats`](Scheduler::preemption_stats),
/// [`speculative_stats`](Scheduler::speculative_stats),
/// [`memory_estimate`](Scheduler::memory_estimate)) remain available, but
/// consumers that report state — the HTTP `/stats` endpoint, the
/// trace-replay harness's `SloReport` — take this one struct and encode
/// it through one serializer (`sparseinfer::stats`), so the two surfaces
/// can never drift apart field by field.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Completed [`tick`](Scheduler::tick) calls — the deterministic
    /// clock behind the per-request tick stamps.
    pub ticks: u64,
    /// Requests submitted over the scheduler's lifetime.
    pub submitted: usize,
    /// Requests retired over the scheduler's lifetime (every finish
    /// reason counts — cancellations and failures included).
    pub retired: usize,
    /// Requests waiting for admission (fresh submissions only).
    pub queued: usize,
    /// Requests currently occupying decode slots.
    pub active_slots: usize,
    /// Worst-case KV blocks currently reserved by the live slots.
    pub reserved_blocks: usize,
    /// KV blocks currently allocated out of the pool.
    pub kv_blocks_in_use: usize,
    /// Bytes of those in-use KV blocks.
    pub kv_in_use_bytes: u64,
    /// The pool's block budget ([`SchedulerConfig::kv_block_budget`]);
    /// `usize::MAX` when the memory gate is disabled.
    pub kv_block_budget: usize,
    /// Label of the KV element type (`"f32"` / `"f16"`).
    pub kv_dtype: &'static str,
    /// Bytes of one stored KV scalar (4 for f32, 2 for f16).
    pub kv_bytes_per_elem: usize,
    /// Engine + KV memory estimate (see [`Scheduler::memory_estimate`]).
    pub memory: MemoryEstimate,
    /// Prefix-cache accounting (see [`Scheduler::prefix_stats`]).
    pub prefix: PrefixCacheStats,
    /// Preemption accounting (see [`Scheduler::preemption_stats`]).
    pub preemption: PreemptionStats,
    /// Speculative-decoding accounting (see
    /// [`Scheduler::speculative_stats`]).
    pub speculative: SpeculativeStats,
    /// Batched dense-prefill steps taken over the scheduler's lifetime:
    /// one per tick and model with at least one prefilling slot, each one
    /// pass over that model's weights.
    pub prefill_batches: u64,
    /// Prompt positions those steps fed — their columns, a slot bringing up
    /// to `PREFILL_CHUNK` of them in a tick no slot decodes in and one
    /// otherwise. `prefill_positions / prefill_batches` is the mean number
    /// of columns per weight pass: the factor by which weight bytes per
    /// prefilled token fall below one full pass.
    pub prefill_positions: u64,
}

impl Scheduler<'_> {
    /// Requests submitted over the scheduler's lifetime.
    pub fn submitted(&self) -> usize {
        self.next_id
    }

    /// Requests retired over the scheduler's lifetime.
    pub fn retired(&self) -> usize {
        self.retired
    }

    /// Completed [`tick`](Self::tick) calls so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// One snapshot of every observable: counters, queue depths, KV pool
    /// state, the memory estimate, and the prefix/preemption/speculative
    /// aggregates — the single surface `/stats` and the load harness
    /// serialize from.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            ticks: self.ticks,
            submitted: self.submitted(),
            retired: self.retired,
            queued: self.pending_requests(),
            active_slots: self.active_slots(),
            reserved_blocks: self.reserved_blocks,
            kv_blocks_in_use: self.kv.blocks_in_use(),
            kv_in_use_bytes: self.kv.in_use_bytes(),
            kv_block_budget: self.config.kv_block_budget,
            kv_dtype: self.kv.dtype().label(),
            kv_bytes_per_elem: self.kv.dtype().bytes_per_elem(),
            memory: self.memory_estimate(),
            prefix: self.prefix_stats(),
            preemption: self.preemption_stats(),
            speculative: self.speculative_stats(),
            prefill_batches: self.prefill_batches,
            prefill_positions: self.prefill_positions,
        }
    }

    /// Requests not yet finished (queued, live, or preempted).
    pub fn unfinished_requests(&self) -> usize {
        self.queue.len() + self.slots.len() + self.preempted.len()
    }

    /// Requests waiting for admission (fresh submissions only; preempted
    /// requests awaiting resume are counted by
    /// [`preempted_requests`](Self::preempted_requests)).
    pub fn pending_requests(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently occupying decode slots.
    pub fn active_slots(&self) -> usize {
        self.slots.len()
    }

    /// Requests currently preempted and waiting to resume.
    pub fn preempted_requests(&self) -> usize {
        self.preempted.len()
    }

    /// Worst-case KV blocks currently reserved by the live slots (net of
    /// prefix hits and blocks already handed to the index's retention).
    pub fn reserved_blocks(&self) -> usize {
        self.reserved_blocks
    }

    /// Aggregate prefix-cache accounting: hit/publication/eviction
    /// counters over the scheduler's lifetime plus the index's current
    /// retention. All zeros when
    /// [`prefix_cache`](SchedulerConfig::prefix_cache) is off.
    pub fn prefix_stats(&self) -> PrefixCacheStats {
        PrefixCacheStats {
            attached_requests: self.attached_requests,
            skipped_tokens: self.skipped_tokens,
            published_blocks: self.published_blocks,
            evicted_blocks: self.evicted_blocks,
            retained_blocks: self.index.retained_blocks(),
            unreferenced_blocks: self.index.unreferenced_blocks(),
        }
    }

    /// Aggregate preemption accounting: eviction/swap/recompute/resume
    /// counters over the scheduler's lifetime plus the current preempted
    /// population and cold-buffer bytes.
    pub fn preemption_stats(&self) -> PreemptionStats {
        PreemptionStats {
            preemptions: self.preemptions,
            swapped_out: self.swapped_out,
            recomputed: self.recomputed,
            resumed: self.resumed,
            preempted_now: self.preempted.len(),
            swapped_bytes: self.cold_bytes,
        }
    }

    /// Aggregate speculative-decoding accounting: draft/accept counters
    /// summed over every retired request plus the engines currently live,
    /// preempted or queued. All zeros when no submitted engine drafts.
    pub fn speculative_stats(&self) -> SpeculativeStats {
        let mut total = self.spec_retired;
        let engines = self
            .slots
            .iter()
            .map(|s| s.engine.as_ref())
            .chain(self.queue.iter().map(|q| q.engine.as_ref()))
            .chain(self.preempted.iter().map(|p| p.engine.as_ref()));
        for engine in engines {
            if let Some(spec) = engine.speculative_stats() {
                total.merge(&spec);
            }
        }
        total
    }

    /// Records one finished request: folds its draft/accept counters into
    /// the scheduler-lifetime aggregate and queues the output for
    /// [`take_finished`](Self::take_finished).
    pub(super) fn record_finished(&mut self, output: BatchOutput) {
        if let Some(spec) = &output.speculative {
            self.spec_retired.merge(spec);
        }
        self.retired += 1;
        self.finished.push(output);
    }

    /// Memory of the scheduler's execution state: engine memory over every
    /// queued, live and preempted request (shared predictor bytes counted
    /// **once per distinct predictor**, deduplicated by `Arc` identity)
    /// plus the KV blocks live sessions and the prefix cache currently
    /// hold, plus — reported separately as
    /// [`swapped_bytes`](MemoryEstimate::swapped_bytes) — the cold
    /// buffers of swapped-out preempted requests. The pool
    /// reports **physical** blocks — a prefix block attached to ten
    /// sessions costs its bytes once — and is added exactly once here,
    /// never per session, so shared blocks are never double-counted.
    /// Retired requests contribute nothing — their scratch is dropped and
    /// their private blocks are back in the pool — which is the
    /// measurable form of the O(live tokens) memory property.
    pub fn memory_estimate(&self) -> MemoryEstimate {
        let mut seen = Vec::new();
        let mut total = MemoryEstimate::default();
        let engines = self
            .slots
            .iter()
            .map(|s| s.engine.as_ref())
            .chain(self.queue.iter().map(|q| q.engine.as_ref()))
            .chain(self.preempted.iter().map(|p| p.engine.as_ref()));
        for engine in engines {
            let est = engine.memory_estimate();
            total.per_session_bytes += est.per_session_bytes;
            match engine.shared_state_id() {
                Some(id) if seen.contains(&id) => {}
                Some(id) => {
                    seen.push(id);
                    total.shared_bytes += est.shared_bytes;
                    total.weight_bytes += est.weight_bytes;
                }
                None => {
                    total.shared_bytes += est.shared_bytes;
                    total.weight_bytes += est.weight_bytes;
                }
            }
        }
        total.per_session_bytes += self.kv.in_use_bytes();
        // Cold swap buffers live outside the pool — counted separately so
        // swap-out can never silently hide memory from the estimate.
        total.swapped_bytes = self.cold_bytes;
        total
    }
}
