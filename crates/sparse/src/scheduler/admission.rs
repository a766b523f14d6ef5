//! Admission control: priority-ordered candidate selection, fresh-request
//! admission with prefix-cache lookup, prefix publication and the warm-cache
//! retention cap. Split out of the scheduler core; every method here is an
//! `impl Scheduler` continuation operating on the same private state.

use super::preemption::{preempted_output, PreemptedState};
use super::*;

impl<'m> Scheduler<'m> {
    /// Worst-case KV blocks `req` can ever need on `engine`'s model: one
    /// cache per layer, each holding up to `prompt + max_new` tokens.
    pub(super) fn worst_case_blocks(&self, engine: &dyn Engine, req: &GenerateRequest) -> usize {
        let worst_tokens = req.prompt.len() + req.max_new;
        engine.model().layers().len() * self.kv.blocks_for_tokens(worst_tokens)
    }

    /// Prompt positions of a `prompt_len`-token prompt that are prefix-
    /// sharable: whole blocks inside the densely prefilled region (every
    /// prompt token but the last — the last goes through the engine, so
    /// its KV is engine-dependent and never shared). The single source of
    /// this bound: admission's lookup and prefix publication must agree
    /// on it exactly, or hits and retained entries silently diverge.
    pub(super) fn sharable_tokens(prompt_len: usize, block_tokens: usize) -> usize {
        ((prompt_len - 1) / block_tokens) * block_tokens
    }

    /// Prefix-index identity of `model`.
    ///
    /// Pointer identity is sound here: every submitted engine borrows its
    /// model for `'m`, and a `Scheduler<'m>` value is only usable while
    /// `'m` is alive — so every model ever submitted outlives every later
    /// use of this scheduler, and an address can never be recycled by a
    /// different model within its lifetime.
    pub(super) fn model_key(model: &Model) -> usize {
        model as *const Model as usize
    }

    /// Admits work in priority order: the oldest request of the highest
    /// priority class present — across both the resume queue and the
    /// fresh queue, resume winning ties — admits first, FIFO within a
    /// class. Head-of-line blocking *within that order* is deliberate:
    /// when the best candidate cannot fit even after warm-cache eviction
    /// and (if enabled) preemption, nothing else is admitted — skipping
    /// ahead would make the schedule depend on sizes, not order, breaking
    /// both fairness and the determinism contract.
    pub(super) fn admit(&mut self) {
        // Cancelled- or expired-while-waiting requests retire immediately,
        // wherever they sit: the point of either signal is to release the
        // engine's memory (and any cold swap buffer) now, and it must not
        // wait behind a blocked head. (Dropping entries never reorders the
        // survivors, so FIFO-within-class determinism is untouched.)
        let mut i = 0;
        while i < self.queue.len() {
            let finish = match self.queue[i].signal.load(Ordering::Relaxed) {
                SIGNAL_CANCELLED => Some(FinishReason::Cancelled),
                SIGNAL_EXPIRED => Some(FinishReason::DeadlineExceeded),
                _ => None,
            };
            if let Some(finish) = finish {
                let q = self.queue.remove(i).expect("index in bounds");
                let output = unstarted_output(q, finish, self.ticks);
                self.record_finished(output);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.preempted.len() {
            let finish = match self.preempted[i].signal.load(Ordering::Relaxed) {
                SIGNAL_CANCELLED => Some(FinishReason::Cancelled),
                SIGNAL_EXPIRED => Some(FinishReason::DeadlineExceeded),
                _ => None,
            };
            if let Some(finish) = finish {
                let p = self.preempted.remove(i).expect("index in bounds");
                if let PreemptedState::Swapped { cold_bytes, .. } = p.state {
                    self.cold_bytes -= cold_bytes;
                }
                let output = preempted_output(p, finish, self.ticks);
                self.record_finished(output);
            } else {
                i += 1;
            }
        }
        loop {
            let Some((resume, at)) = self.next_candidate() else {
                return;
            };
            let admitted = if resume {
                self.try_resume(at)
            } else {
                self.try_admit_fresh(at)
            };
            if !admitted {
                return;
            }
        }
    }

    /// The next admission candidate: the oldest entry of the highest
    /// priority class present across the resume queue and the fresh
    /// queue. The resume queue wins priority ties — a preempted request
    /// already earned its admission once. Returns `(is_resume, index)`
    /// into the winning queue.
    fn next_candidate(&self) -> Option<(bool, usize)> {
        fn best(priorities: impl Iterator<Item = Priority>) -> Option<(usize, Priority)> {
            let mut best: Option<(usize, Priority)> = None;
            for (i, p) in priorities.enumerate() {
                if best.is_none_or(|(_, bp)| p > bp) {
                    best = Some((i, p));
                }
            }
            best
        }
        let resume = best(self.preempted.iter().map(|p| p.req.priority));
        let fresh = best(self.queue.iter().map(|q| q.req.priority));
        match (resume, fresh) {
            (Some((ri, rp)), Some((_, fp))) if rp >= fp => Some((true, ri)),
            (_, Some((fi, _))) => Some((false, fi)),
            (Some((ri, _)), None) => Some((true, ri)),
            (None, None) => None,
        }
    }

    /// Tries to admit fresh queued request `at` into a slot. Returns
    /// whether it left the queue (admitted, or defensively failed).
    fn try_admit_fresh(&mut self, at: usize) -> bool {
        // Look up the candidate's prompt prefix *before* the budget
        // check: shared blocks are already paid for by the index's
        // retention (or a publisher's reservation), so the candidate only
        // needs to reserve its net worst case. Attaching refreshes the
        // LRU and pins the blocks for the slot's lifetime.
        let hit = if self.config.prefix_cache {
            let q = &self.queue[at];
            let max_tokens = Self::sharable_tokens(q.req.prompt.len(), self.config.block_tokens);
            self.index.lookup(
                q.model_key,
                &q.req.prompt,
                self.config.block_tokens,
                max_tokens,
            )
        } else {
            None
        };
        let hit_blocks = hit.as_ref().map_or(0, PrefixHit::total_blocks);
        let net_worst = self.queue[at].worst_blocks - hit_blocks;
        // Budget invariant: every physical block is covered by exactly
        // one of (a) a live slot's reservation or (b) the index's
        // retention — so admission fits `net_worst` into what is left of
        // the budget after both (swapped-out requests hold no blocks).
        if !self.make_room(self.queue[at].req.priority, net_worst) {
            if self.reserved_blocks == 0 && self.slots.is_empty() {
                // Unreachable today: submit rejects gross-over-budget
                // requests, and with no live slots the eviction pass in
                // `make_room` reclaims every retained block except the
                // candidate's own hit — which nets out exactly — so the
                // candidate always fits here. Kept as data so a future
                // accounting gap fails one request instead of
                // deadlocking the queue.
                drop(hit);
                let q = self.queue.remove(at).expect("index in bounds");
                let err = EngineError::KvBudgetExceeded {
                    required_blocks: net_worst,
                    budget_blocks: self.config.kv_block_budget,
                };
                let output = unstarted_output(q, FinishReason::Failed(err), self.ticks);
                self.record_finished(output);
                return true;
            }
            return false;
        }
        // Removing mid-queue never reorders the survivors, so FIFO
        // within each priority class is preserved.
        let q = self.queue.remove(at).expect("index in bounds");
        match RequestRun::with_prefix(&q.req, q.engine.as_ref(), &self.kv, hit.as_ref()) {
            Ok(run) => {
                if let Some(hit) = &hit {
                    self.attached_requests += 1;
                    self.skipped_tokens += hit.tokens as u64;
                }
                self.reserved_blocks += net_worst;
                self.slots.push(LiveSlot {
                    id: q.id,
                    engine: q.engine,
                    run,
                    req: q.req,
                    signal: q.signal,
                    worst_blocks: net_worst,
                    gross_blocks: q.worst_blocks,
                    model_key: q.model_key,
                    published: false,
                    preempt_count: 0,
                    swapped_blocks: 0,
                    submitted_tick: q.submitted_tick,
                    admitted_tick: self.ticks,
                });
            }
            // Unreachable today (submit validates the prompt), kept as
            // data so a future validation gap degrades to a failed
            // request instead of a poisoned serving loop.
            Err(err) => {
                let output = unstarted_output(q, FinishReason::Failed(err), self.ticks);
                self.record_finished(output);
            }
        }
        true
    }

    /// Offers every slot's densely prefilled prompt blocks to the prefix
    /// index, once per request, the tick its dense prefill completes
    /// (retiring slots included — a finished request's prefix stays warm
    /// for the next one). Blocks the index newly retains shift out of the
    /// publishing slot's reservation: the budget invariant (every block
    /// covered exactly once) is preserved, and the index then answers for
    /// them until eviction.
    pub(super) fn publish_prefixes(&mut self) {
        if !self.config.prefix_cache {
            return;
        }
        let bt = self.config.block_tokens;
        for slot in &mut self.slots {
            if slot.published || !slot.run.dense_prefill_complete() {
                continue;
            }
            slot.published = true;
            let prompt = slot.run.prompt();
            let sharable = Self::sharable_tokens(prompt.len(), bt);
            if sharable == 0 {
                continue;
            }
            let runs = sharable / bt;
            let per_layer: Vec<Vec<_>> = slot
                .run
                .kv_caches()
                .iter()
                .map(|cache| cache.block_refs()[..runs].to_vec())
                .collect();
            let newly = self
                .index
                .publish(slot.model_key, &prompt[..sharable], bt, &per_layer);
            self.published_blocks += newly;
            // The newly retained blocks were allocated under this slot's
            // reservation; hand their coverage to the index.
            let shift = newly.min(slot.worst_blocks);
            slot.worst_blocks -= shift;
            self.reserved_blocks -= shift;
        }
    }

    /// Enforces the retention cap on unreferenced prefix blocks — run at
    /// the end of every tick, *after* retirement, so blocks a retiring
    /// request just unpinned are re-checked immediately.
    pub(super) fn enforce_prefix_cap(&mut self) {
        if !self.config.prefix_cache {
            return;
        }
        let evicted = self
            .index
            .evict_unreferenced_to(self.config.prefix_retain_blocks);
        self.evicted_blocks += evicted;
    }
}
