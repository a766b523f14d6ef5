//! The one JSON encoding of [`SchedulerStats`] — what the HTTP `/stats`
//! endpoint (`sparseinfer-serve`) serves.
//!
//! [`Scheduler::stats`](sparseinfer_sparse::scheduler::Scheduler::stats)
//! is the single stats *surface*; this module is the single stats
//! *serialization*. Consumers that need extra fields (the server's
//! `completed`/`draining`, a harness's percentiles) append to the value
//! tree this function returns instead of re-encoding scheduler state
//! themselves, so the schema cannot fork.

use sparseinfer_sparse::engine::SpeculativeStats;
use sparseinfer_sparse::scheduler::SchedulerStats;

use crate::json::Json;

fn num(n: u64) -> Json {
    Json::Number(n as f64)
}

/// Encodes draft/accept counters as
/// `{"drafted":d,"accepted":a,"acceptance_rate":r}` — the same shape the
/// per-request finish events use.
pub fn speculative_json(spec: &SpeculativeStats) -> Json {
    Json::Object(vec![
        ("drafted".to_string(), num(spec.drafted)),
        ("accepted".to_string(), num(spec.accepted)),
        (
            "acceptance_rate".to_string(),
            Json::Number(spec.acceptance_rate()),
        ),
    ])
}

/// Encodes one [`SchedulerStats`] snapshot as a JSON object with the
/// sections `scheduler`, `dtype`, `kv`, `memory`, `prefix_cache`,
/// `speculative`, `preemption` and `prefill`.
///
/// `kv.block_budget` is omitted when the memory gate is disabled
/// (`usize::MAX` is not representable as an exact JSON number).
///
/// ```
/// use sparseinfer::json::Json;
/// use sparseinfer::sparse::scheduler::SchedulerStats;
/// use sparseinfer::stats::scheduler_stats_json;
///
/// let doc = scheduler_stats_json(&SchedulerStats::default());
/// let parsed = Json::parse(&doc.to_json()).unwrap();
/// let sched = parsed.get("scheduler").unwrap();
/// assert_eq!(sched.get("submitted").and_then(Json::as_u64), Some(0));
/// ```
pub fn scheduler_stats_json(stats: &SchedulerStats) -> Json {
    let mut kv = vec![
        (
            "blocks_in_use".to_string(),
            num(stats.kv_blocks_in_use as u64),
        ),
        ("in_use_bytes".to_string(), num(stats.kv_in_use_bytes)),
    ];
    if stats.kv_block_budget != usize::MAX {
        kv.push((
            "block_budget".to_string(),
            num(stats.kv_block_budget as u64),
        ));
    }
    Json::Object(vec![
        (
            "scheduler".to_string(),
            Json::Object(vec![
                ("ticks".to_string(), num(stats.ticks)),
                ("queued".to_string(), num(stats.queued as u64)),
                ("active_slots".to_string(), num(stats.active_slots as u64)),
                (
                    "reserved_blocks".to_string(),
                    num(stats.reserved_blocks as u64),
                ),
                (
                    "preempted".to_string(),
                    num(stats.preemption.preempted_now as u64),
                ),
                ("submitted".to_string(), num(stats.submitted as u64)),
                ("retired".to_string(), num(stats.retired as u64)),
            ]),
        ),
        (
            "dtype".to_string(),
            Json::Object(vec![
                ("kv".to_string(), Json::String(stats.kv_dtype.to_string())),
                (
                    "kv_bytes_per_elem".to_string(),
                    num(stats.kv_bytes_per_elem as u64),
                ),
            ]),
        ),
        ("kv".to_string(), Json::Object(kv)),
        (
            "memory".to_string(),
            Json::Object(vec![
                ("shared_bytes".to_string(), num(stats.memory.shared_bytes)),
                ("weight_bytes".to_string(), num(stats.memory.weight_bytes)),
                (
                    "per_session_bytes".to_string(),
                    num(stats.memory.per_session_bytes),
                ),
                ("swapped_bytes".to_string(), num(stats.memory.swapped_bytes)),
            ]),
        ),
        (
            "prefix_cache".to_string(),
            Json::Object(vec![
                (
                    "attached_requests".to_string(),
                    num(stats.prefix.attached_requests as u64),
                ),
                (
                    "skipped_tokens".to_string(),
                    num(stats.prefix.skipped_tokens),
                ),
                (
                    "published_blocks".to_string(),
                    num(stats.prefix.published_blocks as u64),
                ),
                (
                    "evicted_blocks".to_string(),
                    num(stats.prefix.evicted_blocks as u64),
                ),
                (
                    "retained_blocks".to_string(),
                    num(stats.prefix.retained_blocks as u64),
                ),
                (
                    "unreferenced_blocks".to_string(),
                    num(stats.prefix.unreferenced_blocks as u64),
                ),
            ]),
        ),
        (
            "speculative".to_string(),
            speculative_json(&stats.speculative),
        ),
        (
            "preemption".to_string(),
            Json::Object(vec![
                (
                    "preemptions".to_string(),
                    num(stats.preemption.preemptions as u64),
                ),
                (
                    "swapped_out".to_string(),
                    num(stats.preemption.swapped_out as u64),
                ),
                (
                    "recomputed".to_string(),
                    num(stats.preemption.recomputed as u64),
                ),
                ("resumed".to_string(), num(stats.preemption.resumed as u64)),
                (
                    "preempted_now".to_string(),
                    num(stats.preemption.preempted_now as u64),
                ),
                (
                    "swapped_bytes".to_string(),
                    num(stats.preemption.swapped_bytes),
                ),
            ]),
        ),
        (
            "prefill".to_string(),
            Json::Object(vec![
                ("batches".to_string(), num(stats.prefill_batches)),
                ("positions".to_string(), num(stats.prefill_positions)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_sparse::engine::MemoryEstimate;
    use sparseinfer_sparse::scheduler::{PreemptionStats, PrefixCacheStats};

    /// Round trip: every section and every numeric field survives a
    /// serialize → parse cycle with its value intact.
    #[test]
    fn scheduler_stats_round_trip_through_the_parser() {
        let stats = SchedulerStats {
            ticks: 37,
            submitted: 14,
            retired: 9,
            queued: 2,
            active_slots: 3,
            reserved_blocks: 11,
            kv_blocks_in_use: 9,
            kv_in_use_bytes: 4608,
            kv_block_budget: 4096,
            kv_dtype: "f16",
            kv_bytes_per_elem: 2,
            memory: MemoryEstimate {
                shared_bytes: 1024,
                weight_bytes: 768,
                per_session_bytes: 2048,
                swapped_bytes: 512,
            },
            prefix: PrefixCacheStats {
                attached_requests: 4,
                skipped_tokens: 64,
                published_blocks: 8,
                evicted_blocks: 1,
                retained_blocks: 7,
                unreferenced_blocks: 3,
            },
            preemption: PreemptionStats {
                preemptions: 5,
                swapped_out: 3,
                recomputed: 2,
                resumed: 4,
                preempted_now: 1,
                swapped_bytes: 256,
            },
            speculative: SpeculativeStats {
                drafted: 10,
                accepted: 4,
            },
            prefill_batches: 21,
            prefill_positions: 40,
        };
        let doc = Json::parse(&scheduler_stats_json(&stats).to_json()).unwrap();
        let sched = doc.get("scheduler").unwrap();
        assert_eq!(sched.get("ticks").and_then(Json::as_u64), Some(37));
        assert_eq!(sched.get("submitted").and_then(Json::as_u64), Some(14));
        assert_eq!(sched.get("retired").and_then(Json::as_u64), Some(9));
        assert_eq!(sched.get("queued").and_then(Json::as_u64), Some(2));
        assert_eq!(sched.get("active_slots").and_then(Json::as_u64), Some(3));
        assert_eq!(sched.get("preempted").and_then(Json::as_u64), Some(1));
        let dtype = doc.get("dtype").unwrap();
        assert_eq!(dtype.get("kv").and_then(Json::as_str), Some("f16"));
        assert_eq!(
            dtype.get("kv_bytes_per_elem").and_then(Json::as_u64),
            Some(2)
        );
        let kv = doc.get("kv").unwrap();
        assert_eq!(kv.get("blocks_in_use").and_then(Json::as_u64), Some(9));
        assert_eq!(kv.get("in_use_bytes").and_then(Json::as_u64), Some(4608));
        assert_eq!(kv.get("block_budget").and_then(Json::as_u64), Some(4096));
        let memory = doc.get("memory").unwrap();
        assert_eq!(
            memory.get("shared_bytes").and_then(Json::as_u64),
            Some(1024)
        );
        assert_eq!(memory.get("weight_bytes").and_then(Json::as_u64), Some(768));
        assert_eq!(
            memory.get("per_session_bytes").and_then(Json::as_u64),
            Some(2048)
        );
        assert_eq!(
            memory.get("swapped_bytes").and_then(Json::as_u64),
            Some(512)
        );
        let prefix = doc.get("prefix_cache").unwrap();
        assert_eq!(
            prefix.get("skipped_tokens").and_then(Json::as_u64),
            Some(64)
        );
        assert_eq!(
            prefix.get("unreferenced_blocks").and_then(Json::as_u64),
            Some(3)
        );
        let spec = doc.get("speculative").unwrap();
        assert_eq!(spec.get("drafted").and_then(Json::as_u64), Some(10));
        assert_eq!(
            spec.get("acceptance_rate").and_then(Json::as_f64),
            Some(0.4)
        );
        let preemption = doc.get("preemption").unwrap();
        assert_eq!(
            preemption.get("preemptions").and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(
            preemption.get("swapped_bytes").and_then(Json::as_u64),
            Some(256)
        );
        let prefill = doc.get("prefill").unwrap();
        assert_eq!(prefill.get("batches").and_then(Json::as_u64), Some(21));
        assert_eq!(prefill.get("positions").and_then(Json::as_u64), Some(40));
    }

    /// An unbounded budget is omitted rather than rounded through f64.
    #[test]
    fn unbounded_budget_is_omitted() {
        let doc = scheduler_stats_json(&SchedulerStats {
            kv_block_budget: usize::MAX,
            ..Default::default()
        });
        let parsed = Json::parse(&doc.to_json()).unwrap();
        assert!(parsed.get("kv").unwrap().get("block_budget").is_none());
    }
}
