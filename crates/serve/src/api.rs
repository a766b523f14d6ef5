//! The wire API: JSON request parsing and JSON event/stats encoding.
//!
//! Everything here is pure data transformation over
//! [`sparseinfer::json`] — no sockets, no threads — so the whole wire
//! contract is unit-testable without booting a server. The inverse
//! direction (`parse` of what we emit) is exercised by the loopback
//! client in [`crate::client`].

use std::time::Duration;

use sparseinfer::json::Json;
use sparseinfer::model::Sampler;
use sparseinfer::sparse::request::{FinishReason, GenerateRequest, Priority, TokenEvent};

use crate::owner::{FinishSummary, StatsSnapshot};

/// A parsed `POST /v1/generate` body: the scheduler-level request plus the
/// serving-level deadline.
#[derive(Debug)]
pub struct GenerateParams {
    /// The request handed to the scheduler.
    pub request: GenerateRequest,
    /// Relative deadline; the owner loop expires the request once this
    /// much time has passed since submission.
    pub deadline: Option<Duration>,
}

/// Parses a `POST /v1/generate` JSON body.
///
/// Accepted fields:
///
/// | field | type | default | meaning |
/// |---|---|---|---|
/// | `prompt` | array of token ids | required, non-empty | the prompt |
/// | `max_new` | integer ≥ 1 | 16 | continuation budget |
/// | `stop` | array of token ids | `[]` | stop tokens |
/// | `temperature` | number > 0 | greedy | softmax temperature |
/// | `top_k` | integer ≥ 1 | off | top-k truncation (uses `temperature` or 1.0) |
/// | `seed` | integer | 0 | sampler RNG seed |
/// | `deadline_ms` | integer ≥ 1 | none | per-request deadline |
/// | `priority` | `"high"` / `"normal"` / `"batch"` | `"normal"` | admission class |
///
/// # Errors
///
/// A human-readable message destined for a `400` response body. Unknown
/// fields are rejected too — a typo'd `max_mew` silently meaning
/// "16 tokens" is worse than a 400.
pub fn parse_generate_body(body: &str) -> Result<GenerateParams, String> {
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Object(fields) = &doc else {
        return Err("request body must be a JSON object".to_string());
    };
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "prompt"
                | "max_new"
                | "stop"
                | "temperature"
                | "top_k"
                | "seed"
                | "deadline_ms"
                | "priority"
        ) {
            return Err(format!("unknown field `{key}`"));
        }
    }

    let prompt = tokens_field(&doc, "prompt")?
        .ok_or_else(|| "missing required field `prompt`".to_string())?;
    if prompt.is_empty() {
        return Err("`prompt` must be a non-empty array of token ids".to_string());
    }
    let mut request = GenerateRequest::new(&prompt);
    if let Some(max_new) = u64_field(&doc, "max_new")? {
        if max_new == 0 {
            return Err("`max_new` must be at least 1".to_string());
        }
        request = request.max_new(max_new as usize);
    }
    if let Some(stop) = tokens_field(&doc, "stop")? {
        for token in stop {
            request = request.stop_at(token);
        }
    }

    let temperature = match doc.get("temperature") {
        None => None,
        Some(v) => match v.as_f64() {
            Some(t) if t > 0.0 && t.is_finite() => Some(t),
            _ => return Err("`temperature` must be a positive number".to_string()),
        },
    };
    let seed = u64_field(&doc, "seed")?.unwrap_or(0);
    match u64_field(&doc, "top_k")? {
        Some(0) => return Err("`top_k` must be at least 1".to_string()),
        Some(k) => {
            request = request.sampler(Sampler::top_k(k as usize, temperature.unwrap_or(1.0), seed));
        }
        None => {
            if let Some(t) = temperature {
                request = request.sampler(Sampler::temperature(t, seed));
            }
        }
    }

    match doc.get("priority") {
        None => {}
        Some(v) => {
            let priority = match v.as_str() {
                Some("high") => Priority::High,
                Some("normal") => Priority::Normal,
                Some("batch") => Priority::Batch,
                _ => {
                    return Err(
                        "`priority` must be one of \"high\", \"normal\", \"batch\"".to_string()
                    )
                }
            };
            request = request.priority(priority);
        }
    }

    let deadline = match u64_field(&doc, "deadline_ms")? {
        Some(0) => return Err("`deadline_ms` must be at least 1".to_string()),
        Some(ms) => Some(Duration::from_millis(ms)),
        None => None,
    };
    Ok(GenerateParams { request, deadline })
}

/// Reads an optional array-of-token-ids field.
fn tokens_field(doc: &Json, key: &str) -> Result<Option<Vec<u32>>, String> {
    let Some(value) = doc.get(key) else {
        return Ok(None);
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("`{key}` must be an array of token ids"))?;
    let mut tokens = Vec::with_capacity(items.len());
    for item in items {
        let id = item
            .as_u64()
            .filter(|&id| id <= u32::MAX as u64)
            .ok_or_else(|| format!("`{key}` entries must be token ids (u32)"))?;
        tokens.push(id as u32);
    }
    Ok(Some(tokens))
}

/// Reads an optional non-negative integer field.
fn u64_field(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

/// The wire name of a finish reason, as sent in the terminal SSE event.
pub fn finish_reason_name(finish: &FinishReason) -> &'static str {
    match finish {
        FinishReason::MaxTokens => "max_tokens",
        FinishReason::Stop(_) => "stop",
        FinishReason::Cancelled => "cancelled",
        FinishReason::DeadlineExceeded => "deadline_exceeded",
        FinishReason::Failed(_) => "failed",
    }
}

/// Encodes one token SSE event payload: `{"index":i,"token":t}`.
pub fn token_event_json(event: &TokenEvent) -> String {
    Json::Object(vec![
        ("index".to_string(), Json::Number(event.index as f64)),
        ("token".to_string(), Json::Number(event.token as f64)),
    ])
    .to_json()
}

/// Encodes the terminal SSE event payload for a finished request.
pub fn finish_event_json(summary: &FinishSummary) -> String {
    let mut fields = vec![
        (
            "finish".to_string(),
            Json::String(finish_reason_name(&summary.finish).to_string()),
        ),
        ("tokens".to_string(), Json::Number(summary.tokens as f64)),
        (
            "prefill_skipped_tokens".to_string(),
            Json::Number(summary.prefill_skipped_tokens as f64),
        ),
        (
            "preemptions".to_string(),
            Json::Number(summary.preemptions as f64),
        ),
        (
            "swapped_blocks".to_string(),
            Json::Number(summary.swapped_blocks as f64),
        ),
        ("engine".to_string(), Json::String(summary.engine.clone())),
    ];
    if let Some(spec) = &summary.speculative {
        fields.push((
            "speculative".to_string(),
            sparseinfer::stats::speculative_json(spec),
        ));
    }
    match summary.finish {
        FinishReason::Stop(token) => {
            fields.push(("stop_token".to_string(), Json::Number(token as f64)));
        }
        FinishReason::Failed(err) => {
            fields.push(("error".to_string(), Json::String(err.to_string())));
        }
        _ => {}
    }
    Json::Object(fields).to_json()
}

/// Appends `extra` fields to the named object-valued section of `doc`.
///
/// The shared scheduler encoding is the base; the serving-level fields
/// ride along inside its sections rather than forking the schema. Panics
/// if the section is missing or not an object — that would mean the
/// shared serializer changed shape, which this crate's round-trip test
/// catches immediately.
fn append_to_section(doc: &mut Json, section: &str, extra: Vec<(String, Json)>) {
    let Json::Object(sections) = doc else {
        panic!("scheduler stats must encode as an object");
    };
    let Some((_, Json::Object(fields))) = sections.iter_mut().find(|(name, _)| name == section)
    else {
        panic!("scheduler stats must contain an object section `{section}`");
    };
    fields.extend(extra);
}

/// Encodes the `GET /stats` response body.
///
/// The scheduler side is the workspace-wide encoding
/// ([`sparseinfer::stats::scheduler_stats_json`]); the serving-level
/// fields — lifetime `completed`, `draining`, the engine factory's weight
/// format, the KV high-water mark — are appended into the matching
/// sections, so `/stats` consumers and trace-harness reports read one
/// schema.
pub fn stats_json(stats: &StatsSnapshot) -> String {
    let mut doc = sparseinfer::stats::scheduler_stats_json(&stats.scheduler);
    append_to_section(
        &mut doc,
        "scheduler",
        vec![
            (
                "completed".to_string(),
                Json::Number(stats.completed as f64),
            ),
            ("draining".to_string(), Json::Bool(stats.draining)),
        ],
    );
    append_to_section(
        &mut doc,
        "dtype",
        vec![(
            "weights".to_string(),
            Json::String(stats.weight_format.to_string()),
        )],
    );
    append_to_section(
        &mut doc,
        "kv",
        vec![(
            "peak_in_use_bytes".to_string(),
            Json::Number(stats.kv_peak_in_use_bytes as f64),
        )],
    );
    doc.to_json()
}

/// Encodes a one-field error body: `{"error":"..."}`.
pub fn error_json(message: &str) -> String {
    Json::Object(vec![(
        "error".to_string(),
        Json::String(message.to_string()),
    )])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer::sparse::engine::SpeculativeStats;

    #[test]
    fn parses_a_full_generate_body() {
        let params = parse_generate_body(
            r#"{"prompt":[1,2,3],"max_new":32,"stop":[0],"top_k":8,"temperature":0.7,"seed":9,"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(params.request.prompt, vec![1, 2, 3]);
        assert_eq!(params.request.max_new, 32);
        assert_eq!(params.request.stop, vec![0]);
        assert_eq!(
            format!("{:?}", params.request.sampler),
            format!("{:?}", Some(Sampler::top_k(8, 0.7, 9))),
        );
        assert_eq!(params.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn defaults_match_the_library_request_builder() {
        let params = parse_generate_body(r#"{"prompt":[5]}"#).unwrap();
        let library = GenerateRequest::new(&[5]);
        assert_eq!(params.request.max_new, library.max_new);
        assert_eq!(params.request.stop, library.stop);
        assert!(
            params.request.sampler.is_none(),
            "no sampler -> engine greedy"
        );
        assert_eq!(params.deadline, None);
    }

    #[test]
    fn priority_parses_every_class_and_defaults_to_normal() {
        for (name, expected) in [
            ("high", Priority::High),
            ("normal", Priority::Normal),
            ("batch", Priority::Batch),
        ] {
            let body = format!(r#"{{"prompt":[1],"priority":"{name}"}}"#);
            let params = parse_generate_body(&body).unwrap();
            assert_eq!(params.request.priority, expected);
        }
        let params = parse_generate_body(r#"{"prompt":[1]}"#).unwrap();
        assert_eq!(params.request.priority, Priority::Normal);
    }

    #[test]
    fn temperature_without_top_k_selects_softmax_sampling() {
        let params = parse_generate_body(r#"{"prompt":[1],"temperature":0.5,"seed":3}"#).unwrap();
        assert_eq!(
            format!("{:?}", params.request.sampler),
            format!("{:?}", Some(Sampler::temperature(0.5, 3))),
        );
    }

    #[test]
    fn rejects_malformed_bodies_with_messages() {
        for (body, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{}", "missing required field `prompt`"),
            (r#"{"prompt":[]}"#, "non-empty"),
            (r#"{"prompt":"abc"}"#, "`prompt` must be an array"),
            (r#"{"prompt":[1.5]}"#, "token ids (u32)"),
            (r#"{"prompt":[4294967296]}"#, "token ids (u32)"),
            (
                r#"{"prompt":[1],"max_new":0}"#,
                "`max_new` must be at least 1",
            ),
            (r#"{"prompt":[1],"max_new":-3}"#, "non-negative integer"),
            (r#"{"prompt":[1],"temperature":0}"#, "positive number"),
            (r#"{"prompt":[1],"top_k":0}"#, "`top_k` must be at least 1"),
            (r#"{"prompt":[1],"deadline_ms":0}"#, "`deadline_ms`"),
            (r#"{"prompt":[1],"max_mew":4}"#, "unknown field `max_mew`"),
            (
                r#"{"prompt":[1],"priority":"urgent"}"#,
                "`priority` must be one of",
            ),
            (
                r#"{"prompt":[1],"priority":3}"#,
                "`priority` must be one of",
            ),
        ] {
            let err = parse_generate_body(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn event_payloads_round_trip_through_the_json_parser() {
        let token = token_event_json(&TokenEvent {
            index: 3,
            token: 1042,
        });
        let doc = Json::parse(&token).unwrap();
        assert_eq!(doc.get("index").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("token").and_then(Json::as_u64), Some(1042));

        let finish = finish_event_json(&FinishSummary {
            id: 0,
            tokens: 7,
            finish: FinishReason::Stop(2),
            prefill_skipped_tokens: 16,
            preemptions: 2,
            swapped_blocks: 4,
            engine: "dense".to_string(),
            speculative: None,
        });
        let doc = Json::parse(&finish).unwrap();
        assert_eq!(doc.get("finish").and_then(Json::as_str), Some("stop"));
        assert_eq!(doc.get("tokens").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("stop_token").and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.get("prefill_skipped_tokens").and_then(Json::as_u64),
            Some(16)
        );
        assert_eq!(doc.get("preemptions").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("swapped_blocks").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("engine").and_then(Json::as_str), Some("dense"));
        assert!(
            doc.get("speculative").is_none(),
            "non-drafting engines emit no speculative section"
        );
    }

    #[test]
    fn finish_event_reports_speculative_counters_when_present() {
        let finish = finish_event_json(&FinishSummary {
            id: 0,
            tokens: 12,
            finish: FinishReason::MaxTokens,
            prefill_skipped_tokens: 0,
            preemptions: 0,
            swapped_blocks: 0,
            engine: "speculative:sparse:sparseinfer+dense".to_string(),
            speculative: Some(SpeculativeStats {
                drafted: 8,
                accepted: 6,
            }),
        });
        let doc = Json::parse(&finish).unwrap();
        let spec = doc.get("speculative").expect("speculative section");
        assert_eq!(spec.get("drafted").and_then(Json::as_u64), Some(8));
        assert_eq!(spec.get("accepted").and_then(Json::as_u64), Some(6));
        assert_eq!(
            spec.get("acceptance_rate").and_then(Json::as_f64),
            Some(0.75)
        );
    }

    #[test]
    fn finish_reason_names_cover_every_variant() {
        use sparseinfer::sparse::error::EngineError;
        assert_eq!(finish_reason_name(&FinishReason::MaxTokens), "max_tokens");
        assert_eq!(finish_reason_name(&FinishReason::Stop(1)), "stop");
        assert_eq!(finish_reason_name(&FinishReason::Cancelled), "cancelled");
        assert_eq!(
            finish_reason_name(&FinishReason::DeadlineExceeded),
            "deadline_exceeded"
        );
        assert_eq!(
            finish_reason_name(&FinishReason::Failed(EngineError::EmptyPrompt)),
            "failed"
        );
    }

    #[test]
    fn stats_json_parses_back_with_every_section() {
        use sparseinfer::sparse::engine::MemoryEstimate;
        use sparseinfer::sparse::scheduler::SchedulerStats;

        let stats = StatsSnapshot {
            scheduler: SchedulerStats {
                ticks: 37,
                submitted: 14,
                retired: 9,
                queued: 2,
                active_slots: 3,
                reserved_blocks: 11,
                kv_blocks_in_use: 9,
                kv_in_use_bytes: 4608,
                kv_block_budget: usize::MAX,
                kv_dtype: "f16",
                kv_bytes_per_elem: 2,
                memory: MemoryEstimate {
                    shared_bytes: 1024,
                    weight_bytes: 768,
                    per_session_bytes: 2048,
                    swapped_bytes: 512,
                },
                prefix: Default::default(),
                preemption: Default::default(),
                speculative: SpeculativeStats {
                    drafted: 10,
                    accepted: 4,
                },
                prefill_batches: 21,
                prefill_positions: 40,
                mlp_rows_loaded: 5504,
            },
            kv_peak_in_use_bytes: 9216,
            weight_format: "int8",
            completed: 9,
            draining: false,
        };
        let doc = Json::parse(&stats_json(&stats)).unwrap();
        let sched = doc.get("scheduler").unwrap();
        assert_eq!(sched.get("ticks").and_then(Json::as_u64), Some(37));
        assert_eq!(sched.get("queued").and_then(Json::as_u64), Some(2));
        assert_eq!(sched.get("active_slots").and_then(Json::as_u64), Some(3));
        assert_eq!(sched.get("submitted").and_then(Json::as_u64), Some(14));
        assert_eq!(sched.get("retired").and_then(Json::as_u64), Some(9));
        assert_eq!(sched.get("completed").and_then(Json::as_u64), Some(9));
        assert_eq!(sched.get("draining").and_then(Json::as_bool), Some(false));
        let kv = doc.get("kv").unwrap();
        assert_eq!(kv.get("in_use_bytes").and_then(Json::as_u64), Some(4608));
        assert_eq!(
            kv.get("peak_in_use_bytes").and_then(Json::as_u64),
            Some(9216)
        );
        let dtype = doc.get("dtype").expect("dtype section");
        assert_eq!(dtype.get("weights").and_then(Json::as_str), Some("int8"));
        assert_eq!(dtype.get("kv").and_then(Json::as_str), Some("f16"));
        assert_eq!(
            dtype.get("kv_bytes_per_elem").and_then(Json::as_u64),
            Some(2)
        );
        let memory = doc.get("memory").unwrap();
        assert_eq!(memory.get("weight_bytes").and_then(Json::as_u64), Some(768));
        assert_eq!(
            memory.get("per_session_bytes").and_then(Json::as_u64),
            Some(2048)
        );
        assert_eq!(
            memory.get("swapped_bytes").and_then(Json::as_u64),
            Some(512)
        );
        assert!(doc.get("prefix_cache").is_some());
        let spec = doc.get("speculative").expect("speculative section");
        assert_eq!(spec.get("drafted").and_then(Json::as_u64), Some(10));
        assert_eq!(spec.get("accepted").and_then(Json::as_u64), Some(4));
        assert_eq!(
            spec.get("acceptance_rate").and_then(Json::as_f64),
            Some(0.4)
        );
        let preemption = doc.get("preemption").unwrap();
        assert_eq!(
            preemption.get("swapped_bytes").and_then(Json::as_u64),
            Some(0)
        );
    }
}
