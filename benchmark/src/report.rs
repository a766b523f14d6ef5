//! Metric definitions and their computation from what the drivers saw.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names and
//! units; `/BENCHMARK.json` repeats it for the driver and a unit test keeps
//! the two equal.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::drivers::{Outcome, Record};
use crate::stats::{median, percentile, sort, usable_tail};
use crate::trace::{self_times, union_ns, Span};
use crate::traced_engine::ENGINE_LAYER;
use crate::workloads::{Request, Spec};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` (end-to-end only) is the share of the
/// parent's median by which it may worsen before a change is a regression.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Reported by the untraced run only.
///
/// The three timings are taken per segment of the run and reported for its
/// quiet tenth (see [`quiet_decile`]), and still carry the largest bound
/// the contract allows: on the shared 2-core host this was written on, ten
/// runs of one commit spread (quartile distance over median) 2–21 % on them,
/// and a bound has to be about three times the spread to mean anything.
/// Tail latencies spread 17–29 % and are reported with the per-layer
/// metrics instead (`harness.itl_ms_p95`, `harness.ttft_ms_tail`), ungated.
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ttft_ms_p50", "ms", Lower, 0.25),
    e2e("itl_ms_p50", "ms", Lower, 0.25),
    e2e("tokens_per_s", "1/s", Higher, 0.25),
    e2e("slo_share", "share", Higher, 0.20),
    e2e("dense_agreement_share", "share", Higher, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// What single layers did. Reported by the traced run only; no bounds.
/// A metric of a layer the workload bypasses reads 0.
pub const PER_LAYER: &[Decl] = &[
    layer("tensor.gemv_us", "us", Lower),
    layer("tensor.gemv_gbps", "GB/s", Higher),
    layer("tensor.pack_signs_ns", "ns", Lower),
    layer("tensor.pool_dispatch_us", "us", Lower),
    layer("predictor.predict_us", "us", Lower),
    layer("predictor.predicted_sparsity", "share", Higher),
    layer("predictor.precision", "share", Higher),
    layer("predictor.recall", "share", Higher),
    layer("predictor.sign_bytes", "B", Lower),
    layer("predictor.setup_ms", "ms", Lower),
    layer("sparse.mlp_us", "us", Lower),
    layer("sparse.mlp_q8_us", "us", Lower),
    layer("sparse.dense_mlp_us", "us", Lower),
    layer("sparse.rows_skipped_share", "share", Higher),
    layer("sparse.macs_per_token", "count", Lower),
    layer("sparse.weight_bytes_per_token", "B", Lower),
    layer("model.attention_us_ctx16", "us", Lower),
    layer("model.attention_us_ctx256", "us", Lower),
    layer("model.prefill_ms_per_token", "ms", Lower),
    layer("model.kv_push_ns_f32", "ns", Lower),
    layer("model.kv_push_ns_f16", "ns", Lower),
    layer("model.prefix_lookup_us", "us", Lower),
    layer("model.prefix_publish_us", "us", Lower),
    layer("model.kv_swap_out_us", "us", Lower),
    layer("model.kv_restore_us", "us", Lower),
    layer("model.kv_peak_blocks", "count", Lower),
    layer("model.kv_used_over_reserved", "share", Higher),
    layer("model.build_s", "s", Lower),
    layer("engine.decode_ms_per_token_p50", "ms", Lower),
    layer("engine.decode_ms_per_token_p95", "ms", Lower),
    layer("engine.calls", "count", Lower),
    layer("engine.positions", "count", Higher),
    layer("engine.busy_share", "share", Higher),
    layer("engine.quantize_s", "s", Lower),
    layer("engine.sim7b_dense_ms_per_token", "ms", Lower),
    layer("engine.sim7b_sparse_ms_per_token", "ms", Lower),
    layer("scheduler.tick_ms_p50", "ms", Lower),
    layer("scheduler.tick_ms_p95", "ms", Lower),
    layer("scheduler.tick_other_us", "us", Lower),
    layer("scheduler.submit_us", "us", Lower),
    layer("scheduler.queue_wait_ms_p50", "ms", Lower),
    layer("scheduler.queue_wait_ms_p95", "ms", Lower),
    layer("scheduler.batch_size_mean", "count", Higher),
    layer("scheduler.prefix_hit_token_share", "share", Higher),
    layer("scheduler.preemptions", "count", Lower),
    layer("scheduler.swap_outs", "count", Lower),
    layer("scheduler.replays", "count", Lower),
    layer("serve.ingress_ms_p50", "ms", Lower),
    layer("serve.egress_ms_p50", "ms", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.sse_encode_us", "us", Lower),
    layer("serve.refused", "count", Lower),
    layer("serve.bind_ms", "ms", Lower),
    layer("harness.sent", "count", Higher),
    layer("harness.succeeded", "count", Higher),
    layer("harness.failed", "count", Lower),
    layer("harness.itl_ms_p95", "ms", Lower),
    layer("harness.ttft_ms_tail", "ms", Lower),
    layer("harness.ttft_tail_percentile", "share", Higher),
    layer("harness.generator_lag_ms_p95", "ms", Lower),
    layer("harness.trace_overhead_share", "share", Lower),
    layer("harness.model_checksum", "count", Lower),
];

/// Values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under a declared name.
    ///
    /// # Panics
    ///
    /// Panics on a name neither list declares: a typo must not become a
    /// silently missing metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric `{name}` is not declared in report.rs"
        );
        self.values.insert(name, value);
    }

    /// The value recorded under `name`; 0 when nothing was (a layer the
    /// workload bypasses) or the value is not finite.
    pub fn get(&self, name: &str) -> f64 {
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        self.values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .map_or(0.0, |v| v + 0.0)
    }

    /// `"name": {"value": v, "unit": "u"}` for every metric of `decls`.
    pub fn to_json(&self, decls: &[Decl]) -> String {
        let fields: Vec<String> = decls
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    self.get(d.name),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A record is good when it finished with its whole budget and its tokens
/// passed every check.
pub fn succeeded(record: &Record, requests: &[Request], mismatched: &HashSet<usize>) -> bool {
    record.complete
        && record.tokens.len() == requests[record.id].max_new
        && record.token_ns.len() == record.tokens.len()
        && !mismatched.contains(&record.id)
}

/// Latency samples of one run, sorted ascending, in milliseconds.
#[derive(Debug, Default)]
pub struct Latencies {
    pub ttft: Vec<f64>,
    pub itl: Vec<f64>,
}

pub fn latencies(records: &[Record]) -> Latencies {
    let mut l = Latencies::default();
    for r in records {
        if let Some(&first) = r.token_ns.first() {
            l.ttft.push(ms(first.saturating_sub(r.start_ns)));
        }
        l.itl.extend(r.token_ns.windows(2).map(|w| ms(w[1] - w[0])));
    }
    sort(&mut l.ttft);
    sort(&mut l.itl);
    l
}

/// Shortest segment a run's send window is cut into.
const SEGMENT_NS: u64 = 1_000_000_000;
/// Samples a segment must hold on average, or the window is cut into fewer
/// and longer segments: latencies for a median, tokens for a rate.
const LATENCIES_PER_SEGMENT: usize = 4;
const TOKENS_PER_SEGMENT: usize = 100;

/// How many equal segments a window holding `samples` is cut into: one per
/// whole second, fewer when that would leave a segment under `per_segment`
/// samples on average, never less than one.
pub fn segment_count(samples: usize, window_ns: u64, per_segment: usize) -> usize {
    let seconds = (window_ns / SEGMENT_NS) as usize;
    (samples / per_segment).min(seconds).max(1)
}

/// The segment a sample taken `at_ns` into the window falls in.
fn segment_of(at_ns: u64, window_ns: u64, segments: usize) -> usize {
    (u128::from(at_ns) * segments as u128 / u128::from(window_ns)) as usize
}

/// The value one tenth of the way into the per-segment values, counted
/// from the better end and rounded towards it (the second-best of twenty
/// to twenty-nine segments, the best of fewer): what the run measured in
/// its quiet tenth.
///
/// The host this runs on is shared, and what its neighbours do only ever
/// adds time — by a third, for seconds and sometimes for most of a minute
/// (README.md, *What this host can and cannot measure*). A median over
/// the whole run lands on either side of such a stretch from one run to
/// the next; the quiet tenth of the run reads the same as long as two of
/// its seconds were quiet. The price: a program that itself stalls for
/// part of every run hides that here, and shows it only in the tail
/// metrics and in `slo_share`.
pub fn quiet_decile(mut per_segment: Vec<f64>, better: Better) -> f64 {
    if per_segment.is_empty() {
        return 0.0;
    }
    sort(&mut per_segment);
    if better == Better::Higher {
        per_segment.reverse();
    }
    per_segment[(per_segment.len() / 10).max(1) - 1]
}

/// One latency sample: `(nanoseconds into the send window, milliseconds)`.
pub type Timed = (u64, f64);

/// Median per segment of timed samples; samples past the window (the
/// drain) and empty segments are left out.
pub fn segment_medians(samples: &[Timed], window_ns: u64) -> Vec<f64> {
    let inside = || samples.iter().filter(|(at, _)| *at < window_ns);
    let n = segment_count(inside().count(), window_ns, LATENCIES_PER_SEGMENT);
    let mut segments = vec![Vec::new(); n];
    for &(at, value) in inside() {
        segments[segment_of(at, window_ns, n)].push(value);
    }
    segments
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect()
}

/// First-token and between-token latency samples of one run: a first token
/// counts where its request became due, a gap between tokens where it
/// ended.
pub fn timed_latencies(outcome: &Outcome) -> (Vec<Timed>, Vec<Timed>) {
    let into = |ns: u64| ns.saturating_sub(outcome.begin_ns);
    let mut ttft = Vec::new();
    let mut itl = Vec::new();
    for r in &outcome.records {
        if let Some(&first) = r.token_ns.first() {
            ttft.push((into(r.start_ns), ms(first.saturating_sub(r.start_ns))));
        }
        itl.extend(r.token_ns.windows(2).map(|w| (into(w[1]), ms(w[1] - w[0]))));
    }
    (ttft, itl)
}

/// Output tokens that reached a caller per second, in the send window's
/// quiet tenth: the window is cut where requests completed (every k-th
/// completion, k chosen so that a stretch is about a segment long), each
/// stretch gives tokens delivered over its length, and the rate at the
/// upper decile of the stretches is the run's. The drain after the window
/// is excluded.
///
/// Cutting at completions rather than on the clock keeps a workload that
/// delivers in bursts — `long_prompt`: eight tokens, then most of a second
/// of prefill — from reading a burst more or less depending on where a
/// boundary fell.
pub fn tokens_per_s(outcome: &Outcome) -> f64 {
    let window_ns = outcome.window_ns;
    let inside = |ns: &u64| Some(ns.saturating_sub(outcome.begin_ns)).filter(|&at| at < window_ns);
    let mut tokens: Vec<u64> = outcome
        .records
        .iter()
        .flat_map(|r| &r.token_ns)
        .filter_map(inside)
        .collect();
    tokens.sort_unstable();
    let mut completions: Vec<u64> = outcome
        .records
        .iter()
        .filter(|r| r.complete)
        .filter_map(|r| r.token_ns.last().and_then(inside))
        .collect();
    completions.sort_unstable();
    let segments = segment_count(tokens.len(), window_ns, TOKENS_PER_SEGMENT);
    let per_stretch = completions.len().div_ceil(segments).max(1);
    let mut rates = Vec::with_capacity(segments);
    let (mut from, mut counted) = (0u64, 0usize);
    for stretch in completions.chunks_exact(per_stretch) {
        let to = stretch[per_stretch - 1];
        let upto = tokens.partition_point(|&at| at <= to);
        if to > from {
            rates.push((upto - counted) as f64 / ((to - from) as f64 / 1e9));
        }
        (from, counted) = (to, upto);
    }
    if rates.is_empty() {
        // Nothing completed inside the window: what was delivered over it.
        return tokens.len() as f64 / (window_ns as f64 / 1e9);
    }
    quiet_decile(rates, Better::Higher)
}

/// The latency-derived end-to-end metrics of the untraced run.
pub fn end_to_end(
    spec: &Spec,
    requests: &[Request],
    outcome: &Outcome,
    mismatched: &HashSet<usize>,
    metrics: &mut Metrics,
) {
    let (ttft, itl) = timed_latencies(outcome);
    let quiet =
        |samples: &[Timed]| quiet_decile(segment_medians(samples, outcome.window_ns), Lower);
    metrics.set("ttft_ms_p50", quiet(&ttft));
    metrics.set("itl_ms_p50", quiet(&itl));
    metrics.set("tokens_per_s", tokens_per_s(outcome));
    // A request meets the limits when its first token and its mean gap
    // between tokens both do; a failed or refused request meets nothing.
    let met = outcome
        .records
        .iter()
        .filter(|r| succeeded(r, requests, mismatched))
        .filter(|r| {
            let ttft = ms(r.token_ns[0].saturating_sub(r.start_ns));
            let gaps = (r.token_ns.len() - 1).max(1) as f64;
            let tpot = ms(r.token_ns[r.token_ns.len() - 1] - r.token_ns[0]) / gaps;
            ttft <= spec.slo_ttft_ms && tpot <= spec.slo_itl_ms
        })
        .count();
    metrics.set(
        "slo_share",
        met as f64 / outcome.records.len().max(1) as f64,
    );
}

/// Whether an open loop's backlog is still growing when its send window
/// closes: the mean number of requests outstanding over the last quarter
/// of the window exceeds the second quarter's by more than two full sets
/// of slots. (At a rate the system keeps up with, the count hovers; past
/// capacity it climbs for as long as requests keep coming.)
pub fn backlog_growing(outstanding: &[(u64, usize)], window_ns: u64, max_slots: usize) -> bool {
    let mean_in = |from: u64, to: u64| {
        let inside: Vec<usize> = outstanding
            .iter()
            .filter(|(t, _)| (from..to).contains(t))
            .map(|&(_, n)| n)
            .collect();
        inside.iter().sum::<usize>() as f64 / inside.len().max(1) as f64
    };
    let q = window_ns / 4;
    mean_in(3 * q, window_ns + 1) - mean_in(q, 2 * q) > (2 * max_slots) as f64
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics that come from the traced run's spans, records
/// and counters (the probes add theirs separately).
pub fn from_trace(
    spec: &Spec,
    requests: &[Request],
    outcome: &Outcome,
    spans: &[Span],
    mismatched: &HashSet<usize>,
    metrics: &mut Metrics,
) {
    let wall_ns = outcome.end_ns - outcome.begin_ns;
    let selfs = self_times(spans);
    let pick = |layer: &str, name: &str| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .collect()
    };
    let sorted_ms = |spans: &[&Span]| {
        let mut v: Vec<f64> = spans.iter().map(|s| ms(s.dur_ns())).collect();
        sort(&mut v);
        v
    };

    let engine: Vec<&Span> = spans.iter().filter(|s| s.layer == ENGINE_LAYER).collect();
    let mut per_token: Vec<f64> = engine
        .iter()
        .map(|s| ms(s.dur_ns()) / f64::from(s.count.max(1)))
        .collect();
    sort(&mut per_token);
    metrics.set(
        "engine.decode_ms_per_token_p50",
        percentile(&per_token, 0.5),
    );
    metrics.set(
        "engine.decode_ms_per_token_p95",
        percentile(&per_token, 0.95),
    );
    metrics.set("engine.calls", engine.len() as f64);
    metrics.set(
        "engine.positions",
        engine.iter().map(|s| f64::from(s.count)).sum(),
    );
    // Share of the run during which at least one engine call was running:
    // what a faster kernel can shorten at most.
    let mut intervals: Vec<(u64, u64)> = engine.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    metrics.set(
        "engine.busy_share",
        union_ns(&mut intervals) as f64 / wall_ns.max(1) as f64,
    );

    let ticks = pick("scheduler", "tick");
    if !ticks.is_empty() {
        let durations = sorted_ms(&ticks);
        metrics.set("scheduler.tick_ms_p50", percentile(&durations, 0.5));
        metrics.set("scheduler.tick_ms_p95", percentile(&durations, 0.95));
        // Tick time not inside any engine call: admission, prefix lookup
        // and publish, delivery, retirement — and prefill, which runs
        // through the bare model and cannot be told apart from outside.
        let other: u64 = ticks.iter().map(|s| selfs[&s.id]).sum();
        metrics.set(
            "scheduler.tick_other_us",
            other as f64 / 1e3 / ticks.len() as f64,
        );
        metrics.set(
            "scheduler.batch_size_mean",
            ticks.iter().map(|s| f64::from(s.count)).sum::<f64>() / ticks.len() as f64,
        );
    }
    let submits = pick("scheduler", "submit");
    if !submits.is_empty() {
        let total: u64 = submits.iter().map(|s| s.dur_ns()).sum();
        metrics.set(
            "scheduler.submit_us",
            total as f64 / 1e3 / submits.len() as f64,
        );
    }
    let mut waits: Vec<f64> = outcome
        .records
        .iter()
        .filter_map(|r| Some(ms(r.admitted_ns?.saturating_sub(r.sent_ns))))
        .collect();
    sort(&mut waits);
    metrics.set("scheduler.queue_wait_ms_p50", percentile(&waits, 0.5));
    metrics.set("scheduler.queue_wait_ms_p95", percentile(&waits, 0.95));
    let prompt_tokens: usize = outcome.records.iter().map(|r| r.prompt_tokens).sum();
    let skipped: usize = outcome.records.iter().map(|r| r.prefill_skipped).sum();
    metrics.set(
        "scheduler.prefix_hit_token_share",
        skipped as f64 / prompt_tokens.max(1) as f64,
    );
    if let Some(stats) = &outcome.scheduler {
        metrics.set("scheduler.preemptions", stats.preemption.preemptions as f64);
        metrics.set("scheduler.swap_outs", stats.preemption.swapped_out as f64);
        metrics.set("scheduler.replays", stats.preemption.recomputed as f64);
    }

    let peak = outcome.kv_samples.iter().map(|&(used, _)| used).max();
    metrics.set("model.kv_peak_blocks", peak.unwrap_or(0) as f64);
    let ratios: Vec<f64> = outcome
        .kv_samples
        .iter()
        .filter(|&&(_, reserved)| reserved > 0)
        .map(|&(used, reserved)| used as f64 / reserved as f64)
        .collect();
    metrics.set(
        "model.kv_used_over_reserved",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );

    // Client send → the server asked for the request's engine: socket,
    // HTTP parse, JSON parse.
    let mut ingress: Vec<f64> = outcome
        .records
        .iter()
        .filter_map(|r| Some(ms(r.factory_ns?.saturating_sub(r.sent_ns))))
        .collect();
    sort(&mut ingress);
    metrics.set("serve.ingress_ms_p50", percentile(&ingress, 0.5));
    // The engine call that produced token i returned → the client read
    // event i: the rest of the tick, the owner's channel, SSE encoding,
    // the socket, the client's parse. Token 0 is sampled a tick after its
    // logits, with no engine call of its own, so it is left out.
    let mut engine_ends: HashMap<i64, Vec<u64>> = HashMap::new();
    for s in &engine {
        engine_ends.entry(s.request).or_default().push(s.end_ns);
    }
    let mut egress: Vec<f64> = Vec::new();
    if outcome.records.iter().any(|r| r.factory_ns.is_some()) {
        for r in &outcome.records {
            if let Some(ends) = engine_ends.get(&(r.id as i64)) {
                egress.extend(
                    r.token_ns
                        .iter()
                        .zip(ends)
                        .skip(1)
                        .map(|(&read, &end)| ms(read.saturating_sub(end))),
                );
            }
        }
    }
    sort(&mut egress);
    metrics.set("serve.egress_ms_p50", percentile(&egress, 0.5));
    metrics.set("serve.refused", outcome.refused as f64);

    let l = latencies(&outcome.records);
    let tail = usable_tail(l.ttft.len(), spec.ttft_tail);
    metrics.set("harness.itl_ms_p95", percentile(&l.itl, 0.95));
    metrics.set("harness.ttft_ms_tail", percentile(&l.ttft, tail));
    metrics.set("harness.ttft_tail_percentile", tail);
    let good = outcome
        .records
        .iter()
        .filter(|r| succeeded(r, requests, mismatched))
        .count();
    metrics.set("harness.sent", outcome.records.len() as f64);
    metrics.set("harness.succeeded", good as f64);
    metrics.set("harness.failed", (outcome.records.len() - good) as f64);
    let mut lag: Vec<f64> = outcome
        .records
        .iter()
        .map(|r| ms(r.sent_ns.saturating_sub(r.start_ns)))
        .collect();
    sort(&mut lag);
    metrics.set("harness.generator_lag_ms_p95", percentile(&lag, 0.95));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An open loop sending every 10 ms for 10 s; `outstanding(t)` says
    /// how many requests are unfinished at time `t` seconds.
    fn samples(outstanding: impl Fn(f64) -> f64) -> Vec<(u64, usize)> {
        (0..1000u64)
            .map(|i| {
                (
                    i * 10_000_000,
                    outstanding(i as f64 / 100.0).round() as usize,
                )
            })
            .collect()
    }

    #[test]
    fn a_hovering_backlog_is_not_growing_and_a_climbing_one_is() {
        let window = 10_000_000_000;
        // Keeping up: a few requests in flight, bursts come and go.
        assert!(!backlog_growing(
            &samples(|t| 3.0 + 2.0 * (t * 3.0).sin()),
            window,
            4
        ));
        // A burst early in the window that drains again.
        assert!(!backlog_growing(
            &samples(|t| if t < 3.0 { 12.0 } else { 3.0 }),
            window,
            4
        ));
        // 10% past capacity at 20 requests/s: two more unfinished every second.
        assert!(backlog_growing(&samples(|t| 3.0 + 2.0 * t), window, 4));
        assert!(!backlog_growing(&[], window, 4));
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_late_send() {
        // Due at 1 ms, sent 4 ms late, first token at 9 ms: the caller
        // waited 8 ms, and the generator's lag is part of it.
        let record = Record {
            start_ns: 1_000_000,
            sent_ns: 5_000_000,
            token_ns: vec![9_000_000, 11_000_000, 14_000_000],
            ..Record::default()
        };
        let l = latencies(std::slice::from_ref(&record));
        assert_eq!(l.ttft, vec![8.0]);
        assert_eq!(l.itl, vec![2.0, 3.0]);
    }

    #[test]
    fn throughput_counts_only_tokens_inside_the_window() {
        let outcome = Outcome {
            begin_ns: 1_000,
            window_ns: 2_000_000_000,
            records: vec![Record {
                token_ns: vec![500_001_000, 1_600_001_000, 2_500_000_000],
                ..Record::default()
            }],
            ..Outcome::default()
        };
        // Two tokens in a 2 s window, nothing completed in it; the third
        // arrived after the window closed.
        assert_eq!(tokens_per_s(&outcome), 1.0);
    }

    #[test]
    fn throughput_of_bursty_delivery_does_not_depend_on_where_the_clock_cuts() {
        // A request completes every 400 ms, its 8 tokens 4 ms apart at the
        // end; the host slows the run's first and last seconds down by a
        // third.
        let window = 20_000_000_000u64;
        let run = |offset_ns: u64| {
            let mut at = offset_ns;
            let mut records = Vec::new();
            while at < window + 1_000_000_000 {
                let slow = !(3_000_000_000..17_000_000_000).contains(&at);
                at += if slow { 532_000_000 } else { 400_000_000 };
                records.push(Record {
                    token_ns: (0..8).map(|i| at - (7 - i) * 4_000_000).collect(),
                    complete: true,
                    ..Record::default()
                });
            }
            tokens_per_s(&Outcome {
                window_ns: window,
                records,
                ..Outcome::default()
            })
        };
        for offset in [0, 90_000_000, 333_000_000] {
            assert!((run(offset) - 20.0).abs() < 1e-9, "{}", run(offset));
        }
    }

    #[test]
    fn a_window_is_cut_into_seconds_unless_samples_are_too_few() {
        let s = 1_000_000_000;
        assert_eq!(segment_count(5000, 20 * s, 4), 20);
        assert_eq!(segment_count(49, 20 * s, 4), 12);
        assert_eq!(segment_count(3, 20 * s, 4), 1);
        assert_eq!(segment_count(5000, s / 2, 4), 1);
        // The last nanosecond of the window belongs to the last segment.
        assert_eq!(segment_of(20 * s - 1, 20 * s, 20), 19);
        assert_eq!(segment_of(0, 20 * s, 20), 0);
    }

    /// A 20 s run with 40 latency samples a second, the host slowing
    /// `slow` of its seconds down by a third.
    fn run_with_slow_seconds(slow: &[u64]) -> Vec<Timed> {
        (0..800u64)
            .map(|i| {
                let at = i * 25_000_000;
                let second = at / 1_000_000_000;
                // The program's own spread: 9.5 to 10.5 ms, evenly, the
                // same in every second.
                let own = 9.5 + (i % 8) as f64 / 7.0;
                let host = if slow.contains(&second) { 1.35 } else { 1.0 };
                (at, own * host)
            })
            .collect()
    }

    #[test]
    fn the_quiet_tenth_reads_the_same_whether_or_not_the_host_had_slow_stretches() {
        let window = 20_000_000_000;
        let quiet = |samples: &[Timed]| quiet_decile(segment_medians(samples, window), Lower);
        let calm = quiet(&run_with_slow_seconds(&[]));
        // Slow for 17 of 20 seconds: the median of the whole run moves by
        // a third, the quiet tenth does not.
        let slow: Vec<u64> = (0..20).filter(|s| ![7, 8, 15].contains(s)).collect();
        let noisy = run_with_slow_seconds(&slow);
        assert_eq!(quiet(&noisy), calm);
        let mut all: Vec<f64> = noisy.iter().map(|&(_, v)| v).collect();
        sort(&mut all);
        assert!(percentile(&all, 0.5) > 1.2 * calm);
        // Slow throughout: there is no quiet second to find.
        let every: Vec<u64> = (0..20).collect();
        assert!(quiet(&run_with_slow_seconds(&every)) > 1.3 * calm);
        // Samples from the drain after the window are not counted.
        let mut drained = run_with_slow_seconds(&[]);
        drained.push((window + 5, 0.001));
        assert_eq!(quiet(&drained), calm);
    }

    #[test]
    fn the_quiet_tenth_counts_from_the_better_end() {
        let v: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        assert_eq!(quiet_decile(v.clone(), Lower), 2.0);
        assert_eq!(quiet_decile(v, Higher), 24.0);
        // Fewer than twenty segments: the best one.
        assert_eq!(quiet_decile(vec![5.0, 1.0, 4.0], Lower), 1.0);
        assert_eq!(quiet_decile(vec![3.0], Higher), 3.0);
        assert_eq!(quiet_decile(Vec::new(), Lower), 0.0);
    }

    /// `/BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program reports. They must say the same.
    #[test]
    fn benchmark_json_lists_exactly_the_declared_metrics_and_workloads() {
        use sparseinfer::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, f64)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                    (text("name"), text("unit"), text("better"), bound)
                })
                .collect()
        };
        let declared = |decls: &[Decl]| -> Vec<(String, String, String, f64)> {
            decls
                .iter()
                .map(|d| {
                    (
                        d.name.into(),
                        d.unit.into(),
                        d.better.name().into(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(END_TO_END));
        assert_eq!(listed("per_layer"), declared(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let specs: Vec<&str> = crate::workloads::ALL.iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);
    }

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
