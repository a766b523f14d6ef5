//! One run of one workload:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! `--trace 0` measures the end-to-end metrics with no tracing anywhere.
//! `--trace 1` runs the same inputs with spans recorded around every call
//! into the program (after a shorter untraced pass that gives the tracing
//! overhead and a second set of tokens to compare) and reports the
//! per-layer metrics. The last line of standard output is the result.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sparseinfer::model::Model;
use sparseinfer::sparse::request::{generate, GenerateRequest};
use sparseinfer_benchmark::drivers::{run_http, run_scheduler, run_solo, Clock, Outcome, Pacing};
use sparseinfer_benchmark::report::{self, Metrics, END_TO_END, PER_LAYER};
use sparseinfer_benchmark::setup::{self, Built, Engines, SetupTimes};
use sparseinfer_benchmark::stats::{median, percentile};
use sparseinfer_benchmark::trace::{record_cost_ns, summarize, write_jsonl, Tracer};
use sparseinfer_benchmark::workloads::{self, Driver, Request, Spec};
use sparseinfer_benchmark::{probes, verify};

/// Set-ups per run, before and after the timed pass; `setup_s` is the
/// median of all of them. Half a minute apart, the two groups seldom meet
/// the same disturbance of the host.
const SETUPS_BEFORE: usize = 4;
const SETUPS_AFTER: usize = 3;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Appends the result (with workload, seed and mode) to this file.
    out: Option<PathBuf>,
    /// Measures an open-loop workload's capacity instead of running it.
    calibrate: bool,
    /// Smoke run: one set-up and a short accuracy pass.
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut calibrate = false;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                spec = Some(workloads::by_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--calibrate" => calibrate = true,
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mut spec = spec.ok_or("--workload is required")?;
    if quick {
        spec.agreement_prompts = 1;
        spec.agreement_positions = 8;
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        out,
        calibrate,
        quick,
    })
}

/// Where traces, input dumps and results go: `out/` beside this package's
/// manifest, inside the checkout whichever directory the run starts from.
fn out_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn dump_inputs(path: &Path, requests: &[Request]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in requests {
        writeln!(
            file,
            "{{\"id\":{},\"prompt\":{:?},\"max_new\":{},\"priority\":\"{}\",\"due_tick\":{}}}",
            r.id,
            r.prompt,
            r.max_new,
            r.priority.name(),
            r.due_tick
        )?;
    }
    file.flush()
}

/// One timed pass over `requests`, traced when a tracer is given.
fn pass(
    spec: &Spec,
    built: &mut Built,
    requests: &[Request],
    warmup: &[Request],
    seconds: f64,
    clock: Clock,
    tracer: Option<&Tracer>,
) -> Outcome {
    let server = built.server.take();
    let engines = Engines::new(built, tracer.cloned());
    match spec.driver {
        Driver::Solo => {
            // Lazy set-up (workspaces, first-touch pages) is paid once per
            // process, not per request a user sends.
            let _ = generate(
                engines.bare().as_mut(),
                &GenerateRequest::new(&[1, 2]).max_new(2),
            );
            run_solo(&engines, requests, clock, seconds, tracer)
        }
        Driver::SchedulerClosed { .. } | Driver::SchedulerOpen { .. } => {
            let pacing = match spec.driver {
                Driver::SchedulerClosed { clients } => Pacing::Closed { clients },
                _ => Pacing::Open,
            };
            run_scheduler(spec, &engines, requests, pacing, clock, seconds, tracer)
        }
        Driver::Http { clients } => {
            let server = server.unwrap_or_else(|| setup::build_server(spec));
            run_http(
                server, &engines, requests, warmup, clients, clock, seconds, tracer,
            )
            .0
        }
    }
}

/// Hash of the generated MLP weights and of the logits after one fixed
/// prompt: if it changes, the run's *inputs* changed, not its speed.
fn model_checksum(model: &Model) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |values: &[f32]| {
        for v in values {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for layer in model.layers() {
        mix(layer.mlp().w_gate().as_slice());
        mix(layer.mlp().w_up().as_slice());
        mix(layer.mlp().w_down_t().as_slice());
    }
    mix(model.prefill(&[1, 2, 3]).as_slice());
    // 32 bits survive the trip through a JSON number exactly.
    (h >> 32) as f64
}

/// Capacity of the open-loop workload's request mix, in requests per
/// scheduler tick: the same requests in a closed loop with one caller per
/// slot, which keeps every slot busy. The workload's frozen `gap_ticks` is
/// a stated share of what this prints.
fn calibrate(spec: &Spec, seed: u64, seconds: f64) {
    let Driver::SchedulerOpen { gap_ticks } = spec.driver else {
        eprintln!("only the open-loop workload has an arrival gap to calibrate");
        return;
    };
    let requests = workloads::generate(spec, seed, seconds);
    let built = setup::build(spec);
    let engines = Engines::new(&built, None);
    let clock = Clock::new(Instant::now());
    let pacing = Pacing::Closed {
        clients: spec.max_slots,
    };
    let outcome = run_scheduler(spec, &engines, &requests, pacing, clock, seconds, None);
    let finished = outcome.records.iter().filter(|r| r.complete).count();
    let ticks = outcome.kv_samples.len();
    let per_tick = finished as f64 / ticks as f64;
    println!(
        "capacity: {finished} requests in {ticks} ticks = one per {:.1} ticks with {} callers",
        1.0 / per_tick,
        spec.max_slots
    );
    println!(
        "frozen gap of {gap_ticks} ticks offers {:.2} of capacity",
        1.0 / gap_ticks / per_tick
    );
}

fn run(args: &Args) -> std::io::Result<bool> {
    if args.calibrate {
        calibrate(&args.spec, args.seed, args.seconds);
        return Ok(true);
    }
    let spec = &args.spec;
    let out = out_dir()?;
    let requests = workloads::generate(spec, args.seed, args.seconds);
    let warmup = workloads::warmup(spec, args.seed);
    dump_inputs(&out.join(format!("{}.inputs.jsonl", spec.name)), &requests)?;
    if setup::host_cores() < 2 {
        eprintln!(
            "note: 1 core — slot and pool threads fall back to 1; compare only with 1-core runs"
        );
    }

    // Set up several times and keep the last: `setup_s` is a median, and
    // each set-up is dropped before the next so memory does not add up.
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut built = setup::build(spec);
    times.push(built.times);
    for _ in 1..if args.quick { 1 } else { SETUPS_BEFORE } {
        drop(built);
        built = setup::build(spec);
        times.push(built.times);
    }

    let epoch = Instant::now();
    let clock = Clock::new(epoch);
    // A traced run first makes a shorter untraced pass: a second set of
    // tokens for every request both passes get to.
    let traced = args.trace.then(|| {
        let reference_s = (args.seconds / 4.0).max(1.0);
        let reference = pass(
            spec,
            &mut built,
            &requests,
            &warmup,
            reference_s,
            clock,
            None,
        );
        (reference, Tracer::new(epoch))
    });
    let tracer = traced.as_ref().map(|(_, tracer)| tracer);
    let outcome = pass(
        spec,
        &mut built,
        &requests,
        &warmup,
        args.seconds,
        clock,
        tracer,
    );

    // Peak memory is read before the later set-ups build a second model
    // beside the one the run used.
    let peak_rss_mb = report::peak_rss_mb();
    for _ in 0..if args.quick { 0 } else { SETUPS_AFTER } {
        times.push(setup::build(spec).times);
    }
    let part = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());

    let engines = Engines::new(&built, None);
    let mut mismatched: HashSet<usize> =
        verify::mismatched_against_solo(spec, &engines, &requests, &outcome.records)
            .into_iter()
            .collect();
    let mut metrics = Metrics::default();
    if let Some((reference, tracer)) = &traced {
        let spans = tracer.take_spans();
        write_jsonl(
            &spans,
            std::fs::File::create(out.join(format!("trace_{}.jsonl", spec.name)))?,
        )?;
        // The untraced and the traced pass must agree token for token on
        // every request both finished.
        let traced_tokens: HashMap<usize, &[u32]> = outcome
            .records
            .iter()
            .filter(|r| r.complete)
            .map(|r| (r.id, r.tokens.as_slice()))
            .collect();
        mismatched.extend(
            reference
                .records
                .iter()
                .filter(|r| r.complete)
                .filter(|r| traced_tokens.get(&r.id).is_some_and(|t| *t != r.tokens))
                .map(|r| r.id),
        );

        report::from_trace(spec, &requests, &outcome, &spans, &mismatched, &mut metrics);
        probes::run(&built.model, &mut metrics);
        let (skipped, macs, bytes) = verify::op_counts(engines.bare().as_mut());
        metrics.set("sparse.rows_skipped_share", skipped);
        metrics.set("sparse.macs_per_token", macs);
        metrics.set("sparse.weight_bytes_per_token", bytes);
        metrics.set("model.build_s", part(|t| t.build_s));
        metrics.set("engine.quantize_s", part(|t| t.quantize_s));
        metrics.set("harness.model_checksum", model_checksum(&built.model));
        // Two passes of one program differ by several percent here from
        // what the machine does alone, more than tracing costs; so the cost
        // is measured directly: spans recorded × the cost of recording one,
        // over the wall time of the traced pass. The two-pass difference is
        // printed beside it for what it is worth.
        let recording_ns = spans.len() as f64 * record_cost_ns();
        metrics.set(
            "harness.trace_overhead_share",
            recording_ns / (outcome.end_ns - outcome.begin_ns) as f64,
        );
        println!(
            "traced pass {:.1} tokens/s, untraced reference pass {:.1} tokens/s",
            report::tokens_per_s(&outcome),
            report::tokens_per_s(reference)
        );
        for ((layer, name), g) in summarize(&spans) {
            println!(
                "span {layer}.{name}: {} calls, {:.3} ms total, {:.3} ms self",
                g.count,
                g.total_ns as f64 / 1e6,
                g.self_ns as f64 / 1e6
            );
        }
    } else {
        report::end_to_end(spec, &requests, &outcome, &mismatched, &mut metrics);
        let (agreeing, positions) = verify::dense_agreement(spec, &engines);
        metrics.set("dense_agreement_share", agreeing as f64 / positions as f64);
        metrics.set("setup_s", part(SetupTimes::total_s));
        metrics.set("peak_rss_mb", peak_rss_mb);
        let (ttft, itl) = report::timed_latencies(&outcome);
        println!(
            "samples: {} ttft in {} segments, {} itl in {} segments",
            ttft.len(),
            report::segment_medians(&ttft, outcome.window_ns).len(),
            itl.len(),
            report::segment_medians(&itl, outcome.window_ns).len()
        );
        // For the reader, ungated: the medians a disturbed stretch moves.
        let l = report::latencies(&outcome.records);
        println!(
            "whole run: ttft p50 {:.3} ms, itl p50 {:.3} ms",
            percentile(&l.ttft, 0.5),
            percentile(&l.itl, 0.5)
        );
    }

    let attempted = outcome.records.len();
    let failed = outcome
        .records
        .iter()
        .filter(|r| !report::succeeded(r, &requests, &mismatched))
        .count();
    let mut correct = attempted > 0 && failed == 0;
    if !mismatched.is_empty() {
        eprintln!("error: tokens differ from the reference for requests {mismatched:?}");
    }
    if report::backlog_growing(&outcome.outstanding, outcome.window_ns, spec.max_slots) {
        eprintln!("error: the backlog was still growing when the send window closed — latencies describe an overloaded system");
        correct = false;
    }

    let decls = if args.trace { PER_LAYER } else { END_TO_END };
    for d in decls {
        println!("{:<40} {:>16.6} {}", d.name, metrics.get(d.name), d.unit);
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json(decls)
    );
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(
            file,
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {}, \"result\": {result}}}",
            spec.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            setup::host_cores()
        )?;
    }
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--quick] [--calibrate]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
