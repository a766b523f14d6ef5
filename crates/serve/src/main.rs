//! The `sparseinfer-serve` binary: boots a synthetic model and serves it
//! over HTTP until Ctrl-C territory (or, with `--smoke`, runs a built-in
//! end-to-end self-test and exits — the CI smoke step).

use std::process::ExitCode;
use std::sync::Arc;

use sparseinfer::model::generator::WeightGenerator;
use sparseinfer::model::kv::KvDtype;
use sparseinfer::model::{Model, ModelConfig};
use sparseinfer::predictor::AlphaSchedule;
use sparseinfer::sparse::engine::{Engine, EngineBuilder, QuantizedWeights, WeightFormat};
use sparseinfer::sparse::error::EngineError;
use sparseinfer::sparse::scheduler::SchedulerConfig;
use sparseinfer_serve::{Client, Server, ServerConfig};

/// Parsed command line.
struct Args {
    addr: String,
    slots: usize,
    slot_threads: usize,
    connection_threads: usize,
    queue_capacity: usize,
    block_tokens: usize,
    kv_block_budget: usize,
    prefix_cache: bool,
    seed: u64,
    signbit: bool,
    speculate: usize,
    weights: WeightFormat,
    kv: KvDtype,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8765".to_string(),
            slots: 4,
            slot_threads: 1,
            connection_threads: 4,
            queue_capacity: 64,
            block_tokens: 16,
            kv_block_budget: 8192,
            prefix_cache: true,
            seed: 42,
            signbit: false,
            speculate: 0,
            weights: WeightFormat::F32,
            kv: KvDtype::F32,
            smoke: false,
        }
    }
}

const USAGE: &str = "\
sparseinfer-serve — HTTP/1.1 streaming frontend over the continuous-batching scheduler

USAGE:
    sparseinfer-serve [OPTIONS]

OPTIONS:
    --addr <host:port>      bind address (default 127.0.0.1:8765; port 0 = ephemeral)
    --slots <n>             concurrent decode slots (default 4)
    --slot-threads <n>      scheduler worker threads (default 1 = serial)
    --conn-threads <n>      connection-handler threads (default 4)
    --queue <n>             submission queue depth; full => 503 (default 64)
    --block-tokens <n>      KV paging granularity (default 16)
    --kv-budget <n>         KV block budget for admission control (default 8192)
    --no-prefix-cache       disable prompt-prefix sharing
    --seed <n>              synthetic-model weight seed (default 42)
    --signbit               serve the sign-bit sparse engine instead of dense
    --speculate <k>         lossless speculative decoding: sign-bit sparse
                            drafts up to k tokens per step, dense verifies
                            (tokens stay bit-identical to dense decode)
    --weights <f32|int8>    MLP weight format: int8 runs the fused
                            block-dequant kernels over one shared ~4x
                            smaller copy (default f32)
    --kv <f32|f16>          KV cache element type: f16 halves KV memory,
                            attention dequantizes in-loop (default f32)
    --smoke                 run the built-in end-to-end self-test and exit
    --help                  print this help
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.addr = value(&mut it, "--addr")?,
            "--slots" => args.slots = parse_num(&value(&mut it, "--slots")?, "--slots")?,
            "--slot-threads" => {
                args.slot_threads = parse_num(&value(&mut it, "--slot-threads")?, "--slot-threads")?
            }
            "--conn-threads" => {
                args.connection_threads =
                    parse_num(&value(&mut it, "--conn-threads")?, "--conn-threads")?
            }
            "--queue" => args.queue_capacity = parse_num(&value(&mut it, "--queue")?, "--queue")?,
            "--block-tokens" => {
                args.block_tokens = parse_num(&value(&mut it, "--block-tokens")?, "--block-tokens")?
            }
            "--kv-budget" => {
                args.kv_block_budget = parse_num(&value(&mut it, "--kv-budget")?, "--kv-budget")?
            }
            "--no-prefix-cache" => args.prefix_cache = false,
            "--seed" => {
                args.seed = value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--signbit" => args.signbit = true,
            "--speculate" => {
                args.speculate = parse_num(&value(&mut it, "--speculate")?, "--speculate")?
            }
            "--weights" => {
                args.weights = match value(&mut it, "--weights")?.as_str() {
                    "f32" => WeightFormat::F32,
                    "int8" => WeightFormat::Int8,
                    other => return Err(format!("--weights must be f32 or int8, got `{other}`")),
                }
            }
            "--kv" => {
                args.kv = match value(&mut it, "--kv")?.as_str() {
                    "f32" => KvDtype::F32,
                    "f16" => KvDtype::F16,
                    other => return Err(format!("--kv must be f32 or f16, got `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn parse_num(text: &str, flag: &str) -> Result<usize, String> {
    text.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer"))
}

/// Build the engine the CLI flags ask for. `--speculate k` wraps a
/// sign-bit sparse draft around a dense verifier; otherwise `--signbit`
/// picks the sparse engine and the default is dense. With `--weights
/// int8` the served engine (the *draft* in the speculative pairing — the
/// verifier stays f32, preserving the lossless contract) attaches the
/// one `quantized` copy shared across every request.
fn build_engine<'m>(
    model: &'m Model,
    signbit: bool,
    speculate: usize,
    quantized: Option<&Arc<QuantizedWeights>>,
) -> Result<Box<dyn Engine + 'm>, EngineError> {
    let with_format = |mut b: EngineBuilder<'m>| {
        if let Some(q) = quantized {
            b = b.quantized_shared(Arc::clone(q));
        }
        b
    };
    if speculate > 0 {
        let draft =
            with_format(EngineBuilder::new(model).signbit(AlphaSchedule::uniform(1.0))).build()?;
        let verify = EngineBuilder::new(model).build()?;
        EngineBuilder::speculative(draft, verify, speculate)
    } else if signbit {
        with_format(EngineBuilder::new(model).signbit(AlphaSchedule::uniform(1.0))).build()
    } else {
        with_format(EngineBuilder::new(model)).build()
    }
}

fn engine_label(args: &Args) -> String {
    let base = if args.speculate > 0 {
        format!("speculative k={}", args.speculate)
    } else if args.signbit {
        "signbit".to_string()
    } else {
        "dense".to_string()
    };
    format!(
        "{base}, weights={}, kv={}",
        args.weights.label(),
        args.kv.label()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        return smoke(args);
    }

    let model = WeightGenerator::new(&ModelConfig::tiny(), args.seed).build();
    // One INT8 copy quantized up front and shared (Arc) across every
    // request's engine — requests cost no quantization work and the
    // memory estimate deduplicates the bytes.
    let quantized =
        (args.weights == WeightFormat::Int8).then(|| Arc::new(QuantizedWeights::quantize(&model)));
    let server = match Server::bind(server_config(&args)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "sparseinfer-serve listening on http://{} ({} engine, {} slots)",
        server.local_addr(),
        engine_label(&args),
        args.slots,
    );
    eprintln!("POST /v1/generate | GET /healthz | GET /stats");
    let (signbit, speculate) = (args.signbit, args.speculate);
    // The factory borrows `model` (not `move`): the engines it builds
    // must outlive their request, not just the closure call.
    server.serve(&|_req| build_engine(&model, signbit, speculate, quantized.as_ref()));
    ExitCode::SUCCESS
}

fn server_config(args: &Args) -> ServerConfig {
    let scheduler = SchedulerConfig {
        max_slots: args.slots,
        block_tokens: args.block_tokens,
        kv_block_budget: args.kv_block_budget,
        prefix_cache: args.prefix_cache,
        kv_dtype: args.kv,
        ..SchedulerConfig::default()
    };
    if let Err(e) = scheduler.validate() {
        eprintln!("invalid scheduler flags: {e}");
        std::process::exit(2);
    }
    ServerConfig {
        addr: args.addr.clone(),
        scheduler,
        slot_threads: args.slot_threads,
        connection_threads: args.connection_threads,
        queue_capacity: args.queue_capacity,
        weight_format: args.weights,
        ..ServerConfig::default()
    }
}

/// The CI smoke test: boot on an ephemeral port, run a real client over
/// loopback (healthz → one streamed generation → stats), shut down
/// gracefully, and verify the KV pool drained to zero. Exit code is the
/// verdict.
fn smoke(mut args: Args) -> ExitCode {
    // Ephemeral port and no prefix retention, so "drained" means zero.
    args.addr = "127.0.0.1:0".to_string();
    args.prefix_cache = false;
    let model = WeightGenerator::new(&ModelConfig::tiny(), args.seed).build();
    let quantized =
        (args.weights == WeightFormat::Int8).then(|| Arc::new(QuantizedWeights::quantize(&model)));
    let server = match Server::bind(server_config(&args)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("smoke: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = server.handle();
    let addr = handle.addr();
    let speculate = args.speculate;
    let weights_label = args.weights.label();
    let kv_label = args.kv.label();
    let kv_bytes_per_elem = args.kv.bytes_per_elem() as u64;

    let client = std::thread::spawn(move || -> Result<(), String> {
        fn e(what: &'static str) -> impl Fn(std::io::Error) -> String {
            move |err| format!("{what}: {err}")
        }

        let mut probe = Client::connect(addr).map_err(e("connect"))?;
        let health = probe.get("/healthz").map_err(e("GET /healthz"))?;
        if health.status != 200 {
            return Err(format!("healthz returned {}", health.status));
        }

        let stream = Client::connect(addr)
            .map_err(e("connect"))?
            .post_streaming("/v1/generate", r#"{"prompt":[1,2,3],"max_new":8}"#)
            .map_err(e("POST /v1/generate"))?;
        let (tokens, finish) = stream.collect_generation().map_err(e("stream"))?;
        if tokens.len() != 8 {
            return Err(format!("expected 8 tokens, got {}", tokens.len()));
        }
        let reason = finish
            .get("finish")
            .and_then(sparseinfer::json::Json::as_str)
            .unwrap_or("<missing>")
            .to_string();
        if reason != "max_tokens" {
            return Err(format!("expected max_tokens finish, got {reason}"));
        }

        let stats = probe.get("/stats").map_err(e("GET /stats"))?;
        if stats.status != 200 {
            return Err(format!("stats returned {}", stats.status));
        }
        let doc = stats.json().map_err(e("stats body"))?;
        let completed = doc
            .get("scheduler")
            .and_then(|s| s.get("completed"))
            .and_then(sparseinfer::json::Json::as_u64);
        if completed != Some(1) {
            return Err(format!("expected 1 completed request, got {completed:?}"));
        }
        if speculate > 0 {
            let drafted = doc
                .get("speculative")
                .and_then(|s| s.get("drafted"))
                .and_then(sparseinfer::json::Json::as_u64);
            match drafted {
                Some(n) if n > 0 => {}
                other => return Err(format!("expected drafted > 0 in stats, got {other:?}")),
            }
        }

        // The dtype section must reflect the configured formats, with the
        // per-element KV cost showing the f16 halving directly (2 vs 4).
        let dtype = doc.get("dtype").ok_or("stats missing dtype section")?;
        let weights = dtype
            .get("weights")
            .and_then(sparseinfer::json::Json::as_str);
        if weights != Some(weights_label) {
            return Err(format!(
                "dtype.weights: expected {weights_label}, got {weights:?}"
            ));
        }
        let kv = dtype.get("kv").and_then(sparseinfer::json::Json::as_str);
        if kv != Some(kv_label) {
            return Err(format!("dtype.kv: expected {kv_label}, got {kv:?}"));
        }
        let per_elem = dtype
            .get("kv_bytes_per_elem")
            .and_then(sparseinfer::json::Json::as_u64);
        if per_elem != Some(kv_bytes_per_elem) {
            return Err(format!(
                "dtype.kv_bytes_per_elem: expected {kv_bytes_per_elem}, got {per_elem:?}"
            ));
        }
        let peak = doc
            .get("kv")
            .and_then(|s| s.get("peak_in_use_bytes"))
            .and_then(sparseinfer::json::Json::as_u64)
            .unwrap_or(0);
        if peak == 0 {
            return Err("kv.peak_in_use_bytes stayed zero across a generation".to_string());
        }
        if peak % (2 * kv_bytes_per_elem) != 0 {
            return Err(format!(
                "kv.peak_in_use_bytes {peak} is not a whole number of \
                 {kv_bytes_per_elem}-byte K/V pairs"
            ));
        }
        eprintln!(
            "smoke: streamed {} tokens, stats ok (weights={weights_label} kv={kv_label} \
             peak_kv={peak}B)",
            tokens.len()
        );
        Ok(())
    });

    // Serve until the client script finishes, then shut down and drain.
    let watchdog = std::thread::spawn({
        let handle = handle.clone();
        move || {
            let verdict = client.join().expect("client thread panicked");
            handle.shutdown();
            verdict
        }
    });
    let final_stats = server
        .serve(&|_req| build_engine(&model, args.signbit, args.speculate, quantized.as_ref()));

    match watchdog.join().expect("watchdog thread panicked") {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("smoke: FAILED: {msg}");
            return ExitCode::FAILURE;
        }
    }
    if final_stats.scheduler.kv_blocks_in_use != 0 {
        eprintln!(
            "smoke: FAILED: {} KV blocks still in use after drain",
            final_stats.scheduler.kv_blocks_in_use
        );
        return ExitCode::FAILURE;
    }
    eprintln!("smoke: PASSED (pool drained to 0 in-use blocks)");
    ExitCode::SUCCESS
}
