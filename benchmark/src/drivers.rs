//! The load drivers: one caller through `generate_streaming`, the library
//! `Scheduler` in a closed or an open loop, and keep-alive clients against
//! an in-process HTTP server. Each returns what it saw per request; none
//! computes a metric.
//!
//! The untraced and the traced run execute the same driver code: with a
//! tracer the drivers additionally record spans around their calls into
//! the program.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sparseinfer::json::Json;
use sparseinfer::sparse::request::{generate_streaming, FinishReason, GenerateRequest, Priority};
use sparseinfer::sparse::scheduler::{Scheduler, SchedulerStats};
use sparseinfer::tensor::ParallelOptions;
use sparseinfer_serve::{Client, Server, StatsSnapshot};

use crate::setup::{scheduler_config, slot_threads, Engines};
use crate::trace::{SpanBuf, Tracer, NO_REQUEST, NO_SPAN};
use crate::workloads::{Request, Spec};

/// The run's clock: nanoseconds since one epoch shared with the tracer.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// What the driver saw of one request it sent.
#[derive(Debug, Clone, Default)]
pub struct Record {
    pub id: usize,
    /// When latency starts counting: when the request became due, which
    /// is before the driver got around to sending it (so the driver's own
    /// delay is charged to the request, not hidden).
    pub start_ns: u64,
    /// When the request was actually handed to the program.
    pub sent_ns: u64,
    /// Arrival time of each output token at the caller.
    pub token_ns: Vec<u64>,
    pub tokens: Vec<u32>,
    /// Finished with its full token budget (no request here has a stop
    /// token, so anything else is a failure).
    pub complete: bool,
    pub prompt_tokens: usize,
    pub prefill_skipped: usize,
    /// Start of the tick that admitted it (scheduler drivers).
    pub admitted_ns: Option<u64>,
    /// When the server's connection thread asked for its engine (HTTP).
    pub factory_ns: Option<u64>,
}

/// Everything one timed run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One record per request sent, in send order.
    pub records: Vec<Record>,
    /// Start of the send window, its length, and when the last request
    /// sent in it had finished.
    pub begin_ns: u64,
    pub window_ns: u64,
    pub end_ns: u64,
    /// Requests the program refused (submit error, HTTP 503).
    pub refused: usize,
    /// Final scheduler counters.
    pub scheduler: Option<SchedulerStats>,
    /// KV pool samples, one per tick: `(blocks in use, blocks reserved)`.
    pub kv_samples: Vec<(usize, usize)>,
    /// Scheduler drivers: `(time into the window, requests sent and not
    /// finished)` at every send.
    pub outstanding: Vec<(u64, usize)>,
}

fn generate_request(req: &Request) -> GenerateRequest {
    GenerateRequest::new(&req.prompt)
        .max_new(req.max_new)
        .priority(req.priority)
}

fn new_record(req: &Request, start_ns: u64, sent_ns: u64) -> Record {
    Record {
        id: req.id,
        start_ns,
        sent_ns,
        token_ns: Vec::with_capacity(req.max_new),
        prompt_tokens: req.prompt.len(),
        ..Record::default()
    }
}

/// One caller, one request at a time, straight through the request layer.
pub fn run_solo(
    engines: &Engines<'_>,
    requests: &[Request],
    clock: Clock,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Outcome {
    let mut buf = tracer.map(Tracer::buf);
    let begin = clock.now_ns();
    let window_ns = (seconds * 1e9) as u64;
    let mut records = Vec::new();
    for req in requests {
        if clock.now_ns() - begin >= window_ns {
            break;
        }
        let mut engine = engines.for_request(req.id);
        let span = buf.as_ref().map(SpanBuf::open_as_parent);
        let start = clock.now_ns();
        let mut record = new_record(req, start, start);
        let result = generate_streaming(engine.as_mut(), &generate_request(req), |_| {
            record.token_ns.push(clock.now_ns());
        });
        let end = clock.now_ns();
        drop(engine);
        if let (Some(buf), Some(id)) = (buf.as_mut(), span) {
            let emitted = record.token_ns.len() as u32;
            buf.close(
                id,
                NO_SPAN,
                req.id as i64,
                "request",
                "generate_streaming",
                start,
                end,
                emitted,
            );
        }
        if let Ok(generation) = result {
            record.complete = generation.finish == FinishReason::MaxTokens;
            record.tokens = generation.tokens;
        }
        records.push(record);
    }
    Outcome {
        records,
        begin_ns: begin,
        window_ns,
        end_ns: clock.now_ns(),
        ..Outcome::default()
    }
}

/// When the scheduler loop may send its next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// `clients` callers, each sending its next request when its last one
    /// finished, until the window closes.
    Closed { clients: usize },
    /// Every request on its `due_tick`, whether or not earlier ones have
    /// finished, until the window closes.
    ///
    /// The arrival clock is the scheduler's tick count, not the wall
    /// clock: which requests overlap, queue and preempt each other is then
    /// the same in every run of one seed, and the wall-clock latencies
    /// differ only by how fast the machine ran the ticks. A wall-clock
    /// schedule at the same load put the median gap between tokens on the
    /// edge between "two slots live" and "three slots live", where it
    /// moved by a third between two runs of one seed. The price: a program
    /// that gets slower is offered proportionally less load, so this loop
    /// shows what a tick costs under queueing, not how queues grow when
    /// capacity falls.
    Open,
}

/// The library `Scheduler`, submitted to and ticked from this one thread —
/// the shape of a serving loop that owns its scheduler.
pub fn run_scheduler(
    spec: &Spec,
    engines: &Engines<'_>,
    requests: &[Request],
    pacing: Pacing,
    clock: Clock,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Outcome {
    let mut scheduler = Scheduler::new(scheduler_config(spec));
    let threads = slot_threads(spec);
    if threads > 1 {
        scheduler = scheduler.parallel(ParallelOptions::threads(threads));
    }
    let mut buf = tracer.map(Tracer::buf);
    let begin = clock.now_ns();
    let window_ns = (seconds * 1e9) as u64;
    let mut out = Outcome {
        begin_ns: begin,
        window_ns,
        ..Outcome::default()
    };
    // Scheduler ids are handed out per accepted submit, in order.
    let mut record_of_id: Vec<usize> = Vec::new();
    let mut tick_start_ns: Vec<u64> = Vec::new();
    let mut next = 0usize;
    let mut in_flight = 0usize;
    // The arrival clock of the open loop: ticks run, plus the idle
    // stretches skipped when nothing was live.
    let mut arrival_tick = 0u64;
    loop {
        // Everything due now became due at the top of this round; what it
        // then waits for its turn at `submit` is the generator's lag.
        let round_ns = clock.now_ns();
        let open = round_ns - begin < window_ns;
        while let Some(req) = requests.get(next).filter(|_| open) {
            let due = match pacing {
                Pacing::Closed { clients } => in_flight < clients,
                Pacing::Open => req.due_tick <= arrival_tick,
            };
            if !due {
                break;
            }
            next += 1;
            let engine = engines.for_request(req.id);
            let sent = clock.now_ns();
            let submitted = scheduler.submit(engine, &generate_request(req));
            if let Some(buf) = buf.as_mut() {
                buf.record(
                    NO_SPAN,
                    req.id as i64,
                    "scheduler",
                    "submit",
                    sent,
                    clock.now_ns(),
                    1,
                );
            }
            match submitted {
                Ok(handle) => {
                    debug_assert_eq!(handle.id(), record_of_id.len());
                    record_of_id.push(out.records.len());
                    in_flight += 1;
                }
                Err(_) => out.refused += 1,
            }
            out.records.push(new_record(req, round_ns, sent));
            out.outstanding.push((round_ns - begin, in_flight));
        }
        if in_flight == 0 {
            match requests.get(next).filter(|_| open) {
                // Nothing live: the ticks until the next arrival would do
                // no work, so they are skipped rather than run.
                Some(req) => {
                    arrival_tick = arrival_tick.max(req.due_tick);
                    continue;
                }
                None => break,
            }
        }
        let span = buf.as_ref().map(SpanBuf::open_as_parent);
        let tick_start = clock.now_ns();
        tick_start_ns.push(tick_start);
        let live = scheduler.active_slots();
        scheduler.tick(|event| {
            out.records[record_of_id[event.request]]
                .token_ns
                .push(clock.now_ns());
        });
        arrival_tick += 1;
        if let (Some(buf), Some(id)) = (buf.as_mut(), span) {
            buf.close(
                id,
                NO_SPAN,
                NO_REQUEST,
                "scheduler",
                "tick",
                tick_start,
                clock.now_ns(),
                live as u32,
            );
        }
        out.kv_samples.push((
            scheduler.kv_pool().blocks_in_use(),
            scheduler.reserved_blocks(),
        ));
        for finished in scheduler.take_finished() {
            in_flight -= 1;
            let record = &mut out.records[record_of_id[finished.id]];
            record.complete = finished.finish == FinishReason::MaxTokens;
            record.tokens = finished.tokens;
            record.prefill_skipped = finished.prefill_skipped_tokens;
            // `tick_start_ns[t]` is the start of the tick that ran when the
            // scheduler's tick counter read `t`.
            record.admitted_ns = finished
                .admitted_tick
                .and_then(|t| tick_start_ns.get(t as usize).copied());
        }
    }
    out.end_ns = clock.now_ns();
    out.scheduler = Some(scheduler.stats());
    out
}

fn request_body(req: &Request) -> String {
    let prompt: Vec<String> = req.prompt.iter().map(u32::to_string).collect();
    let priority = match req.priority {
        Priority::Normal => String::new(),
        other => format!(",\"priority\":\"{}\"", other.name()),
    };
    format!(
        "{{\"prompt\":[{}],\"max_new\":{}{priority}}}",
        prompt.join(","),
        req.max_new
    )
}

/// Sends one request on a keep-alive connection and reads its stream.
/// Returns the connection for reuse; `None` once it is unusable.
fn http_request(
    client: Client,
    req: &Request,
    clock: Clock,
    record: &mut Record,
    refused: &AtomicUsize,
) -> Option<Client> {
    let mut stream = match client.post_streaming("/v1/generate", &request_body(req)) {
        Ok(stream) => stream,
        Err(_) => {
            // An error status (503 when overloaded) or a broken socket:
            // either way the request was not served.
            refused.fetch_add(1, Ordering::Relaxed);
            return None;
        }
    };
    loop {
        match stream.next_event() {
            Ok(Some(event)) => {
                let now = clock.now_ns();
                if let Some(finish) = event.get("finish").and_then(Json::as_str) {
                    record.complete = finish == "max_tokens";
                    record.prefill_skipped = event
                        .get("prefill_skipped_tokens")
                        .and_then(Json::as_u64)
                        .unwrap_or(0) as usize;
                } else if let Some(token) = event.get("token").and_then(Json::as_u64) {
                    record.token_ns.push(now);
                    record.tokens.push(token as u32);
                }
            }
            Ok(None) => break,
            Err(_) => return None,
        }
    }
    stream.into_client().ok()
}

/// Keep-alive clients in a closed loop against the server, which runs in
/// this process on its own threads. Before the window opens every shared
/// prefix is requested once, so the window measures a warm prefix cache —
/// the state a chat server spends its life in.
#[allow(clippy::too_many_arguments)]
pub fn run_http(
    server: Server,
    engines: &Engines<'_>,
    requests: &[Request],
    warmup: &[Request],
    clients: usize,
    clock: Clock,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (Outcome, StatsSnapshot) {
    let handle = server.handle();
    let addr = handle.addr();
    let id_of_prompt: HashMap<&[u32], usize> = requests
        .iter()
        .map(|r| (r.prompt.as_slice(), r.id))
        .collect();
    let factory_ns: Mutex<HashMap<usize, u64>> = Mutex::new(HashMap::new());
    let factory = |req: &GenerateRequest| {
        // Warm-up prompts are not in the map and are served untraced.
        let engine = match id_of_prompt.get(req.prompt.as_slice()) {
            Some(&id) => {
                factory_ns
                    .lock()
                    .expect("factory map poisoned")
                    .insert(id, clock.now_ns());
                engines.for_request(id)
            }
            None => engines.bare(),
        };
        Ok(engine)
    };
    let next = AtomicUsize::new(0);
    let refused = AtomicUsize::new(0);
    let window_ns = (seconds * 1e9) as u64;
    let mut records: Vec<Record> = Vec::new();
    let mut kv_samples = Vec::new();
    let mut begin = 0;
    let final_stats = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&factory));
        {
            let mut client = Client::connect(addr).ok();
            for req in warmup {
                let mut scratch = new_record(req, 0, 0);
                client = client
                    .or_else(|| Client::connect(addr).ok())
                    .and_then(|c| http_request(c, req, clock, &mut scratch, &AtomicUsize::new(0)));
            }
        }
        begin = clock.now_ns();
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut buf = tracer.map(Tracer::buf);
                    let mut mine = Vec::new();
                    let mut kv = Vec::new();
                    let mut client = None;
                    while clock.now_ns() - begin < window_ns {
                        let Some(req) = requests.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        let Some(conn) = client.take().or_else(|| Client::connect(addr).ok())
                        else {
                            break;
                        };
                        let sent = clock.now_ns();
                        let mut record = new_record(req, sent, sent);
                        client = http_request(conn, req, clock, &mut record, &refused);
                        if let Some(buf) = buf.as_mut() {
                            let done = clock.now_ns();
                            let root = buf.record(
                                NO_SPAN,
                                req.id as i64,
                                "client",
                                "request",
                                sent,
                                done,
                                record.token_ns.len() as u32,
                            );
                            let mut prev = sent;
                            for &t in &record.token_ns {
                                buf.record(root, req.id as i64, "client", "event", prev, t, 1);
                                prev = t;
                            }
                        }
                        mine.push(record);
                        // The owner loop publishes a snapshot every
                        // iteration; reading it costs the server one
                        // uncontended lock.
                        let pool = handle.stats().scheduler;
                        kv.push((pool.kv_blocks_in_use, pool.reserved_blocks));
                    }
                    (mine, kv)
                })
            })
            .collect();
        for worker in workers {
            let (mine, kv) = worker.join().expect("client thread panicked");
            records.extend(mine);
            kv_samples.extend(kv);
        }
        handle.shutdown();
        serving.join().expect("server thread panicked")
    });
    records.sort_by_key(|r| r.sent_ns);
    let factory_ns = factory_ns.into_inner().expect("factory map poisoned");
    for record in &mut records {
        record.factory_ns = factory_ns.get(&record.id).copied();
    }
    let end_ns = records
        .iter()
        .filter_map(|r| r.token_ns.last().copied())
        .max()
        .unwrap_or(begin);
    let outcome = Outcome {
        records,
        begin_ns: begin,
        window_ns,
        end_ns,
        refused: refused.into_inner(),
        scheduler: Some(final_stats.scheduler.clone()),
        kv_samples,
        ..Outcome::default()
    };
    (outcome, final_stats)
}
