//! End-to-end tests of the HTTP server over real loopback sockets: boot,
//! stream, disconnect, overload, deadlines, malformed input, shutdown.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sparseinfer::json::Json;
use sparseinfer::model::generator::WeightGenerator;
use sparseinfer::model::{Model, ModelConfig};
use sparseinfer::predictor::AlphaSchedule;
use sparseinfer::sparse::engine::{Engine, EngineBuilder};
use sparseinfer::sparse::error::EngineError;
use sparseinfer::sparse::scheduler::SchedulerConfig;
use sparseinfer_serve::{Client, Limits, Server, ServerConfig, ServerHandle, StatsSnapshot};

fn test_model() -> Model {
    WeightGenerator::new(&ModelConfig::tiny(), 42).build()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: SchedulerConfig {
            max_slots: 2,
            block_tokens: 8,
            kv_block_budget: 4096,
            // Off so a drained server provably holds zero KV blocks.
            prefix_cache: false,
            ..SchedulerConfig::default()
        },
        slot_threads: 1,
        connection_threads: 4,
        queue_capacity: 8,
        weight_format: Default::default(),
        limits: Limits::default(),
    }
}

/// Boots a server on an ephemeral port with a per-request engine built by
/// `build`, runs `client_script` against it, shuts down, and returns
/// (script result, post-drain stats).
fn with_server_via<T: Send>(
    config: ServerConfig,
    build: impl for<'m> Fn(&'m Model) -> Result<Box<dyn Engine + 'm>, EngineError> + Sync,
    client_script: impl FnOnce(SocketAddr, &ServerHandle) -> T + Send,
) -> (T, StatsSnapshot) {
    let model = test_model();
    let server = Server::bind(config).expect("bind ephemeral port");
    let handle = server.handle();
    let mut result = None;
    let mut stats = None;
    std::thread::scope(|scope| {
        let stats = &mut stats;
        let build = &build;
        let server_thread = scope.spawn(move || {
            *stats = Some(server.serve(&|_req| build(&model)));
        });
        result = Some(client_script(handle.addr(), &handle));
        handle.shutdown();
        server_thread.join().expect("server thread panicked");
    });
    (result.unwrap(), stats.unwrap())
}

/// `with_server_via` with the default dense engine.
fn with_server<T: Send>(
    config: ServerConfig,
    client_script: impl FnOnce(SocketAddr, &ServerHandle) -> T + Send,
) -> (T, StatsSnapshot) {
    with_server_via(config, |m| EngineBuilder::new(m).build(), client_script)
}

/// A lossless speculative engine: sign-bit sparse draft, dense verify.
fn speculative_engine(model: &Model, k: usize) -> Result<Box<dyn Engine + '_>, EngineError> {
    let draft = EngineBuilder::new(model)
        .signbit(AlphaSchedule::uniform(1.0))
        .build()?;
    let verify = EngineBuilder::new(model).build()?;
    EngineBuilder::speculative(draft, verify, k)
}

#[test]
fn streams_tokens_and_serves_health_and_stats() {
    let ((tokens, finish, health, stats_doc), final_stats) =
        with_server(test_config(), |addr, _| {
            let mut probe = Client::connect(addr).unwrap();
            let health = probe.get("/healthz").unwrap();
            assert_eq!(health.status, 200);

            let stream = Client::connect(addr)
                .unwrap()
                .post_streaming("/v1/generate", r#"{"prompt":[1,2,3],"max_new":6}"#)
                .unwrap();
            let (tokens, finish) = stream.collect_generation().unwrap();

            let stats = probe.get("/stats").unwrap();
            assert_eq!(stats.status, 200);
            (
                tokens,
                finish,
                health.json().unwrap(),
                stats.json().unwrap(),
            )
        });
    assert_eq!(tokens.len(), 6);
    assert_eq!(
        finish.get("finish").and_then(Json::as_str),
        Some("max_tokens")
    );
    assert_eq!(finish.get("tokens").and_then(Json::as_u64), Some(6));
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let sched = stats_doc.get("scheduler").expect("scheduler section");
    assert_eq!(sched.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(
        final_stats.scheduler.kv_blocks_in_use, 0,
        "pool drained after shutdown"
    );
    assert!(final_stats.draining);
}

#[test]
fn http_tokens_are_bit_identical_to_library_runs() {
    use sparseinfer::sparse::request::GenerateRequest;
    use sparseinfer::sparse::scheduler::Scheduler;

    // Reference: the same seeded request run directly through the library.
    let model = test_model();
    let req = GenerateRequest::new(&[7, 8, 9]).max_new(10);
    let mut reference = Scheduler::new(test_config().scheduler);
    reference
        .submit(EngineBuilder::new(&model).build().unwrap(), &req)
        .unwrap();
    let expected = reference.run().pop().unwrap().tokens;

    let (tokens, _) = with_server(test_config(), |addr, _| {
        Client::connect(addr)
            .unwrap()
            .post_streaming("/v1/generate", r#"{"prompt":[7,8,9],"max_new":10}"#)
            .unwrap()
            .collect_generation()
            .unwrap()
            .0
    });
    assert_eq!(tokens, expected, "greedy decode over HTTP == library run");
}

#[test]
fn mid_stream_disconnect_cancels_and_reclaims_kv() {
    let (stats_after_disconnect, final_stats) = with_server(test_config(), |addr, handle| {
        let mut stream = Client::connect(addr)
            .unwrap()
            // A long budget: without cancellation this would decode for a
            // very long time and the drain below would time the test out.
            .post_streaming("/v1/generate", r#"{"prompt":[1,2],"max_new":10000}"#)
            .unwrap();
        // Ensure the request is mid-decode, then vanish.
        let first = stream.next_event().unwrap().expect("first token");
        assert!(first.get("token").is_some());
        stream.abandon();

        // The server notices on its next failed write and cancels; poll
        // the owner-loop stats until the slot is gone.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = handle.stats();
            if stats.scheduler.active_slots == 0 && stats.completed == 1 {
                return stats;
            }
            assert!(
                Instant::now() < deadline,
                "server never reclaimed the disconnected request: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    assert_eq!(
        stats_after_disconnect.scheduler.kv_blocks_in_use, 0,
        "KV reclaimed"
    );
    assert_eq!(final_stats.scheduler.kv_blocks_in_use, 0);
}

#[test]
fn deadline_exceeded_finishes_the_stream_with_partial_tokens() {
    let ((tokens, finish), _) = with_server(test_config(), |addr, _| {
        Client::connect(addr)
            .unwrap()
            .post_streaming(
                "/v1/generate",
                r#"{"prompt":[1,2],"max_new":10000,"deadline_ms":50}"#,
            )
            .unwrap()
            .collect_generation()
            .unwrap()
    });
    assert_eq!(
        finish.get("finish").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    assert_eq!(
        finish.get("tokens").and_then(Json::as_u64),
        Some(tokens.len() as u64),
        "partial tokens streamed before expiry are kept"
    );
    assert!(tokens.len() < 10_000);
}

#[test]
fn overload_answers_503_with_retry_after() {
    // One slot and a one-deep submission queue: 1 decoding + 1 pending
    // + 1 buffered in the channel saturates the server, so further
    // submits must bounce with 503 instead of queueing without bound.
    // Every request carries a deadline so the test's wall-clock stays
    // bounded regardless of decode speed.
    let config = ServerConfig {
        scheduler: SchedulerConfig {
            max_slots: 1,
            ..test_config().scheduler
        },
        queue_capacity: 1,
        connection_threads: 8,
        ..test_config()
    };
    let (saw_503, _) = with_server(config, |addr, _| {
        let mut saw_503 = false;
        std::thread::scope(|scope| {
            // Saturators on their own threads: the ones parked in the
            // bounded channel don't get a response head until drained, so
            // issuing them from the probe thread would block it. Their
            // starts are staggered — simultaneous submits into the
            // one-deep channel would shed each *other* and leave the
            // server idle instead of saturated (slot + pending + channel).
            for i in 0..3u64 {
                scope.spawn(move || {
                    std::thread::sleep(Duration::from_millis(i * 150));
                    let result = Client::connect(addr).unwrap().post_streaming(
                        "/v1/generate",
                        r#"{"prompt":[1],"max_new":10000,"deadline_ms":4000}"#,
                    );
                    // Streams until its deadline; the saturators only need
                    // to occupy the slot, the queue and the channel for a
                    // while.
                    if let Ok(stream) = result {
                        let _ = stream.collect_generation();
                    }
                });
            }
            // Probe once the saturators hold slot + pending + channel.
            // Probes carry a short deadline, so even an admitted probe
            // answers quickly and the loop can keep probing.
            std::thread::sleep(Duration::from_millis(600));
            let deadline = Instant::now() + Duration::from_secs(2);
            while !saw_503 && Instant::now() < deadline {
                let mut probe = Client::connect(addr).unwrap();
                let resp = probe
                    .post(
                        "/v1/generate",
                        r#"{"prompt":[2],"max_new":10000,"deadline_ms":50}"#,
                    )
                    .unwrap();
                if resp.status == 503 {
                    assert_eq!(resp.header("retry-after"), Some("1"));
                    assert!(resp.text().contains("overloaded"));
                    saw_503 = true;
                }
            }
        });
        saw_503
    });
    assert!(saw_503, "an overloaded server must shed load with 503");
}

#[test]
fn malformed_and_oversized_requests_do_not_kill_the_connection_handler() {
    let config = ServerConfig {
        limits: Limits {
            max_header_bytes: 1024,
            max_body_bytes: 256,
        },
        ..test_config()
    };
    let (_, final_stats) = with_server(config, |addr, _| {
        // Bad JSON -> 400, connection stays usable (keep-alive).
        let mut client = Client::connect(addr).unwrap();
        let resp = client.post("/v1/generate", "this is not json").unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("invalid JSON"));

        // Same connection: a valid request still works after the 400.
        let resp = client
            .post("/v1/generate", r#"{"prompt":[1],"max_new":2}"#)
            .unwrap();
        assert_eq!(resp.status, 200);

        // Semantically invalid -> 400 with the field named.
        let resp = client
            .post("/v1/generate", r#"{"prompt":[],"max_new":2}"#)
            .unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("prompt"));

        // Unknown priority class -> 400, connection still alive.
        let resp = client
            .post("/v1/generate", r#"{"prompt":[1],"priority":"urgent"}"#)
            .unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("priority"));

        // Same connection: a valid priority still works after the 400.
        let resp = client
            .post(
                "/v1/generate",
                r#"{"prompt":[1],"max_new":2,"priority":"high"}"#,
            )
            .unwrap();
        assert_eq!(resp.status, 200);

        // Oversized body -> 413 (these close the connection: fresh client).
        let huge = format!(r#"{{"prompt":[{}]}}"#, "1,".repeat(200) + "1");
        let mut client = Client::connect(addr).unwrap();
        let resp = client.post("/v1/generate", &huge).unwrap();
        assert_eq!(resp.status, 413);

        // Unknown endpoint -> 404.
        let mut client = Client::connect(addr).unwrap();
        let resp = client.get("/nope").unwrap();
        assert_eq!(resp.status, 404);

        // And the server still serves after all that abuse.
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    });
    assert_eq!(final_stats.scheduler.kv_blocks_in_use, 0);
}

#[test]
fn high_priority_preempts_a_batch_stream_and_the_finish_event_reports_it() {
    // Budget fits exactly the batch request (tiny(): 2 layers, prompt 2 +
    // max_new 2048 at 4 tokens/block -> 1026 blocks), so the High arrival
    // must evict it; the swap-out restores and the batch stream still
    // delivers every token, with the eviction visible in its finish
    // event and in /stats. The batch decode is deliberately long
    // (~300ms wall clock) so the separately-posted High request lands
    // mid-decode rather than racing the batch request's completion.
    let config = ServerConfig {
        scheduler: SchedulerConfig {
            max_slots: 4,
            block_tokens: 4,
            kv_block_budget: 1026,
            prefix_cache: false,
            ..SchedulerConfig::default()
        },
        ..test_config()
    };
    let ((batch_tokens, batch_finish, high_finish, stats_doc), final_stats) =
        with_server(config, |addr, _| {
            let mut batch_stream = Client::connect(addr)
                .unwrap()
                .post_streaming(
                    "/v1/generate",
                    r#"{"prompt":[1,2],"max_new":2048,"priority":"batch"}"#,
                )
                .unwrap();
            // Wait for the first token so the batch request holds a slot.
            let first = batch_stream.next_event().unwrap().expect("a token");
            assert_eq!(first.get("index").and_then(Json::as_u64), Some(0));

            let (high_tokens, high_finish) = Client::connect(addr)
                .unwrap()
                .post_streaming(
                    "/v1/generate",
                    r#"{"prompt":[7,8],"max_new":4,"priority":"high"}"#,
                )
                .unwrap()
                .collect_generation()
                .unwrap();
            assert_eq!(high_tokens.len(), 4);

            let mut batch_tokens = vec![first.get("token").and_then(Json::as_u64).unwrap() as u32];
            let (rest, batch_finish) = batch_stream.collect_generation().unwrap();
            batch_tokens.extend(rest);

            let stats = Client::connect(addr).unwrap().get("/stats").unwrap();
            assert_eq!(stats.status, 200);
            (
                batch_tokens,
                batch_finish,
                high_finish,
                stats.json().unwrap(),
            )
        });
    assert_eq!(
        batch_tokens.len(),
        2048,
        "the evicted stream still completes"
    );
    assert_eq!(
        batch_finish.get("finish").and_then(Json::as_str),
        Some("max_tokens")
    );
    let preemptions = batch_finish
        .get("preemptions")
        .and_then(Json::as_u64)
        .expect("finish event carries preemptions");
    assert!(preemptions >= 1, "the batch stream must have been evicted");
    assert!(
        batch_finish
            .get("swapped_blocks")
            .and_then(Json::as_u64)
            .expect("finish event carries swapped_blocks")
            > 0,
        "default config swaps rather than recomputes"
    );
    assert_eq!(
        high_finish.get("preemptions").and_then(Json::as_u64),
        Some(0)
    );
    let preemption = stats_doc.get("preemption").expect("preemption section");
    assert!(
        preemption
            .get("preemptions")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    assert!(
        preemption
            .get("swapped_out")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    assert_eq!(
        preemption.get("preempted_now").and_then(Json::as_u64),
        Some(0)
    );
    let memory = stats_doc.get("memory").expect("memory section");
    assert_eq!(
        memory.get("swapped_bytes").and_then(Json::as_u64),
        Some(0),
        "cold buffers drained once everything resumed"
    );
    assert_eq!(final_stats.scheduler.kv_blocks_in_use, 0, "pool drained");
    assert_eq!(final_stats.scheduler.memory.swapped_bytes, 0);
}

#[test]
fn concurrent_clients_at_several_slot_thread_counts_match_library_runs() {
    use sparseinfer::sparse::request::GenerateRequest;
    use sparseinfer::sparse::scheduler::Scheduler;

    // Distinct seeded requests (different samplers) so cross-request
    // interference would be visible as token divergence.
    let bodies: Vec<String> = (0..6)
        .map(|i| {
            format!(
                r#"{{"prompt":[{},{},{}],"max_new":8,"top_k":8,"temperature":0.7,"seed":{}}}"#,
                i + 1,
                i + 2,
                i + 3,
                i as u64 * 31 + 5,
            )
        })
        .collect();

    // Library reference, computed once (slot-thread count never changes
    // tokens at the library level; that is the scheduler's own test
    // surface).
    let model = test_model();
    let expected: Vec<Vec<u32>> = (0..6u32)
        .map(|i| {
            use sparseinfer::model::Sampler;
            let req = GenerateRequest::new(&[i + 1, i + 2, i + 3])
                .max_new(8)
                .sampler(Sampler::top_k(8, 0.7, u64::from(i) * 31 + 5));
            let mut scheduler = Scheduler::new(test_config().scheduler);
            scheduler
                .submit(EngineBuilder::new(&model).build().unwrap(), &req)
                .unwrap();
            scheduler.run().pop().unwrap().tokens
        })
        .collect();

    for slot_threads in [1, 2, 4] {
        let config = ServerConfig {
            slot_threads,
            scheduler: SchedulerConfig {
                max_slots: 4,
                ..test_config().scheduler
            },
            ..test_config()
        };
        let (all_tokens, final_stats) = with_server(config, |addr, _| {
            // All six requests from six concurrent client threads.
            let done = AtomicUsize::new(0);
            let mut results: Vec<Option<Vec<u32>>> = vec![None; bodies.len()];
            std::thread::scope(|scope| {
                for (slot, body) in results.iter_mut().zip(&bodies) {
                    let done = &done;
                    scope.spawn(move || {
                        let (tokens, finish) = Client::connect(addr)
                            .unwrap()
                            .post_streaming("/v1/generate", body)
                            .unwrap()
                            .collect_generation()
                            .unwrap();
                        assert_eq!(
                            finish.get("finish").and_then(Json::as_str),
                            Some("max_tokens")
                        );
                        *slot = Some(tokens);
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(done.load(Ordering::Relaxed), bodies.len());
            results.into_iter().map(Option::unwrap).collect::<Vec<_>>()
        });
        assert_eq!(
            all_tokens, expected,
            "{slot_threads} slot threads: HTTP tokens == library tokens"
        );
        assert_eq!(final_stats.scheduler.kv_blocks_in_use, 0);
        assert_eq!(final_stats.completed, bodies.len());
    }
}

#[test]
fn speculative_server_is_bit_identical_to_dense_and_reports_counters() {
    use sparseinfer::sparse::request::GenerateRequest;
    use sparseinfer::sparse::scheduler::Scheduler;

    // Dense-only library reference: lossless speculation must reproduce
    // these tokens exactly, over HTTP, at every slot-thread count.
    let model = test_model();
    let bodies: Vec<String> = (0..4u32)
        .map(|i| format!(r#"{{"prompt":[{},{}],"max_new":12}}"#, i + 3, i + 5))
        .collect();
    let expected: Vec<Vec<u32>> = (0..4u32)
        .map(|i| {
            let req = GenerateRequest::new(&[i + 3, i + 5]).max_new(12);
            let mut scheduler = Scheduler::new(test_config().scheduler);
            scheduler
                .submit(EngineBuilder::new(&model).build().unwrap(), &req)
                .unwrap();
            scheduler.run().pop().unwrap().tokens
        })
        .collect();

    for slot_threads in [1, 2, 4] {
        let config = ServerConfig {
            slot_threads,
            scheduler: SchedulerConfig {
                max_slots: 4,
                ..test_config().scheduler
            },
            ..test_config()
        };
        let ((all_tokens, finishes, stats_doc), final_stats) = with_server_via(
            config,
            |m| speculative_engine(m, 4),
            |addr, _| {
                let mut results: Vec<Option<(Vec<u32>, Json)>> = vec![None; bodies.len()];
                std::thread::scope(|scope| {
                    for (slot, body) in results.iter_mut().zip(&bodies) {
                        scope.spawn(move || {
                            *slot = Some(
                                Client::connect(addr)
                                    .unwrap()
                                    .post_streaming("/v1/generate", body)
                                    .unwrap()
                                    .collect_generation()
                                    .unwrap(),
                            );
                        });
                    }
                });
                let stats = Client::connect(addr).unwrap().get("/stats").unwrap();
                assert_eq!(stats.status, 200);
                let (tokens, finishes): (Vec<_>, Vec<_>) =
                    results.into_iter().map(Option::unwrap).unzip();
                (tokens, finishes, stats.json().unwrap())
            },
        );
        assert_eq!(
            all_tokens, expected,
            "{slot_threads} slot threads: speculative HTTP tokens == dense library tokens"
        );
        for finish in &finishes {
            assert_eq!(
                finish.get("engine").and_then(Json::as_str),
                Some("speculative:sparse:sparseinfer+dense")
            );
            let spec = finish
                .get("speculative")
                .expect("finish event carries speculative counters");
            let drafted = spec.get("drafted").and_then(Json::as_u64).unwrap();
            let accepted = spec.get("accepted").and_then(Json::as_u64).unwrap();
            assert!(drafted > 0, "the draft engine proposed tokens");
            assert!(accepted <= drafted);
        }
        let spec = stats_doc
            .get("speculative")
            .expect("/stats carries a speculative section");
        let drafted = spec.get("drafted").and_then(Json::as_u64).unwrap();
        let accepted = spec.get("accepted").and_then(Json::as_u64).unwrap();
        assert!(drafted > 0);
        assert!(
            accepted > 0,
            "sign-bit drafts that never land are no drafts"
        );
        assert!(accepted <= drafted);
        assert!(spec.get("acceptance_rate").and_then(Json::as_f64).is_some());
        assert_eq!(final_stats.scheduler.kv_blocks_in_use, 0);
        assert_eq!(final_stats.completed, bodies.len());
    }
}

#[test]
fn graceful_shutdown_drains_in_flight_streams() {
    let ((tokens, finish), final_stats) = with_server(test_config(), |addr, handle| {
        let mut stream = Client::connect(addr)
            .unwrap()
            .post_streaming("/v1/generate", r#"{"prompt":[3,1],"max_new":40}"#)
            .unwrap();
        // Mid-stream, request shutdown...
        let first = stream.next_event().unwrap().expect("first token");
        assert!(first.get("token").is_some());
        handle.shutdown();
        // ...and the stream must still run to its natural completion.
        let mut tokens = vec![first.get("token").and_then(Json::as_u64).unwrap() as u32];
        let (rest, finish) = stream.collect_generation().unwrap();
        tokens.extend(rest);
        (tokens, finish)
    });
    assert_eq!(
        tokens.len(),
        40,
        "in-flight stream completed despite shutdown"
    );
    assert_eq!(
        finish.get("finish").and_then(Json::as_str),
        Some("max_tokens")
    );
    assert_eq!(final_stats.scheduler.kv_blocks_in_use, 0);
    assert_eq!(final_stats.completed, 1);
}
