//! The deterministic chaos harness (DESIGN.md §14): seeded network
//! faults, admission-control sheds, cache bounds, corruption
//! quarantine, and kill-under-load resume — every schedule reproducible
//! from its seed alone.
//!
//! The invariants asserted after every storm:
//!
//! * the daemon never panics (pool panic counter stays 0) and never
//!   leaks a worker thread or a pending job;
//! * result-cache occupancy stays under its configured byte bound;
//! * corrupt artifacts are quarantined, never served;
//! * once the weather clears, served results are byte-identical to
//!   direct runs.

use std::time::{Duration, Instant};

use vrl_obs::event::EventKind;
use vrl_obs::ShedReason;
use vrl_serve::chaos::{fault_for, ChaosProxy, Fault};
use vrl_serve::spec::parse_spec;
use vrl_serve::{
    protocol, runner, CacheLimits, Client, ClientError, JobSpec, RetryPolicy, ServeLimits, Server,
    ServerConfig,
};

fn spec(json: &str) -> JobSpec {
    parse_spec(&vrl_obs::json::parse(json).expect("test spec is valid JSON")).expect("test spec")
}

fn submit_line(spec_json: &str) -> String {
    format!("{{\"type\":\"submit\",\"spec\":{spec_json}}}")
}

/// A tiny spec, distinct per `seed`, fast enough for chaos volume.
fn tiny_spec(seed: u64) -> String {
    format!(r#"{{"benchmark":"x264","policy":"vrl","rows":96,"duration_ms":24,"seed":{seed}}}"#)
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vrl-serve-chaos-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Waits until the daemon has no pending jobs (workers settled).
fn wait_settled(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while server.pending_jobs() > 0 {
        assert!(Instant::now() < deadline, "jobs leaked: never settled");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn seeded_fault_schedules_never_panic_or_leak_and_identity_survives() {
    const WORKERS: usize = 2;
    const CONNS: u64 = 24;
    for seed in [11, 42, 1999] {
        let config = ServerConfig {
            workers: WORKERS,
            span_cycles: 0,
            limits: ServeLimits {
                read_timeout_ms: 1_000,
                ..ServeLimits::default()
            },
            ..ServerConfig::default()
        };
        let result_cap = config.cache.result_bytes;
        let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
        let proxy = ChaosProxy::start(server.addr(), seed).expect("start proxy");
        let proxy_addr = proxy.addr().to_string();

        // One connection per index, so the fault each submission meets
        // is known: clean connections must yield the exact direct
        // bytes; faulted ones may fail any way except panicking the
        // daemon.
        for index in 0..CONNS {
            let spec_json = tiny_spec(index % 5);
            let fault = fault_for(seed, index);
            let client =
                Client::connect_with_timeout(&proxy_addr, Some(Duration::from_millis(1_500)));
            let Ok(mut client) = client else {
                continue;
            };
            match (fault, client.submit_raw(&submit_line(&spec_json))) {
                (Fault::Clean, outcome) => {
                    let frames = outcome.expect("clean connections see the full stream");
                    let direct = runner::direct_result(&spec(&spec_json)).expect("direct run");
                    assert_eq!(
                        frames.last().expect("terminal frame"),
                        &direct,
                        "seed {seed} conn {index}: clean result must be byte-identical"
                    );
                }
                // The proxy injected garbage request lines ahead of
                // ours; the server must answer each with a parse error
                // frame (terminal from the client's point of view) —
                // not drop the connection, not panic.
                (Fault::GarbageThenForward, outcome) => {
                    let frames = outcome.expect("garbage is rejected, not fatal");
                    assert!(
                        frames
                            .last()
                            .expect("frame")
                            .starts_with("{\"type\":\"error\""),
                        "seed {seed} conn {index}: garbage must yield an error frame"
                    );
                }
                // Mid-frame disconnects, blackholes, and pre-forward
                // closes surface as typed client errors, never hangs.
                (_, Err(ClientError::Disconnected | ClientError::TimedOut)) => {}
                (fault, outcome) => {
                    // A fault that severed late can still deliver the
                    // whole stream; anything delivered must be a
                    // prefix of the true frame sequence (never
                    // corrupted frames).
                    if let Ok(frames) = outcome {
                        for frame in &frames {
                            assert!(
                                frame.starts_with('{'),
                                "seed {seed} conn {index} ({fault:?}): corrupt frame {frame:?}"
                            );
                        }
                    }
                }
            }
        }
        proxy.stop();

        // The weather clears: every invariant holds and the daemon
        // serves exact bytes over a direct connection.
        wait_settled(&server);
        assert_eq!(server.pool_panics(), 0, "seed {seed}: workers panicked");
        assert_eq!(
            server.live_workers(),
            WORKERS,
            "seed {seed}: pool leaked a worker thread"
        );
        assert!(
            server.result_cache_bytes() <= result_cap,
            "seed {seed}: result cache over its bound"
        );
        let mut direct_client =
            Client::connect(&server.addr().to_string()).expect("direct connect");
        for i in 0..5 {
            let spec_json = tiny_spec(i);
            let frames = direct_client
                .submit_raw(&submit_line(&spec_json))
                .expect("post-chaos submission");
            let direct = runner::direct_result(&spec(&spec_json)).expect("direct run");
            assert_eq!(frames.last().expect("terminal frame"), &direct);
        }
        server.shutdown(true);
    }
}

#[test]
fn retry_rides_out_a_faulty_connection_and_gets_exact_bytes() {
    // Pick (deterministically) a seed whose schedule starts with
    // retry-visible faults and reaches a clean connection within the
    // retry budget.
    let seed = (0..10_000)
        .find(|&s| {
            matches!(
                fault_for(s, 0),
                Fault::CloseBeforeForward | Fault::BlackholeResponses
            ) && (1..4).any(|i| {
                fault_for(s, i) == Fault::Clean
                    && (1..i).all(|j| {
                        matches!(
                            fault_for(s, j),
                            Fault::CloseBeforeForward
                                | Fault::BlackholeResponses
                                | Fault::CloseAfterResponseBytes(_)
                        )
                    })
            })
        })
        .expect("some seed has a retryable prefix");

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            span_cycles: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let proxy = ChaosProxy::start(server.addr(), seed).expect("start proxy");

    let spec_json = tiny_spec(7);
    let mut client =
        Client::connect_with_timeout(&proxy.addr().to_string(), Some(Duration::from_millis(500)))
            .expect("connect via proxy");
    let policy = RetryPolicy {
        retries: 4,
        base_delay: Duration::from_millis(10),
        timeout: Some(Duration::from_millis(500)),
    };
    let frames = client
        .submit_with_retry(&submit_line(&spec_json), &policy)
        .expect("retry must ride out the schedule");
    let direct = runner::direct_result(&spec(&spec_json)).expect("direct run");
    assert_eq!(
        frames.last().expect("terminal frame"),
        &direct,
        "retried submission must end with the exact direct bytes"
    );

    // Idempotent resubmission: the completed spec replays its cached
    // result byte-identically over a fresh direct connection.
    let mut direct_client = Client::connect(&server.addr().to_string()).expect("connect");
    let replay = direct_client
        .submit_raw(&submit_line(&spec_json))
        .expect("replay");
    assert_eq!(replay.last().expect("terminal frame"), &direct);

    proxy.stop();
    server.shutdown(true);
}

#[test]
fn admission_control_sheds_with_typed_frames_and_counts_every_shed() {
    // Queue admission: a zero-length queue budget rejects every submit
    // as `busy` while leaving the connection healthy.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            span_cycles: 0,
            limits: ServeLimits {
                max_queued_jobs: 0,
                max_line_bytes: 4096,
                read_timeout_ms: 400,
                ..ServeLimits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let frames = client
        .submit_raw(&submit_line(&tiny_spec(1)))
        .expect("busy reject stream");
    assert_eq!(frames.len(), 1, "a busy reject is a single frame");
    assert_eq!(
        protocol::reject_reason(&frames[0]),
        Some(ShedReason::Busy),
        "{}",
        frames[0]
    );
    assert_eq!(client.ping().expect("pong"), "{\"type\":\"pong\"}");

    // Line admission: an over-long request line gets `line_too_long`,
    // then the stream closes (it cannot be re-synchronized).
    let long_line = "x".repeat(8192);
    match client.submit_raw(&long_line) {
        Ok(frames) => {
            assert_eq!(
                protocol::reject_reason(frames.last().expect("frame")),
                Some(ShedReason::LineTooLong)
            );
        }
        Err(e) => panic!("expected a line_too_long frame, got {e}"),
    }
    // The server half-closes and drains our unread overflow before
    // closing, so this surfaces as a clean EOF (or an RST if the drain
    // bound runs out) — both are "connection gone", which is the point.
    assert!(
        matches!(
            client.ping(),
            Err(ClientError::Disconnected | ClientError::Io(_))
        ),
        "the connection must be closed after an overrun"
    );

    // Idle admission: a silent connection is shed with `timeout`.
    let mut idle = Client::connect(&addr).expect("connect");
    match idle.recv() {
        Ok(frame) => assert_eq!(protocol::reject_reason(&frame), Some(ShedReason::Timeout)),
        Err(e) => panic!("expected a timeout frame, got {e}"),
    }

    let metrics = server.metrics();
    assert_eq!(metrics.counter("serve.shed.jobs"), 1);
    assert_eq!(metrics.counter("serve.shed.line_too_long"), 1);
    assert_eq!(metrics.counter("serve.shed.timeout"), 1);
    let sheds = server
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::JobShed { .. }))
        .count();
    assert_eq!(sheds, 3, "every shed must surface as a JobShed event");
    server.shutdown(true);
}

#[test]
fn connection_cap_sheds_the_overflow_connection_with_busy() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            span_cycles: 0,
            limits: ServeLimits {
                max_connections: 1,
                ..ServeLimits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();

    let mut first = Client::connect(&addr).expect("first connection");
    // The ping round-trip pins the first handler as registered before
    // the second connection arrives (the accept loop is sequential).
    assert_eq!(first.ping().expect("pong"), "{\"type\":\"pong\"}");

    let mut second = Client::connect(&addr).expect("tcp connect succeeds");
    let frame = second.recv().expect("busy frame before close");
    assert_eq!(
        protocol::reject_reason(&frame),
        Some(ShedReason::Busy),
        "{frame}"
    );
    assert!(matches!(second.recv(), Err(ClientError::Disconnected)));

    assert_eq!(server.metrics().counter("serve.shed.connections"), 1);

    // Closing the first connection frees the slot.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut third = Client::connect(&addr).expect("tcp connect succeeds");
        match third.ping() {
            // The freed slot may not be released yet: the accept loop
            // then sheds this connection too, and its busy frame
            // answers the ping.
            Ok(frame) if protocol::reject_reason(&frame) == Some(ShedReason::Busy) => assert!(
                Instant::now() < deadline,
                "slot never freed after disconnect"
            ),
            Ok(pong) => {
                assert_eq!(pong, "{\"type\":\"pong\"}");
                break;
            }
            Err(_) => assert!(
                Instant::now() < deadline,
                "slot never freed after disconnect"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown(true);
}

#[test]
fn bit_flipped_artifacts_are_quarantined_and_rebuilt_across_restart() {
    let dir = temp_dir("quarantine");
    let artifacts = dir.join("artifacts");
    let config = ServerConfig {
        workers: 1,
        span_cycles: 0,
        artifact_dir: Some(artifacts.clone()),
        ..ServerConfig::default()
    };

    // Warm run persists the artifact.
    let spec_json = tiny_spec(3);
    let direct = runner::direct_result(&spec(&spec_json)).expect("direct run");
    let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind loopback");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let frames = client
        .submit_raw(&submit_line(&spec_json))
        .expect("warm run");
    assert_eq!(frames.last().expect("terminal frame"), &direct);
    assert_eq!(server.metrics().counter("serve.cache.disk_stores"), 1);
    server.shutdown(true);

    // Flip one bit in the stored envelope.
    let hash = spec(&spec_json).canonical_hash();
    let art = artifacts.join(format!("{hash:016x}.art"));
    let mut bytes = std::fs::read(&art).expect("artifact exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&art, &bytes).expect("corrupt artifact");

    // A cold restart must quarantine the damaged file, rebuild, and
    // serve the exact bytes — corrupt data never reaches a client.
    let restarted = Server::bind("127.0.0.1:0", config).expect("rebind");
    let mut client = Client::connect(&restarted.addr().to_string()).expect("connect");
    let frames = client
        .submit_raw(&submit_line(&spec_json))
        .expect("post-corruption run");
    assert_eq!(
        frames.last().expect("terminal frame"),
        &direct,
        "the rebuilt result must be byte-identical despite the bit flip"
    );
    assert_eq!(restarted.metrics().counter("serve.cache.quarantined"), 1);
    assert!(
        artifacts.join(format!("{hash:016x}.art.quar")).exists(),
        "damaged bytes are preserved for post-mortem"
    );
    assert!(
        restarted
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::ArtifactQuarantined)),
        "quarantine must surface in the event stream"
    );
    // The rebuild re-persisted a clean artifact under the freed name.
    let reread = std::fs::read(&art).expect("rebuilt artifact exists");
    assert_ne!(reread, bytes, "the rebuilt envelope is the clean one");
    restarted.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_keeps_the_result_shard_bounded_with_identical_rebuilds() {
    // Size the bound from real frames: room for about two results, so
    // an 6-spec sweep must evict — but every spec must still serve
    // exact bytes, with the disk tier absorbing the evictions.
    let directs: Vec<(String, String)> = (0..6)
        .map(|i| {
            let json = tiny_spec(100 + i);
            let frame = runner::direct_result(&spec(&json)).expect("direct run");
            (json, frame)
        })
        .collect();
    let max_frame = directs.iter().map(|(_, f)| f.len() as u64).max().unwrap();
    let cap = max_frame * 2 + 64;

    let dir = temp_dir("eviction");
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            span_cycles: 0,
            cache: CacheLimits {
                result_bytes: cap,
                ..CacheLimits::default()
            },
            artifact_dir: Some(dir.join("artifacts")),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");

    // Two passes over the sweep: the second pass re-serves evicted
    // results (from disk or rebuild) — still byte-identical.
    for pass in 0..2 {
        for (json, direct) in &directs {
            let frames = client.submit_raw(&submit_line(json)).expect("submission");
            assert_eq!(
                frames.last().expect("terminal frame"),
                direct,
                "pass {pass}: eviction must never change served bytes"
            );
            assert!(
                server.result_cache_bytes() <= cap,
                "pass {pass}: result shard over its bound ({} > {cap})",
                server.result_cache_bytes()
            );
        }
    }

    let metrics = server.metrics();
    assert!(
        metrics.counter("serve.cache.result_evictions") >= 4,
        "an over-capacity sweep must evict: {}",
        metrics.to_json()
    );
    assert!(
        metrics.counter("serve.cache.disk_hits") >= 1,
        "evicted results must come back from the disk tier: {}",
        metrics.to_json()
    );
    assert_eq!(metrics.counter("serve.cache.quarantined"), 0);
    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_under_load_resumes_and_serves_identical_bytes() {
    let dir = temp_dir("kill");
    let config = ServerConfig {
        workers: 1,
        span_cycles: 0,
        state_path: Some(dir.join("queue.snap")),
        artifact_dir: Some(dir.join("artifacts")),
        ..ServerConfig::default()
    };

    // Load the single worker with an occupier, stack jobs behind it,
    // then kill ("now" shutdown checkpoints the queue mid-flight).
    let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind loopback");
    let addr = server.addr().to_string();
    let mut submitters = Vec::new();
    let occupier = r#"{"benchmark":"x264","policy":"vrl","rows":1024,"duration_ms":160}"#;
    for spec_json in [occupier.to_owned(), tiny_spec(501), tiny_spec(502)] {
        let mut client = Client::connect(&addr).expect("connect");
        let ack = client
            .request_one(&submit_line(&spec_json))
            .expect("ack frame");
        assert!(ack.starts_with("{\"type\":\"ack\""), "{ack}");
        submitters.push(client);
    }
    let saved = server.shutdown(false);
    assert!(saved >= 1, "the occupier must still be pending at the kill");
    drop(submitters);

    // The restarted daemon resumes the manifest and then serves every
    // killed job's result byte-identical to a direct run.
    let restarted = Server::bind("127.0.0.1:0", config).expect("rebind");
    let deadline = Instant::now() + Duration::from_secs(120);
    while restarted.metrics().counter("serve.jobs.completed") < saved as u64 {
        assert!(
            Instant::now() < deadline,
            "resumed jobs never completed: {}",
            restarted.metrics().to_json()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(restarted.pool_panics(), 0);
    let mut client = Client::connect(&restarted.addr().to_string()).expect("connect");
    for spec_json in [occupier.to_owned(), tiny_spec(501), tiny_spec(502)] {
        let frames = client
            .submit_raw(&submit_line(&spec_json))
            .expect("post-resume submission");
        let direct = runner::direct_result(&spec(&spec_json)).expect("direct run");
        assert_eq!(frames.last().expect("terminal frame"), &direct);
    }
    restarted.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}
