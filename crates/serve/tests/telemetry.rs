//! Telemetry-plane integration tests: readiness that tracks queue
//! saturation, metrics exposition stability, per-phase histograms,
//! snapshot-delta history replay, live event subscription, and the
//! bounded-slow-consumer contract — all while job results stay
//! byte-identical to direct runs.

use std::time::{Duration, Instant};

use vrl_obs::event::ShedReason;
use vrl_obs::{histogram_total, is_name_sorted, parse_exposition};
use vrl_serve::spec::parse_spec;
use vrl_serve::{
    protocol, runner, Client, JobSpec, MetricsFormat, ServeLimits, Server, ServerConfig,
};

fn spec(json: &str) -> JobSpec {
    parse_spec(&vrl_obs::json::parse(json).expect("test spec is valid JSON")).expect("test spec")
}

fn start(config: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", config).expect("bind loopback")
}

fn submit_line(spec_json: &str) -> String {
    format!("{{\"type\":\"submit\",\"spec\":{spec_json}}}")
}

/// A distinct tiny spec per `n` (seed differs), so N calls make N
/// cold cache entries.
fn tiny_spec(n: u64) -> String {
    format!(r#"{{"benchmark":"x264","policy":"vrl","rows":128,"duration_ms":48,"seed":{n}}}"#)
}

/// Submits on a fresh connection and returns the terminal frame.
fn submit_terminal(addr: &str, spec_json: &str) -> String {
    let mut client = Client::connect(addr).expect("connect");
    let frames = client.submit_raw(&submit_line(spec_json)).expect("stream");
    frames.last().expect("terminal frame").clone()
}

#[test]
fn readiness_flips_at_queue_saturation_and_recovers_after_drain() {
    let server = start(ServerConfig {
        workers: 1,
        span_cycles: 0,
        limits: ServeLimits {
            max_queued_jobs: 3,
            ..ServeLimits::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();

    let initial = server.health();
    assert!(initial.ready, "idle server must be ready: {initial:?}");
    assert_eq!(initial.queue_limit, 3);
    assert_eq!(initial.queue_depth, 0);

    // Stagger three submissions, waiting for each to be admitted
    // (queue depth counts queued + running) before sending the next,
    // so none is shed and depth deterministically reaches the limit.
    let specs: Vec<String> = (0..3).map(tiny_spec).collect();
    let mut joins = Vec::new();
    for (i, spec_json) in specs.iter().enumerate() {
        let addr = addr.clone();
        let spec_json = spec_json.clone();
        joins.push(std::thread::spawn(move || {
            submit_terminal(&addr, &spec_json)
        }));
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.health().queue_depth < i as u64 + 1 {
            assert!(
                Instant::now() < deadline,
                "job {i} was never admitted: {:?}",
                server.health()
            );
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    // Depth == limit: the node must report itself saturated, by name.
    let saturated = server.health();
    assert!(!saturated.ready, "{saturated:?}");
    assert!(
        saturated.reasons.contains(&"queue_saturated"),
        "{saturated:?}"
    );

    // Results are unaffected by the telemetry plane: byte-identical to
    // direct runs.
    for (join, spec_json) in joins.into_iter().zip(&specs) {
        let served = join.join().expect("submitter thread");
        let direct = runner::direct_result(&spec(spec_json)).expect("direct run");
        assert_eq!(
            served, direct,
            "served bytes must match direct for {spec_json}"
        );
    }

    // Drained: ready again.
    let drained = server.health();
    assert!(drained.ready, "{drained:?}");
    assert_eq!(drained.queue_depth, 0);
    server.shutdown(true);
}

#[test]
fn run_histogram_counts_cold_builds_and_queue_wait_counts_every_job() {
    let server = start(ServerConfig {
        workers: 2,
        span_cycles: 0,
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();

    // Three cold specs, then a warm resubmission of the first: the
    // result cache serves it without a run phase.
    for n in 0..3 {
        submit_terminal(&addr, &tiny_spec(n));
    }
    submit_terminal(&addr, &tiny_spec(0));

    let metrics = server.metrics();
    assert_eq!(metrics.counter("serve.jobs.completed"), 4);
    let hist = |name: &str| {
        metrics
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("missing histogram {name}"))
    };
    assert_eq!(
        hist("serve.job.run_us").total(),
        3,
        "cache hits skip the run phase"
    );
    assert_eq!(hist("serve.job.serialize_us").total(), 3);
    assert_eq!(
        hist("serve.job.queue_wait_us").total(),
        4,
        "every admitted job waits in the queue, warm or cold"
    );

    // The same totals survive the text exposition round trip.
    let mut client = Client::connect(&addr).expect("connect");
    let text = client.metrics_text(None).expect("exposition");
    let families = parse_exposition(&text).expect("rendered exposition parses");
    assert!(is_name_sorted(&families), "{text}");
    assert_eq!(histogram_total(&families, "serve_job_run_us"), Some(3));
    assert_eq!(
        histogram_total(&families, "serve_job_queue_wait_us"),
        Some(4)
    );
    server.shutdown(true);
}

#[test]
fn metrics_exposition_is_byte_stable_and_prefix_filterable() {
    let server = start(ServerConfig {
        workers: 1,
        span_cycles: 0,
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();
    submit_terminal(&addr, &tiny_spec(7));

    // Two scrapes of an idle server are byte-identical — the
    // exposition carries no wall-clock values. Wait for true
    // quiescence first: the worker slot frees and the submitter's
    // closed connection is reaped asynchronously after the client has
    // its result, and both feed live gauges. One round trip first, so
    // the scraping connection is itself counted before the wait.
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let health = server.health();
        if health.queue_depth == 0 && health.conns_open == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never quiesced: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let first = client.metrics_text(None).expect("first scrape");
    let second = client.metrics_text(None).expect("second scrape");
    assert_eq!(first, second, "idle scrapes must be byte-stable");
    assert!(!first.is_empty());

    // Prefix filtering keeps only the asked-for subsystem.
    let cache_only = client.metrics_text(Some("serve.cache.")).expect("filtered");
    let families = parse_exposition(&cache_only).expect("filtered exposition parses");
    assert!(!families.is_empty());
    assert!(
        families.iter().all(|f| f.name.starts_with("serve_cache_")),
        "{cache_only}"
    );

    // The JSON format carries the same filter and the schema stamp.
    let json = client
        .metrics_frame(MetricsFormat::Json, Some("serve.jobs."))
        .expect("json frame");
    assert!(
        json.starts_with("{\"type\":\"metrics\",\"schema_version\":2,\"format\":\"json\""),
        "{json}"
    );
    assert!(json.contains("serve.jobs.completed"), "{json}");
    assert!(!json.contains("serve.cache."), "{json}");
    server.shutdown(true);
}

#[test]
fn history_replays_schema_stamped_snapshot_deltas() {
    let server = start(ServerConfig {
        workers: 1,
        span_cycles: 0,
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    assert!(
        client
            .stats()
            .expect("stats")
            .starts_with("{\"type\":\"stats\",\"schema_version\":2,\"metrics\":"),
        "stats frame must carry the schema stamp"
    );
    let health = client.health().expect("health");
    assert!(
        health
            .starts_with("{\"type\":\"health\",\"schema_version\":2,\"live\":true,\"ready\":true"),
        "{health}"
    );

    // Two completed jobs append two snapshots past the bind baseline.
    submit_terminal(&addr, &tiny_spec(1));
    submit_terminal(&addr, &tiny_spec(2));

    let frames = client.history(None).expect("history replay");
    assert!(
        frames[0].starts_with("{\"type\":\"history\",\"schema_version\":2,"),
        "{}",
        frames[0]
    );
    assert_eq!(
        frames.last().expect("end frame"),
        "{\"type\":\"history_end\",\"schema_version\":2}"
    );
    let deltas = &frames[1..frames.len() - 1];
    assert_eq!(
        deltas.len(),
        2,
        "baseline + one snapshot per job: {frames:#?}"
    );
    for delta in deltas {
        assert!(
            delta.starts_with("{\"type\":\"history_delta\",\"schema_version\":2,"),
            "{delta}"
        );
    }
    // Each job's delta shows exactly one completion.
    assert!(
        deltas
            .iter()
            .all(|d| d.contains("\"serve.jobs.completed\":1")),
        "{deltas:#?}"
    );
    // The server-side accessor agrees with the wire replay.
    assert_eq!(server.history_deltas().len(), 2);

    // `limit` keeps the most recent deltas only.
    let limited = client.history(Some(1)).expect("limited replay");
    assert_eq!(limited.len(), 3, "header + 1 delta + end: {limited:#?}");
    server.shutdown(true);
}

#[test]
fn subscribers_stream_job_lifecycle_events() {
    let server = start(ServerConfig {
        workers: 1,
        span_cycles: 0,
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();

    let mut sub = Client::connect_with_timeout(&addr, Some(Duration::from_secs(20)))
        .expect("connect subscriber");
    let ack = sub.subscribe().expect("subscribe ack");
    assert!(
        ack.starts_with("{\"type\":\"subscribed\",\"schema_version\":2,\"capacity\":"),
        "{ack}"
    );
    assert_eq!(server.subscriber_count(), 1);

    submit_terminal(&addr, &tiny_spec(11));

    // The stream carries the full lifecycle, schema-stamped, with the
    // cold-build marker on completion.
    let mut kinds = Vec::new();
    while !kinds.iter().any(|k: &String| k == "JobCompleted") {
        let frame = sub.recv().expect("event frame");
        assert!(
            frame.starts_with("{\"type\":\"event\",\"schema_version\":2,"),
            "{frame}"
        );
        let value = vrl_obs::json::parse(&frame).expect("event frame is valid JSON");
        let kind = value
            .get("kind")
            .and_then(|k| k.as_str())
            .expect("event has a kind")
            .to_string();
        if kind == "JobCompleted" {
            assert!(frame.contains("\"cached\":false"), "{frame}");
        }
        kinds.push(kind);
    }
    for expected in ["JobQueued", "JobStarted", "JobCompleted"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "missing {expected} in {kinds:?}"
        );
    }
    drop(sub);
    server.shutdown(true);
}

#[test]
fn subscriber_cap_sheds_with_busy_and_stalled_subscribers_stay_bounded() {
    let server = start(ServerConfig {
        workers: 2,
        span_cycles: 0,
        subscriber_buffer: 2,
        limits: ServeLimits {
            max_subscribers: 1,
            read_timeout_ms: 500,
            ..ServeLimits::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();

    // One subscriber slot: it acks with the configured bound, then
    // goes silent forever.
    let mut stalled = Client::connect(&addr).expect("connect subscriber");
    let ack = stalled.subscribe().expect("subscribe ack");
    assert!(ack.contains("\"capacity\":2"), "{ack}");

    // The second subscription is shed busy, typed — not queued.
    let mut second = Client::connect(&addr).expect("connect second");
    let reject = second.subscribe().expect("reject frame");
    assert_eq!(
        protocol::reject_reason(&reject),
        Some(ShedReason::Busy),
        "{reject}"
    );

    // Flood the stalled stream: results must stay byte-identical and
    // the per-subscriber queue must shed (drop counter advances)
    // rather than grow. Cached resubmits make each iteration cheap;
    // the first drop ends the flood.
    let direct = runner::direct_result(&spec(&tiny_spec(50))).expect("direct run");
    let mut submitter = Client::connect(&addr).expect("connect submitter");
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.subscriber_frames_dropped() == 0 {
        assert!(
            Instant::now() < deadline,
            "stalled subscriber never dropped a frame"
        );
        let frames = submitter
            .submit_raw(&submit_line(&tiny_spec(50)))
            .expect("flood submission");
        assert_eq!(frames.last().expect("terminal"), &direct);
    }
    assert!(server.subscriber_frames_dropped() > 0);

    // The daemon itself never stalls behind the dead consumer.
    let mut probe = Client::connect(&addr).expect("connect probe");
    assert_eq!(probe.ping().expect("pong"), "{\"type\":\"pong\"}");
    assert!(server.health().ready);
    server.shutdown(true);
}
