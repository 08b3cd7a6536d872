//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare A.json B.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports per-layer self
//! times. The last stdout line is the JSON result; a stamped copy (and,
//! when traced, every span) is written under `.perfbench-out/`. See
//! `perfbench/README.md` for the workloads and what each one stresses.

mod fig4;
mod layers;
mod report;
mod served;
mod spans;
mod workload;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vrl_serve::{ArtifactCache, ServerConfig};

use report::{latency, median, per, Metrics, Stamp};
use served::{Kind, Pass};
use spans::SpanLog;
use workload::{Spec, Workload};

/// Where results and spans are written, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench-out";

/// Set-up repetitions of a served workload (the median is reported).
const SETUP_REPS: usize = 3;

/// Requests per client in `replay-hot`'s traced passes.
const REPLAY_TRACE_OPS: usize = 3000;

/// Telemetry reads issued after the traced pass of a workload whose mix
/// has none, so every workload reports `obs.*`.
const OBS_PROBES: usize = 20;

/// What one run measured.
#[derive(Debug)]
pub struct RunOutput {
    /// Reported metrics, in `BENCHMARK.json` order.
    pub metrics: Metrics,
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong bytes.
    pub failed: u64,
    /// Outputs and workload shape checked out.
    pub correct: bool,
    /// Human-readable details (tail percentile, drift, checks).
    pub notes: Vec<(String, String)>,
    /// The scale stamped into the result.
    pub scale: String,
    /// Spans of a traced run, by source.
    pub spans: Vec<(String, Vec<SpanLog>)>,
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("retention.profile_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("trace.gen_ms", "ms"),
    ("trace.ns_per_record", "ns"),
    ("trace.bytes", "bytes"),
    ("dram.sim_ms", "ms"),
    ("dram.ns_per_event", "ns"),
    ("dram.frfcfs_ms", "ms"),
    ("sched.sched_ms", "ms"),
    ("sched.dimm_ms", "ms"),
    ("sched.ns_per_event", "ns"),
    ("core.span_overhead_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.frames_per_job", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache.profile.hit_ratio", "ratio"),
    ("serve.cache.plan.hit_ratio", "ratio"),
    ("serve.cache.trace.hit_ratio", "ratio"),
    ("serve.cache.result.hit_ratio", "ratio"),
    ("serve.cache.profile.evictions", "count"),
    ("serve.cache.plan.evictions", "count"),
    ("serve.cache.trace.evictions", "count"),
    ("serve.cache.result.evictions", "count"),
    ("exec.mean_utilization", "ratio"),
    ("exec.slowest_job_ms", "ms"),
    ("obs.scrape_ms", "ms"),
    ("obs.health_ms", "ms"),
    ("bench.tracing_overhead_ms", "ms"),
];

/// Every per-layer metric at 0; a traced run fills in what its
/// workload exercises (a layer a workload never calls stays 0).
pub fn layer_metrics_zeroed() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.push(name, 0.0, unit);
    }
    m
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn scale(workload: Workload) -> &'static str {
    match workload {
        Workload::ColdPipeline => "8192 rows x 512 ms, default ServerConfig, 2 closed-loop clients",
        Workload::EngineMix => {
            "8192 rows x 512 ms, 3 pre-built traces, default ServerConfig, 2 closed-loop clients"
        }
        Workload::ReplayHot => {
            "512 rows x 64 ms cached set, default ServerConfig, 2 closed-loop clients"
        }
        Workload::Fig4Matrix => fig4::SCALE,
    }
}

/// Fig. 4's reductions over a pass's first-round `sim` frames.
fn pass_fig4(pass: &Pass, frames: &HashMap<usize, String>) -> (f64, f64) {
    let items =
        (0..pass.round0).filter_map(|i| Some((&pass.specs[i].job, frames.get(&i)?.as_str())));
    served::fig4_reductions(items).unwrap_or((0.0, 0.0))
}

fn served_run(workload: Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    // The timed pass runs on the first daemon, so its memory is not
    // inflated by earlier daemons' freed-but-retained heap; the further
    // set-ups for the median run after it.
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let server = served::setup(workload, seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok::<_, String>(server)
    };
    let mut setup_s = Vec::new();
    let server = timed_setup(&mut setup_s)?;
    let pass = served::pass(
        &server,
        workload,
        seed,
        Duration::from_secs_f64(seconds),
        None,
        false,
    )?;
    server.shutdown(true);
    while setup_s.len() < SETUP_REPS {
        timed_setup(&mut setup_s)?.shutdown(true);
    }

    let mut notes = Vec::new();
    let shape = pass.check_shape(workload);
    notes.push((
        "shape".into(),
        shape.clone().err().unwrap_or_else(|| "ok".into()),
    ));
    let refs = served::references(&pass.specs, &pass.used_specs())?;
    let failed = pass.failures(&refs);
    let attempted = pass.records().count() as u64;
    let mut done: Vec<&served::Record> = pass.records().filter(|r| r.ok).collect();
    done.sort_by_key(|r| r.end);
    let ok_ms: Vec<f64> = done.iter().map(|r| r.ms()).collect();
    let lat = latency(&ok_ms).ok_or("no request completed")?;
    let wall = pass.wall.as_secs_f64();
    let (v, va) = pass_fig4(&pass, &refs);

    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setup_s), "s");
    metrics.push("jobs_per_s", ok_ms.len() as f64 / wall, "1/s");
    metrics.push("latency_p50_ms", lat.p50, "ms");
    metrics.push("latency_tail_ms", lat.tail, "ms");
    metrics.push("peak_rss_mb", pass.peak_rss_mb, "MB");
    metrics.push("fig4.vrl_reduction_pct", v, "%");
    metrics.push("fig4.vrl_access_reduction_pct", va, "%");
    notes.push((
        "latency_tail".into(),
        format!(
            "p{:.2} of {} samples ({} window(s) of consecutive requests, median)",
            lat.tail_pct, lat.count, lat.windows
        ),
    ));
    notes.push((
        "error_rate".into(),
        format!(
            "{} ({failed} of {attempted})",
            failed as f64 / attempted as f64
        ),
    ));
    notes.push((
        "pass".into(),
        format!(
            "{} rounds, {} distinct specs checked against direct_result, wall {wall:.3} s, set-up samples {setup_s:?}",
            pass.rounds,
            refs.len()
        ),
    ));
    Ok(RunOutput {
        metrics,
        attempted,
        failed,
        correct: shape.is_ok() && failed == 0,
        notes,
        scale: scale(workload).into(),
        spans: Vec::new(),
    })
}

fn served_traced(workload: Workload, seed: u64) -> Result<RunOutput, String> {
    let replay = workload == Workload::ReplayHot;
    // One round of the spec list, or a fixed request count per client.
    let (budget, max_ops) = if replay {
        (Duration::MAX, Some(REPLAY_TRACE_OPS))
    } else {
        (Duration::ZERO, None)
    };
    let mut notes = Vec::new();

    let server = served::setup(workload, seed)?;
    let untraced = served::pass(&server, workload, seed, budget, max_ops, false)?;
    server.shutdown(true);

    let server = served::setup(workload, seed)?;
    let traced = served::pass(&server, workload, seed, budget, max_ops, true)?;
    let epoch = Instant::now();
    let mut client_logs = traced.client_spans(epoch);
    if !replay {
        // This workload's mix has no telemetry reads: time a few on the
        // loaded daemon so `obs.*` is measured everywhere.
        let mut client = vrl_serve::Client::connect(&server.addr().to_string())
            .map_err(|e| format!("connect: {e}"))?;
        let mut probe = SpanLog::new(epoch);
        for i in 0..OBS_PROBES {
            let s = probe.open("obs.health", None, i as u64);
            let ok = client.health().is_ok_and(|f| f.contains("\"ready\":true"));
            probe.close(s);
            let s = probe.open("obs.scrape", None, i as u64);
            let ok = ok && client.metrics_text(None).is_ok_and(|b| !b.is_empty());
            probe.close(s);
            if !ok {
                return Err("telemetry probe failed".into());
            }
        }
        client_logs.push(probe);
    }
    let trace_bytes = server.metrics().gauge("serve.cache.trace_bytes");
    server.shutdown(true);

    // In-process layer replay of the same jobs, after the same set-up.
    let cache = ArtifactCache::new();
    let span_cycles = ServerConfig::default().span_cycles;
    let mut scratch = layers::Tracer::new(epoch);
    for spec in served::setup_specs(workload, seed) {
        layers::replay_job(&cache, &spec.job, span_cycles, &mut scratch, 0)
            .map_err(|e| format!("set-up replay failed: {e}"))?;
    }
    let job_specs: Vec<&Spec> = traced
        .records()
        .filter(|r| r.kind == Kind::Job)
        .map(|r| &traced.specs[r.spec])
        .collect();
    let jobs: Vec<&vrl_serve::JobSpec> = job_specs.iter().map(|s| &s.job).collect();
    let replay_start = Instant::now();
    let layers::Replay {
        frames,
        logs,
        counts,
    } = layers::replay(&cache, &jobs, span_cycles, served::CLIENTS, epoch)
        .map_err(|e| format!("layer replay failed: {e}"))?;
    let replay_wall = replay_start.elapsed().as_secs_f64();

    // Served frames must match the in-process ones byte for byte.
    let mut expected: HashMap<usize, String> = HashMap::new();
    for (r, frame) in traced
        .records()
        .filter(|r| r.kind == Kind::Job)
        .zip(&frames)
    {
        expected.entry(r.spec).or_insert_with(|| frame.to_string());
    }
    let failed = traced.failures(&expected) + untraced.failures(&expected);
    let mut correct = failed == 0;
    for (name, pass) in [("untraced", &untraced), ("traced", &traced)] {
        if let Err(e) = pass.check_shape(workload) {
            correct = false;
            notes.push((format!("shape.{name}"), e));
        }
    }

    let n = jobs.len().max(1) as f64;
    let own = spans::self_ms(&logs);
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let job_records = || traced.records().filter(|r| r.kind == Kind::Job);
    let reads = |name: &str| {
        mean(client_logs.iter().flat_map(|l| {
            (0..l.spans.len())
                .filter(move |&i| l.spans[i].name == name)
                .map(move |i| l.ms(i))
        }))
    };
    let mut m = layer_metrics_zeroed();
    m.set("retention.profile_ms", get("retention.profile") / n);
    m.set("core.plan_ms", get("core.plan") / n);
    m.set("trace.gen_ms", get("trace.gen") / n);
    m.set(
        "trace.ns_per_record",
        per(get("trace.gen") * 1e6, counts.records),
    );
    m.set("trace.bytes", trace_bytes as f64);
    m.set("dram.sim_ms", get("dram.sim") / n);
    m.set(
        "dram.ns_per_event",
        per(get("dram.sim") * 1e6, counts.sim_events),
    );
    m.set("dram.frfcfs_ms", get("dram.frfcfs") / n);
    m.set("sched.sched_ms", get("sched.sched") / n);
    m.set("sched.dimm_ms", get("sched.dimm") / n);
    let sched_ms = get("sched.sched") + get("sched.dimm");
    m.set(
        "sched.ns_per_event",
        per(sched_ms * 1e6, counts.sched_events),
    );
    let plain: f64 = layers::ENGINE_SPANS.iter().map(|s| get(s)).sum();
    m.set("core.span_overhead_ms", (get("engine.spanned") - plain) / n);
    m.set("serve.serialize_ms", get("serve.serialize") / n);
    m.set(
        "serve.frames_per_job",
        mean(job_records().map(|r| f64::from(r.frames))),
    );
    let served_ms = mean(job_records().map(|r| r.ms()));
    let in_process_ms = mean(layers::daemon_path_ms(&logs).into_iter());
    m.set("serve.overhead_ms", served_ms - in_process_ms);
    m.set(
        "serve.queue_wait_ms",
        mean(job_records().filter_map(|r| {
            let p = r.phases.as_deref()?;
            Some(p.running?.saturating_sub(p.ack?).as_secs_f64() * 1e3)
        })),
    );
    for shard in ["profile", "plan", "trace", "result"] {
        m.set(
            &format!("serve.cache.{shard}.hit_ratio"),
            traced.hit_ratio(shard),
        );
        m.set(
            &format!("serve.cache.{shard}.evictions"),
            traced.cache_delta(shard, "evictions") as f64,
        );
    }
    m.set("obs.scrape_ms", reads("obs.scrape"));
    m.set("obs.health_ms", reads("obs.health"));
    let ops = traced.records().count().max(1) as f64;
    let (wall_t, wall_u) = (traced.wall.as_secs_f64(), untraced.wall.as_secs_f64());
    m.set("bench.tracing_overhead_ms", (wall_t - wall_u) * 1e3 / ops);
    notes.push((
        "layers".into(),
        format!(
            "per-job self times over {} jobs; engines run twice (plain and span-segmented); walls: untraced {wall_u:.3} s, traced {wall_t:.3} s, layer replay {replay_wall:.3} s",
            jobs.len()
        ),
    ));
    Ok(RunOutput {
        metrics: m,
        attempted: traced.records().count() as u64,
        failed,
        correct,
        notes,
        scale: scale(workload).into(),
        spans: vec![("client".into(), client_logs), ("in-process".into(), logs)],
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (known: {})", known.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.get(1..3) {
            Some([a, b]) => match report::compare(Path::new(a), Path::new(b)) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench compare: refused: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: perfbench compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload, args.trace) {
        (Workload::Fig4Matrix, false) => fig4::run(args.seconds),
        (Workload::Fig4Matrix, true) => fig4::run_traced(),
        (w, false) => served_run(w, args.seed, args.seconds),
        (w, true) => served_traced(w, args.seed),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stamp = Stamp::current(args.workload.name(), args.seed, &out.scale);
    println!("# host: {}", stamp.to_json());
    for (k, v) in &out.notes {
        println!("# {k}: {v}");
    }
    for m in &out.metrics.0 {
        println!(
            "{:40} {:>16} {}",
            m.name,
            report::json_number(m.value),
            m.unit
        );
    }
    let line = report::result_line(out.correct, out.attempted, out.failed, &out.metrics);
    let dir = Path::new(OUT_DIR);
    match report::write_result(dir, &stamp, args.trace, &line, &out.notes) {
        Ok(path) => println!("# result written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write result file: {e}"),
    }
    if !out.spans.is_empty() {
        let path = dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let groups: Vec<(&str, &[SpanLog])> = out
            .spans
            .iter()
            .map(|(s, l)| (s.as_str(), l.as_slice()))
            .collect();
        match spans::write(&path, &groups) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}
