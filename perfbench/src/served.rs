//! The served workloads: an in-process `vrl_serve::Server` on loopback
//! with the default `ServerConfig`, driven by closed-loop clients (each
//! sends its next request only after the previous one's terminal
//! frame). Latency is taken from raw client-side samples only; the
//! daemon's `serve.job.*_us` histograms are never read (their buckets
//! are too coarse to time a job).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vrl_exec::{map_ordered, ExecConfig};
use vrl_obs::MetricsSnapshot;
use vrl_serve::protocol::is_terminal;
use vrl_serve::spec::{FrontEnd, JobSpec};
use vrl_serve::{Client, Server, ServerConfig};

use crate::report::with_peak_rss;
use crate::spans::SpanLog;
use crate::workload::{
    cold_round, cold_warmup, engine_round, engine_setup, replay_set, Op, OpStream, Spec, Workload,
};

/// Closed-loop clients per served workload (the host has two cores).
pub const CLIENTS: usize = 2;

/// One request a client sends.
#[derive(Debug, Clone)]
pub enum Req {
    /// Submit spec `spec` (an index into the run's spec table).
    Job {
        /// Index into the run's spec table.
        spec: usize,
        /// The `submit` line.
        line: Arc<str>,
    },
    /// A `health` read.
    Health,
    /// A `metrics` text scrape.
    Metrics,
}

/// What kind of request a [`Record`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A submission.
    Job,
    /// A `health` read.
    Health,
    /// A `metrics` scrape.
    Metrics,
}

/// One client-side sample. Times are offsets from the run's epoch.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request kind.
    pub kind: Kind,
    /// The terminal frame was a well-formed success.
    pub ok: bool,
    /// Frames received, terminal included.
    pub frames: u32,
    /// Spec-table index (jobs only).
    pub spec: usize,
    /// Request sent.
    pub start: Duration,
    /// Terminal frame received.
    pub end: Duration,
    /// Intermediate frame times, taken only when tracing.
    pub phases: Option<Box<Phases>>,
}

/// When a traced job's lifecycle frames arrived.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// `ack` frame received.
    pub ack: Option<Duration>,
    /// `running` state frame received.
    pub running: Option<Duration>,
    /// Last `progress` frame received.
    pub last_progress: Option<Duration>,
}

impl Record {
    fn new(kind: Kind, start: Duration) -> Record {
        Record {
            kind,
            ok: false,
            frames: 0,
            spec: 0,
            start,
            end: start,
            phases: None,
        }
    }

    /// Round-trip latency in ms.
    pub fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64() * 1e3
    }
}

/// The first result frame a client saw for a spec, and how many later
/// results for the same spec differed from it.
#[derive(Debug)]
struct Seen {
    frame: String,
    count: u64,
    mismatched: u64,
}

/// Everything one client recorded.
#[derive(Debug)]
pub struct ClientLog {
    /// Samples in send order.
    pub records: Vec<Record>,
    seen: HashMap<usize, Seen>,
}

/// A client's request source: given the time since the epoch, the next
/// request, or `None` to stop.
pub type Source<'a> = Box<dyn FnMut(Duration) -> Option<Req> + Send + 'a>;

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn submit(
    client: &mut Client,
    line: &str,
    epoch: Instant,
    trace: bool,
) -> (Record, Option<String>) {
    let mut rec = Record::new(Kind::Job, epoch.elapsed());
    if trace {
        rec.phases = Some(Box::default());
    }
    let mut next = client.request_one(line);
    loop {
        let frame = match next {
            Ok(frame) => frame,
            Err(_) => {
                rec.end = epoch.elapsed();
                return (rec, None);
            }
        };
        rec.frames += 1;
        if is_terminal(&frame) {
            rec.end = epoch.elapsed();
            rec.ok = frame.starts_with("{\"type\":\"result\"");
            let result = rec.ok.then_some(frame);
            return (rec, result);
        }
        if let Some(phases) = rec.phases.as_deref_mut() {
            let now = Some(epoch.elapsed());
            if frame.starts_with("{\"type\":\"progress\"") {
                phases.last_progress = now;
            } else if frame.starts_with("{\"type\":\"ack\"") {
                phases.ack = now;
            } else if frame.contains("\"state\":\"running\"") {
                phases.running = now;
            }
        }
        next = client.recv();
    }
}

fn read(client: &mut Client, kind: Kind, epoch: Instant) -> Record {
    let mut rec = Record::new(kind, epoch.elapsed());
    rec.frames = 1;
    rec.ok = match kind {
        Kind::Health => client
            .health()
            .is_ok_and(|f| f.starts_with("{\"type\":\"health\"") && f.contains("\"ready\":true")),
        _ => client
            .metrics_text(None)
            .is_ok_and(|body| body.contains("serve_cache_result_hits")),
    };
    rec.end = epoch.elapsed();
    rec
}

/// Runs every client against its source until all sources stop.
fn drive(
    clients: Vec<Client>,
    sources: Vec<Source<'_>>,
    epoch: Instant,
    trace: bool,
) -> Vec<ClientLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(sources)
            .map(|(mut client, mut source)| {
                scope.spawn(move || {
                    // Reserved up front so growing the sample store never
                    // copies it mid-run (untouched capacity costs no RSS).
                    let mut log = ClientLog {
                        records: Vec::with_capacity(1 << 20),
                        seen: HashMap::new(),
                    };
                    while let Some(req) = source(epoch.elapsed()) {
                        let rec = match req {
                            Req::Job { spec, line } => {
                                let (mut rec, frame) = submit(&mut client, &line, epoch, trace);
                                rec.spec = spec;
                                if let Some(frame) = frame {
                                    match log.seen.entry(spec) {
                                        Entry::Occupied(mut e) => {
                                            let seen = e.get_mut();
                                            seen.count += 1;
                                            seen.mismatched += u64::from(seen.frame != frame);
                                        }
                                        Entry::Vacant(e) => {
                                            e.insert(Seen {
                                                frame,
                                                count: 1,
                                                mismatched: 0,
                                            });
                                        }
                                    }
                                }
                                rec
                            }
                            Req::Health => read(&mut client, Kind::Health, epoch),
                            Req::Metrics => read(&mut client, Kind::Metrics, epoch),
                        };
                        let failed = !rec.ok;
                        log.records.push(rec);
                        if failed {
                            // A broken connection cannot be trusted for the
                            // rest of the run; the failure is counted.
                            break;
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Sources that hand a fixed list of submissions, in order, to
/// whichever client is free.
fn shared_list<'a>(lines: &'a [Arc<str>], next: &'a AtomicUsize) -> Vec<Source<'a>> {
    (0..CLIENTS)
        .map(|_| {
            Box::new(move |_now: Duration| {
                let spec = next.fetch_add(1, Ordering::Relaxed);
                lines.get(spec).map(|line| Req::Job {
                    spec,
                    line: Arc::clone(line),
                })
            }) as Source<'a>
        })
        .collect()
}

/// Whole rounds a pass of `cold-pipeline` or `engine-mix` runs: the
/// budget divided by the round's length on the 2-core host the
/// benchmark was tuned on (about 6 s and 5 s), rounded up, at least
/// one. The work is fixed rather than cut off by the clock, so a slow
/// stretch of the host cannot change which jobs a run measures.
fn rounds_for(workload: Workload, budget: Duration) -> u64 {
    let nominal_s = match workload {
        Workload::ColdPipeline => 6.0,
        _ => 5.0,
    };
    ((budget.as_secs_f64() / nominal_s).ceil() as u64).max(1)
}

/// The spec list a workload's set-up runs.
pub fn setup_specs(workload: Workload, seed: u64) -> Vec<Spec> {
    match workload {
        Workload::ColdPipeline => vec![cold_warmup(seed)],
        Workload::EngineMix => engine_setup(seed),
        Workload::ReplayHot => replay_set(seed),
        Workload::Fig4Matrix => unreachable!("fig4-matrix is not served"),
    }
}

/// Starts a daemon with the default configuration and runs the
/// workload's set-up specs through it.
pub fn setup(workload: Workload, seed: u64) -> Result<Server, String> {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let health = connect(&addr)?
        .health()
        .map_err(|e| format!("health: {e}"))?;
    if !health.contains("\"ready\":true") {
        return Err(format!("daemon not ready: {health}"));
    }
    let specs = setup_specs(workload, seed);
    let lines: Vec<Arc<str>> = specs.iter().map(|s| Arc::from(s.submit_line())).collect();
    let logs = run_list(&addr, &lines)?;
    if logs.iter().flat_map(|l| &l.records).any(|r| !r.ok) {
        return Err("a set-up job failed".to_owned());
    }
    Ok(server)
}

/// Runs a fixed list of submissions across the clients.
fn run_list(addr: &str, lines: &[Arc<str>]) -> Result<Vec<ClientLog>, String> {
    let next = AtomicUsize::new(0);
    let clients = (0..CLIENTS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(drive(
        clients,
        shared_list(lines, &next),
        Instant::now(),
        false,
    ))
}

/// A timed pass over a daemon that set-up already prepared.
pub struct Pass {
    /// Per-client samples.
    pub logs: Vec<ClientLog>,
    /// Every spec the pass could submit (index = `Record::spec`).
    pub specs: Vec<Spec>,
    /// Specs in the first round (the Fig. 4 reference subset).
    pub round0: usize,
    /// Whole rounds run (1 for `replay-hot`).
    pub rounds: u64,
    /// Wall time from the first request to the last terminal frame.
    pub wall: Duration,
    /// Largest resident set during the pass, in MB.
    pub peak_rss_mb: f64,
    /// Daemon metrics before and after the pass.
    pub before: MetricsSnapshot,
    /// See `before`.
    pub after: MetricsSnapshot,
}

/// How long a pass runs: [`rounds_for`] whole rounds (`cold-pipeline`,
/// `engine-mix`), or requests until `budget` has passed (`replay-hot`,
/// optionally capped at `max_ops` per client).
pub fn pass(
    server: &Server,
    workload: Workload,
    seed: u64,
    budget: Duration,
    max_ops: Option<usize>,
    trace: bool,
) -> Result<Pass, String> {
    let addr = server.addr().to_string();
    let clients = (0..CLIENTS)
        .map(|_| connect(&addr))
        .collect::<Result<Vec<_>, _>>()?;
    let run = |sources: Vec<Source<'_>>| {
        let before = server.metrics();
        let epoch = Instant::now();
        let (logs, peak_rss_mb) = with_peak_rss(|| drive(clients, sources, epoch, trace));
        let wall = epoch.elapsed();
        (logs, wall, peak_rss_mb, before, server.metrics())
    };
    match workload {
        Workload::ReplayHot => {
            let specs = replay_set(seed);
            let lines: Vec<Arc<str>> = specs.iter().map(|s| Arc::from(s.submit_line())).collect();
            let sources = (0..CLIENTS)
                .map(|c| {
                    let lines = &lines;
                    let mut ops = OpStream::new(seed, c as u64, lines.len());
                    let mut left = max_ops.unwrap_or(usize::MAX);
                    Box::new(move |now: Duration| {
                        if now >= budget || left == 0 {
                            return None;
                        }
                        left -= 1;
                        Some(match ops.next()? {
                            Op::Submit(spec) => Req::Job {
                                spec,
                                line: Arc::clone(&lines[spec]),
                            },
                            Op::Health => Req::Health,
                            Op::Metrics => Req::Metrics,
                        })
                    }) as Source<'_>
                })
                .collect();
            let (logs, wall, peak_rss_mb, before, after) = run(sources);
            Ok(Pass {
                logs,
                round0: specs.len(),
                specs,
                rounds: 1,
                wall,
                peak_rss_mb,
                before,
                after,
            })
        }
        Workload::ColdPipeline | Workload::EngineMix => {
            let rounds = rounds_for(workload, budget);
            let round = |r| match workload {
                Workload::ColdPipeline => cold_round(seed, r),
                _ => engine_round(seed, r),
            };
            let specs: Vec<Spec> = (0..rounds).flat_map(round).collect();
            let lines: Vec<Arc<str>> = specs.iter().map(|s| Arc::from(s.submit_line())).collect();
            let next = AtomicUsize::new(0);
            let (logs, wall, peak_rss_mb, before, after) = run(shared_list(&lines, &next));
            Ok(Pass {
                logs,
                round0: specs.len() / rounds as usize,
                specs,
                rounds,
                wall,
                peak_rss_mb,
                before,
                after,
            })
        }
        Workload::Fig4Matrix => unreachable!("fig4-matrix is not served"),
    }
}

impl Pass {
    /// Every sample.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.logs.iter().flat_map(|l| &l.records)
    }

    /// Spec-table indices that produced at least one result.
    pub fn used_specs(&self) -> Vec<usize> {
        let mut used: Vec<usize> = self
            .logs
            .iter()
            .flat_map(|l| l.seen.keys().copied())
            .collect();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Operations that failed, were refused, or returned a result
    /// frame that differs from `expected[spec]`.
    pub fn failures(&self, expected: &HashMap<usize, String>) -> u64 {
        let mut failed = self.records().filter(|r| !r.ok).count() as u64;
        for log in &self.logs {
            for (spec, seen) in &log.seen {
                failed += if expected.get(spec) == Some(&seen.frame) {
                    seen.mismatched
                } else {
                    seen.count
                };
            }
        }
        failed
    }

    /// Change of one `serve.cache.*` counter over the pass.
    pub fn cache_delta(&self, shard: &str, what: &str) -> u64 {
        let name = format!("serve.cache.{shard}_{what}");
        self.after.counter(&name) - self.before.counter(&name)
    }

    /// Hit ratio of one cache shard over the pass (0 with no lookups).
    pub fn hit_ratio(&self, shard: &str) -> f64 {
        let hits = self.cache_delta(shard, "hits") as f64;
        let total = hits + self.cache_delta(shard, "misses") as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// The workload's shape assertion over this pass's cache counters;
    /// `Err` names what did not hold.
    pub fn check_shape(&self, workload: Workload) -> Result<(), String> {
        let trace_hits = self.cache_delta("trace", "hits");
        let trace_misses = self.cache_delta("trace", "misses");
        let ok = match workload {
            Workload::ColdPipeline => trace_hits == 0 && trace_misses > 0,
            Workload::EngineMix => {
                trace_misses == 0
                    && trace_hits > 0
                    && self.cache_delta("trace", "evictions") == 0
                    && self.cache_delta("result", "hits") == 0
            }
            Workload::ReplayHot => {
                self.cache_delta("result", "misses") == 0 && self.cache_delta("result", "hits") > 0
            }
            Workload::Fig4Matrix => true,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "cache shape violated: trace hit ratio {:.3} (misses {trace_misses}, evictions {}), result hit ratio {:.3}",
                self.hit_ratio("trace"),
                self.cache_delta("trace", "evictions"),
                self.hit_ratio("result")
            ))
        }
    }

    /// Client-side spans: submit → ack → running → progress → terminal
    /// for jobs, one span per read.
    pub fn client_spans(&self, epoch: Instant) -> Vec<SpanLog> {
        let mut request = 0u64;
        self.logs
            .iter()
            .map(|log| {
                let mut spans = SpanLog::new(epoch);
                for r in &log.records {
                    request += 1;
                    let name = match r.kind {
                        Kind::Job => "client.job",
                        Kind::Health => "obs.health",
                        Kind::Metrics => "obs.scrape",
                    };
                    let root = spans.record(name, r.start, r.end, None, request);
                    if r.kind != Kind::Job {
                        continue;
                    }
                    let phases = r.phases.as_deref().cloned().unwrap_or_default();
                    let ack = phases.ack.unwrap_or(r.start);
                    let running = phases.running.unwrap_or(ack);
                    let progress = phases.last_progress.unwrap_or(running);
                    spans.record("client.ack", r.start, ack, Some(root), request);
                    spans.record("client.queue", ack, running, Some(root), request);
                    spans.record("client.progress", running, progress, Some(root), request);
                    spans.record("client.result", progress, r.end, Some(root), request);
                }
                spans
            })
            .collect()
    }
}

/// `runner::direct_result` for each spec, two at a time — the
/// reference every served frame is byte-compared against.
pub fn references(specs: &[Spec], which: &[usize]) -> Result<HashMap<usize, String>, String> {
    let frames = map_ordered(&ExecConfig::new(CLIENTS), which, |_, &i| {
        vrl_serve::runner::direct_result(&specs[i].job)
    })
    .map_err(|e| format!("reference run failed: {e}"))?;
    Ok(which.iter().copied().zip(frames).collect())
}

/// Fig. 4's two reductions over `sim` result frames: per benchmark,
/// refresh-busy cycles of VRL and VRL-Access summed and normalized to
/// RAIDR's, then averaged over benchmarks as the `fig4` binary does.
/// `None` when no benchmark has all three policies.
pub fn fig4_reductions<'a>(
    items: impl Iterator<Item = (&'a JobSpec, &'a str)>,
) -> Option<(f64, f64)> {
    use vrl_dram::experiment::PolicyKind;
    let mut sums: std::collections::BTreeMap<&str, [f64; 3]> = Default::default();
    for (spec, frame) in items {
        if spec.front_end != FrontEnd::Sim {
            continue;
        }
        let col = match spec.policy {
            PolicyKind::Raidr => 0,
            PolicyKind::Vrl => 1,
            PolicyKind::VrlAccess => 2,
            PolicyKind::Auto => continue,
        };
        let busy = vrl_obs::json::parse(frame)
            .ok()
            .and_then(|v| v.get("stats")?.get("refresh_busy_cycles")?.as_f64())?;
        sums.entry(spec.benchmark.as_str()).or_default()[col] += busy;
    }
    let rows: Vec<[f64; 3]> = sums
        .into_values()
        .filter(|s| s.iter().all(|&c| c > 0.0))
        .collect();
    if rows.is_empty() {
        return None;
    }
    let n = rows.len() as f64;
    let vrl = rows.iter().map(|r| r[1] / r[0]).sum::<f64>() / n;
    let vrl_access = rows.iter().map(|r| r[2] / r[0]).sum::<f64>() / n;
    Some(((1.0 - vrl) * 100.0, (1.0 - vrl_access) * 100.0))
}
