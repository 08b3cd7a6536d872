//! The traced in-process replay: each job goes through the same cache
//! shards and engines as `vrl_serve::runner::run_with_cache`, with a
//! span around every layer call, in the runner's order:
//! result cache → profile → plan → trace → engine → result frame.
//!
//! Each engine runs twice on the same trace: once through the plain
//! `run_*_with` entry point (the layer's cost) and once through the
//! span-segmented variant the daemon uses (whose stats must match bit
//! for bit, and whose extra time is the span overhead).

use std::sync::Arc;
use std::time::Instant;

use vrl_dram::experiment::{Experiment, PolicyKind};
use vrl_dram_sim::sim::NullObserver;
use vrl_dram_sim::AutoRefresh;
use vrl_exec::{map_ordered, ExecConfig};
use vrl_sched::{SchedConfig, SchedStats, Scheduler};
use vrl_serve::cache::{plan_key, profile_key, trace_key};
use vrl_serve::runner::{result_frame, Outcome};
use vrl_serve::spec::{FrontEnd, JobSpec};
use vrl_serve::ArtifactCache;
use vrl_trace::TraceRecord;

use crate::spans::SpanLog;

/// Span names of the plain engine runs.
pub const ENGINE_SPANS: [&str; 4] = ["dram.sim", "dram.frfcfs", "sched.sched", "sched.dimm"];

/// One replay thread's spans and work counts.
#[derive(Debug)]
pub struct Tracer {
    /// Spans recorded so far.
    pub log: SpanLog,
    /// Work done so far.
    pub counts: Counts,
}

impl Tracer {
    /// An empty tracer timing from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            log: SpanLog::new(epoch),
            counts: Counts::default(),
        }
    }
}

/// Everything [`replay`] produced.
#[derive(Debug)]
pub struct Replay {
    /// Each spec's result frame, in input order.
    pub frames: Vec<Arc<String>>,
    /// Each job's spans, in input order.
    pub logs: Vec<SpanLog>,
    /// Work counts summed over threads.
    pub counts: Counts,
}

/// Work counts behind the per-record and per-event rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Trace records generated (trace-cache misses only).
    pub records: u64,
    /// Events simulated by the single-bank engine.
    pub sim_events: u64,
    /// Events simulated by the scheduler (single channel and DIMM).
    pub sched_events: u64,
}

impl Counts {
    /// Adds another count.
    pub fn add(&mut self, other: Counts) {
        self.records += other.records;
        self.sim_events += other.sim_events;
        self.sched_events += other.sched_events;
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn dimm_channel<P>(
    experiment: &Experiment,
    sched: SchedConfig,
    policy: P,
    channel: u32,
    trace: &[TraceRecord],
) -> Result<SchedStats, String>
where
    P: vrl_dram_sim::policy::RefreshPolicy,
{
    Scheduler::for_channel(sched, policy, channel)
        .and_then(|mut s| {
            s.run_observed(
                trace.iter().copied(),
                experiment.config().duration_ms,
                &mut NullObserver,
            )
        })
        .map_err(text)
}

/// One DIMM channel shard, unsegmented (what `run_dimm_channel` runs,
/// minus its event recorder and its own trace generation).
fn dimm_channel_plain(
    experiment: &Experiment,
    kind: PolicyKind,
    sched: SchedConfig,
    channel: u32,
    trace: &[TraceRecord],
) -> Result<SchedStats, String> {
    let plan = experiment.plan();
    match kind {
        PolicyKind::Auto => dimm_channel(experiment, sched, AutoRefresh::new(64.0), channel, trace),
        PolicyKind::Raidr => dimm_channel(experiment, sched, plan.raidr(), channel, trace),
        PolicyKind::Vrl => dimm_channel(experiment, sched, plan.vrl(), channel, trace),
        PolicyKind::VrlAccess => dimm_channel(experiment, sched, plan.vrl_access(), channel, trace),
    }
}

/// Runs one spec's engine twice (plain, then spanned) under spans.
fn run_engine(
    experiment: &Experiment,
    spec: &JobSpec,
    trace: &[TraceRecord],
    span_cycles: u64,
    tracer: &mut Tracer,
    parent: usize,
    request: u64,
) -> Result<Outcome, String> {
    let log = &mut tracer.log;
    let kind = spec.policy;
    let records = || trace.iter().copied();
    let name = match spec.front_end {
        FrontEnd::Sim => "dram.sim",
        FrontEnd::FrFcfs { .. } => "dram.frfcfs",
        FrontEnd::Sched { .. } => "sched.sched",
        FrontEnd::Dimm { .. } => "sched.dimm",
        FrontEnd::Faulted { .. } => {
            return Err("the faulted front end is not part of any workload".to_owned())
        }
    };
    let plain = log.open(name, Some(parent), request);
    let plain_outcome = match spec.front_end {
        FrontEnd::Sim => {
            Outcome::Sim(experiment.run_policy_with(kind, records(), &mut NullObserver))
        }
        FrontEnd::FrFcfs { queue_depth } => Outcome::FrFcfs(
            experiment
                .run_frfcfs_with(kind, records(), queue_depth)
                .map_err(text)?,
        ),
        FrontEnd::Sched { banks } => {
            let sched = experiment.sched_config(banks).map_err(text)?;
            Outcome::Sched(
                experiment
                    .run_scheduled_with(kind, sched, records(), &mut NullObserver)
                    .map_err(text)?,
            )
        }
        FrontEnd::Dimm {
            channels,
            ranks,
            banks_per_rank,
        } => {
            let sched = experiment
                .dimm_config(channels, ranks, banks_per_rank)
                .map_err(text)?;
            let mut merged = SchedStats::default();
            for channel in 0..channels {
                merged = merged.merge(&dimm_channel_plain(
                    experiment, kind, sched, channel, trace,
                )?);
            }
            Outcome::Sched(merged)
        }
        FrontEnd::Faulted { .. } => unreachable!("rejected above"),
    };
    log.close(plain);

    let spanned = log.open("engine.spanned", Some(parent), request);
    let outcome = match spec.front_end {
        FrontEnd::Sim => {
            Outcome::Sim(experiment.run_policy_spanned_with(kind, records(), span_cycles, |_| {}))
        }
        FrontEnd::FrFcfs { queue_depth } => Outcome::FrFcfs(
            experiment
                .run_frfcfs_spanned_with(kind, records(), queue_depth, span_cycles, |_| {})
                .map_err(text)?,
        ),
        FrontEnd::Sched { banks } => {
            let sched = experiment.sched_config(banks).map_err(text)?;
            Outcome::Sched(
                experiment
                    .run_scheduled_spanned_with(kind, sched, records(), span_cycles, |_| {})
                    .map_err(text)?,
            )
        }
        FrontEnd::Dimm {
            channels,
            ranks,
            banks_per_rank,
        } => {
            let sched = experiment
                .dimm_config(channels, ranks, banks_per_rank)
                .map_err(text)?;
            let mut merged = SchedStats::default();
            for channel in 0..channels {
                merged = merged.merge(
                    &experiment
                        .run_dimm_channel_spanned_with(
                            kind,
                            sched,
                            channel,
                            records(),
                            span_cycles,
                            |_| {},
                        )
                        .map_err(text)?,
                );
            }
            Outcome::Sched(merged)
        }
        FrontEnd::Faulted { .. } => unreachable!("rejected above"),
    };
    log.close(spanned);
    if outcome != plain_outcome {
        return Err(format!(
            "{name}: the span-segmented run differs from the plain run"
        ));
    }
    match &outcome {
        Outcome::Sim(s) => tracer.counts.sim_events += s.events(),
        Outcome::FrFcfs(_) | Outcome::Faulted(_) => {}
        Outcome::Sched(s) => tracer.counts.sched_events += s.sim.events(),
    }
    Ok(outcome)
}

/// Replays one job in-process under spans, through `cache` exactly as
/// the daemon's worker would (result cache first). Returns the result
/// frame.
///
/// # Errors
///
/// Engine configuration errors, and a span-segmented run that differs
/// from the plain one.
pub fn replay_job(
    cache: &ArtifactCache,
    spec: &JobSpec,
    span_cycles: u64,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Arc<String>, String> {
    let root = tracer.log.open("job", None, request);
    let lookup = tracer.log.open("serve.result_cache", Some(root), request);
    let frame = cache
        .results
        .try_get_or_build::<String>(spec.canonical_hash(), || {
            let config = spec.config;
            let span = tracer.log.open("retention.profile", Some(lookup), request);
            let profile = cache
                .profiles
                .get_or_build(profile_key(&config), || Arc::new(config.build_profile()));
            tracer.log.close(span);
            let span = tracer.log.open("core.plan", Some(lookup), request);
            let plan = cache
                .plans
                .get_or_build(plan_key(&config), || Arc::new(config.build_plan(&profile)));
            tracer.log.close(span);
            let experiment = Experiment::from_artifacts(config, profile, plan);
            let span = tracer.log.open("trace.gen", Some(lookup), request);
            let trace =
                cache
                    .traces
                    .try_get_or_build(trace_key(&config, &spec.benchmark), || {
                        let records = experiment
                            .materialize_trace(&spec.benchmark)
                            .map_err(text)?;
                        tracer.counts.records += records.len() as u64;
                        Ok::<_, String>(Arc::new(records))
                    })?;
            tracer.log.close(span);
            let outcome = run_engine(
                &experiment,
                spec,
                &trace,
                span_cycles,
                tracer,
                lookup,
                request,
            )?;
            let span = tracer.log.open("serve.serialize", Some(lookup), request);
            let frame = result_frame(spec, &outcome);
            tracer.log.close(span);
            Ok(Arc::new(frame))
        })?;
    tracer.log.close(lookup);
    tracer.log.close(root);
    Ok(frame)
}

/// Replays `specs` on a `threads`-worker ordered pool against one
/// shared cache; each job records into its own span log.
pub fn replay(
    cache: &ArtifactCache,
    specs: &[&JobSpec],
    span_cycles: u64,
    threads: usize,
    epoch: Instant,
) -> Result<Replay, String> {
    let done = map_ordered(&ExecConfig::new(threads), specs, |i, spec| {
        let mut tracer = Tracer::new(epoch);
        let frame = replay_job(cache, spec, span_cycles, &mut tracer, i as u64)?;
        Ok::<_, String>((frame, tracer))
    })
    .map_err(|e| e.to_string())?;
    let mut out = Replay {
        frames: Vec::with_capacity(done.len()),
        logs: Vec::with_capacity(done.len()),
        counts: Counts::default(),
    };
    for (frame, tracer) in done {
        out.frames.push(frame);
        out.logs.push(tracer.log);
        out.counts.add(tracer.counts);
    }
    Ok(out)
}

/// Per-job in-process time of the daemon's path: each job's root span
/// (the first span of its log) minus its plain engine run, which the
/// daemon does not do.
pub fn daemon_path_ms(logs: &[SpanLog]) -> Vec<f64> {
    logs.iter()
        .map(|log| {
            let engine: f64 = (0..log.spans.len())
                .filter(|&i| ENGINE_SPANS.contains(&log.spans[i].name))
                .map(|i| log.ms(i))
                .sum();
            log.ms(0) - engine
        })
        .collect()
}
