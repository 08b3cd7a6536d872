//! Executes a [`JobSpec`] and assembles its result frame.
//!
//! The result frame is a **pure function of the spec**: no job ids, no
//! timestamps, no cache provenance. That is what makes the served path
//! byte-comparable to a direct run. Both paths go through one dispatch
//! over the wire [`FrontEnd`] and differ only in what they feed it:
//! [`run_with_cache`] passes cache-shared artifacts, the cached trace
//! and a span cadence with progress callbacks; [`direct_result`] passes
//! a fresh [`Experiment`], a streamed trace and no spans. The two must
//! return identical strings for every spec, and the crate's tests
//! assert exactly that per front end.

use vrl_dram::experiment::{sched_metrics, sim_metrics, Experiment};
use vrl_dram::spans::SpanProgress;
use vrl_dram::Error;
use vrl_dram_sim::fault::FaultConfig;
use vrl_dram_sim::guard::GuardConfig;
use vrl_obs::PhaseProfiler;
use vrl_sched::SchedStats;
use vrl_trace::TraceRecord;

use crate::cache::ArtifactCache;
use crate::spec::{FrontEnd, JobSpec};

pub use vrl_dram::Outcome;

/// Profiler phase: fetching/building cached artifacts (experiment
/// config, refresh plans, benchmark traces).
pub const PHASE_ARTIFACT_BUILD: &str = "artifact_build";
/// Profiler phase: the simulation itself.
pub const PHASE_RUN: &str = "run";
/// Profiler phase: rendering the result frame.
pub const PHASE_SERIALIZE: &str = "serialize";

/// Renders the deterministic result frame for a spec and its outcome:
/// `{"type":"result","spec_hash":...,"front_end":...,"stats":...,"metrics":...}`.
pub fn result_frame(spec: &JobSpec, outcome: &Outcome) -> String {
    let stats = match outcome {
        Outcome::Sim(s) => serde_json::to_string(s),
        Outcome::FrFcfs(s) => serde_json::to_string(s),
        Outcome::Sched(s) => serde_json::to_string(s),
        Outcome::Faulted(o) => serde_json::to_string(o),
    }
    .expect("stats structs serialize infallibly");
    let metrics = match outcome {
        Outcome::Sim(s) => sim_metrics(s).to_json(),
        Outcome::FrFcfs(s) => sim_metrics(&s.sim).to_json(),
        Outcome::Sched(s) => sched_metrics(s).to_json(),
        Outcome::Faulted(o) => sim_metrics(&o.stats).to_json(),
    };
    format!(
        "{{\"type\":\"result\",\"spec_hash\":\"{:016x}\",\"front_end\":\"{}\",\"stats\":{stats},\"metrics\":{metrics}}}",
        spec.canonical_hash(),
        spec.front_end.name()
    )
}

/// Runs a spec through cache-shared artifacts and the span-segmented
/// engines, reporting progress at every `span_cycles` boundary.
/// Returns the result frame — byte-identical to [`direct_result`].
///
/// # Errors
///
/// Returns [`Error`] for engine configuration failures (the spec layer
/// rejects everything it can before this point).
pub fn run_with_cache<F>(
    cache: &ArtifactCache,
    spec: &JobSpec,
    span_cycles: u64,
    on_span: F,
) -> Result<String, Error>
where
    F: FnMut(SpanProgress),
{
    let mut profiler = PhaseProfiler::new();
    run_with_cache_profiled(cache, spec, span_cycles, on_span, &mut profiler)
}

/// [`run_with_cache`] with phase attribution: artifact fetch/build, the
/// simulation itself, and result-frame rendering each land in a
/// [`PhaseProfiler`] span ([`PHASE_ARTIFACT_BUILD`], [`PHASE_RUN`],
/// [`PHASE_SERIALIZE`]) so the daemon can feed per-phase latency
/// histograms. Profiling never touches the result bytes — the frame
/// stays a pure function of the spec.
///
/// # Errors
///
/// Exactly as [`run_with_cache`].
pub fn run_with_cache_profiled<F>(
    cache: &ArtifactCache,
    spec: &JobSpec,
    span_cycles: u64,
    on_span: F,
    profiler: &mut PhaseProfiler,
) -> Result<String, Error>
where
    F: FnMut(SpanProgress),
{
    let (experiment, trace) = {
        let _span = profiler.span(PHASE_ARTIFACT_BUILD);
        let experiment = cache.experiment(spec.config);
        let trace = cache.trace(&experiment, &spec.benchmark)?;
        (experiment, trace)
    };
    let outcome = {
        let _span = profiler.span(PHASE_RUN);
        run_spec(
            &experiment,
            spec,
            || Ok(trace.iter().copied()),
            span_cycles,
            on_span,
        )?
    };
    let _span = profiler.span(PHASE_SERIALIZE);
    Ok(result_frame(spec, &outcome))
}

/// Runs a spec directly: fresh [`Experiment`], streamed trace, one
/// span, no caching, no progress. The reference the served path is
/// byte-compared against (`vrl submit --direct` and the bit-identity
/// tests).
///
/// # Errors
///
/// Returns [`Error`] exactly when [`run_with_cache`] would.
pub fn direct_result(spec: &JobSpec) -> Result<String, Error> {
    let experiment = Experiment::new(spec.config);
    let trace = || experiment.trace(&spec.benchmark);
    let outcome = run_spec(&experiment, spec, trace, 0, |_| {})?;
    Ok(result_frame(spec, &outcome))
}

/// The one dispatch over the wire front ends: runs `spec` on
/// `experiment` over the records `trace` yields (called once per engine
/// run), pausing every `span_cycles` cycles (`0` = one span) to report
/// progress to `on_span`.
fn run_spec<T, I, F>(
    experiment: &Experiment,
    spec: &JobSpec,
    trace: T,
    span_cycles: u64,
    mut on_span: F,
) -> Result<Outcome, Error>
where
    T: Fn() -> Result<I, Error>,
    I: Iterator<Item = TraceRecord>,
    F: FnMut(SpanProgress),
{
    let kind = spec.policy;
    Ok(match spec.front_end {
        FrontEnd::Sim => {
            Outcome::Sim(experiment.run_policy_spanned_with(kind, trace()?, span_cycles, on_span))
        }
        FrontEnd::FrFcfs { queue_depth } => Outcome::FrFcfs(experiment.run_frfcfs_spanned_with(
            kind,
            trace()?,
            queue_depth,
            span_cycles,
            on_span,
        )?),
        FrontEnd::Sched { banks } => Outcome::Sched(experiment.run_scheduled_spanned_with(
            kind,
            experiment.sched_config(banks)?,
            trace()?,
            span_cycles,
            on_span,
        )?),
        FrontEnd::Dimm {
            channels,
            ranks,
            banks_per_rank,
        } => {
            let sched = experiment.dimm_config(channels, ranks, banks_per_rank)?;
            let mut merged = SchedStats::default();
            for channel in 0..channels {
                let shard = experiment.run_dimm_channel_spanned_with(
                    kind,
                    sched,
                    channel,
                    trace()?,
                    span_cycles,
                    &mut on_span,
                )?;
                merged = merged.merge(&shard);
            }
            Outcome::Sched(merged)
        }
        // The fault injector owns its trace walk and has no span seam:
        // faulted jobs run unsegmented, with no progress callbacks.
        FrontEnd::Faulted { fault_seed, guard } => Outcome::Faulted(experiment.run_faulted_with(
            kind,
            trace()?,
            &FaultConfig::default_scenario(fault_seed),
            guard.then(GuardConfig::default).as_ref(),
        )),
    })
}
