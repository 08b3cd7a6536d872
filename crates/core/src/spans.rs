//! The one drive loop behind every run, and span-segmented runs with
//! progress callbacks.
//!
//! Every front end implements [`vrl_dram_sim::Engine`]: `run_span`
//! services the trace up to a stop cycle and pauses without finalizing,
//! `finish` closes the run, and `save_state`/`restore_state` snapshot
//! the engine together with its between-span cursor. Pausing inserts no
//! state change, so composing spans is bit-identical to one unsegmented
//! run.
//!
//! `drive` is the only loop over `run_span` in this crate. It pauses
//! at `first_stop`, then every `every` cycles, and hands each pause to an
//! `on_pause` hook, which may continue or halt the run:
//!
//! * plain and spanned runs ([`Experiment::run_policy_spanned_with`] and
//!   friends, which `vrl-serve` drives every job through) use a
//!   progress hook that reports a [`SpanProgress`] per pause;
//! * checkpointed runs (the [`checkpoint`](crate::checkpoint) module)
//!   use a hook that seals the engine state into a snapshot, writes it
//!   atomically, and halts after `halt_after` snapshots; a resumed run
//!   restores an engine and cursor and re-enters the same loop.
//!
//! The final statistics of every path are byte-identical to the plain
//! `run_policy_with` / `run_frfcfs_with` / `run_scheduled_with` results
//! (asserted by the tests below, `tests/checkpoint_resume.rs`, and the
//! serve bit-identity suite).

use std::ops::ControlFlow;

use vrl_dram_sim::controller::{ControllerStats, FrFcfsController};
use vrl_dram_sim::sim::{NullObserver, SimConfig, SimObserver, Simulator};
use vrl_dram_sim::{Engine, SimStats, TimingParams};
use vrl_sched::{SchedConfig, SchedStats, Scheduler};
use vrl_trace::TraceRecord;

use crate::error::Error;
use crate::experiment::{with_policy, Experiment, PolicyKind};

/// Progress from one completed span of a spanned run: the run paused at
/// `cycle` with simulation still ahead of it. Emitted only at pauses —
/// a run shorter than one span completes without progress callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanProgress {
    /// 1-based index of the span that just completed.
    pub span: u32,
    /// The cycle the engine paused at.
    pub cycle: u64,
    /// The run's final cycle (`duration_ms` in cycles).
    pub end: u64,
}

/// Drives `engine` from `cursor` over the records of `trace` before
/// `end`: spans stop at `first_stop` and then every `every` cycles, and
/// each pause goes to `on_pause(engine, cursor, observer, stop)`. Returns
/// the final statistics, or `None` if a hook halted the run.
///
/// `trace` must already be positioned at the cursor's consumption point
/// (a resumed run skips the records its snapshot consumed).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<E, I, O, F>(
    engine: &mut E,
    mut cursor: E::Cursor,
    trace: I,
    end: u64,
    first_stop: u64,
    every: u64,
    observer: &mut O,
    mut on_pause: F,
) -> Result<Option<E::Stats>, Error>
where
    E: Engine,
    I: Iterator<Item = TraceRecord>,
    O: SimObserver,
    F: FnMut(&E, &E::Cursor, &O, u64) -> Result<ControlFlow<()>, Error>,
{
    let mut trace = trace.take_while(|r| r.cycle < end).peekable();
    let mut stop = first_stop;
    while engine.run_span(&mut cursor, &mut trace, end, stop, observer)? {
        if on_pause(engine, &cursor, observer, stop)?.is_break() {
            return Ok(None);
        }
        stop = stop.saturating_add(every);
    }
    Ok(Some(engine.finish(end, observer)))
}

impl Experiment {
    /// The run's final cycle for this experiment's duration.
    pub(crate) fn end_cycle(&self) -> u64 {
        TimingParams::paper_default().ms_to_cycles(self.config().duration_ms)
    }

    /// Runs a fresh `engine` over `trace` to the end of the experiment,
    /// pausing every `span_cycles` cycles (`0` = one span) to report
    /// progress to `on_span` — the shared body of every plain and
    /// spanned entry point.
    pub(crate) fn run_spanned<E, I, O, F>(
        &self,
        mut engine: E,
        trace: I,
        observer: &mut O,
        span_cycles: u64,
        mut on_span: F,
    ) -> Result<E::Stats, Error>
    where
        E: Engine,
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
        F: FnMut(SpanProgress),
    {
        let end = self.end_cycle();
        let every = if span_cycles == 0 {
            u64::MAX
        } else {
            span_cycles
        };
        let mut span = 0;
        let stats = drive(
            &mut engine,
            E::Cursor::default(),
            trace,
            end,
            every.min(end),
            every,
            observer,
            |_, _, _, cycle| {
                span += 1;
                on_span(SpanProgress { span, cycle, end });
                Ok(ControlFlow::Continue(()))
            },
        )?;
        Ok(stats.expect("progress hooks never halt a run"))
    }

    /// The single-bank simulator's plain and spanned runs.
    pub(crate) fn run_sim<I, O, F>(
        &self,
        kind: PolicyKind,
        trace: I,
        observer: &mut O,
        span_cycles: u64,
        on_span: F,
    ) -> SimStats
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
        F: FnMut(SpanProgress),
    {
        let config = SimConfig::with_rows(self.config().rows);
        with_policy!(kind, self.plan(), |p| {
            self.run_spanned(
                Simulator::new(config, p),
                trace,
                observer,
                span_cycles,
                on_span,
            )
        })
        .expect("the single-bank simulator never fails")
    }

    /// [`Experiment::run_policy_with`] segmented into spans of
    /// `span_cycles` cycles, invoking `on_span` at every pause.
    /// Bit-identical to the unsegmented run.
    pub fn run_policy_spanned_with<I, F>(
        &self,
        kind: PolicyKind,
        trace: I,
        span_cycles: u64,
        on_span: F,
    ) -> SimStats
    where
        I: Iterator<Item = TraceRecord>,
        F: FnMut(SpanProgress),
    {
        self.run_sim(kind, trace, &mut NullObserver, span_cycles, on_span)
    }

    /// [`Experiment::run_frfcfs_with`] segmented into spans of
    /// `span_cycles` cycles, invoking `on_span` at every pause.
    /// Bit-identical to the unsegmented run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] for an invalid queue depth.
    pub fn run_frfcfs_spanned_with<I, F>(
        &self,
        kind: PolicyKind,
        trace: I,
        queue_depth: usize,
        span_cycles: u64,
        on_span: F,
    ) -> Result<ControllerStats, Error>
    where
        I: Iterator<Item = TraceRecord>,
        F: FnMut(SpanProgress),
    {
        let config = SimConfig::with_rows(self.config().rows);
        with_policy!(kind, self.plan(), |p| {
            let ctl = FrFcfsController::new(config, p, queue_depth)?;
            self.run_spanned(ctl, trace, &mut NullObserver, span_cycles, on_span)
        })
    }

    /// [`Experiment::run_scheduled_with`] segmented into spans of
    /// `span_cycles` cycles, invoking `on_span` at every pause.
    /// Bit-identical to the unsegmented run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] for a scheduler configuration or
    /// invariant failure.
    pub fn run_scheduled_spanned_with<I, F>(
        &self,
        kind: PolicyKind,
        sched: SchedConfig,
        trace: I,
        span_cycles: u64,
        on_span: F,
    ) -> Result<SchedStats, Error>
    where
        I: Iterator<Item = TraceRecord>,
        F: FnMut(SpanProgress),
    {
        with_policy!(kind, self.plan(), |p| {
            let engine = Scheduler::new(sched, p)?;
            self.run_spanned(engine, trace, &mut NullObserver, span_cycles, on_span)
        })
    }

    /// One channel shard of a full-DIMM run, segmented into spans —
    /// the spanned analogue of the shards [`Experiment::run_dimm_serial`]
    /// runs, minus the event recorder. Merging every channel's stats with
    /// [`SchedStats::merge`] is bit-identical to
    /// [`Experiment::run_dimm_serial`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] for an out-of-range channel or scheduler
    /// invariant failure.
    pub fn run_dimm_channel_spanned_with<I, F>(
        &self,
        kind: PolicyKind,
        sched: SchedConfig,
        channel: u32,
        trace: I,
        span_cycles: u64,
        on_span: F,
    ) -> Result<SchedStats, Error>
    where
        I: Iterator<Item = TraceRecord>,
        F: FnMut(SpanProgress),
    {
        with_policy!(kind, self.plan(), |p| {
            let engine = Scheduler::for_channel(sched, p, channel)?;
            self.run_spanned(engine, trace, &mut NullObserver, span_cycles, on_span)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;

    fn small() -> Experiment {
        Experiment::new(ExperimentConfig {
            rows: 256,
            duration_ms: 192.0,
            ..Default::default()
        })
    }

    #[test]
    fn spanned_sim_is_bit_identical_and_reports_progress() {
        let e = small();
        for kind in PolicyKind::ALL {
            let plain = e.run_policy(kind, "swaptions").unwrap();
            let trace = e.materialize_trace("swaptions").unwrap();
            let mut spans = Vec::new();
            let spanned =
                e.run_policy_spanned_with(kind, trace.iter().copied(), 500_000, |p| spans.push(p));
            assert_eq!(spanned, plain, "{kind:?} spanned run must be bit-identical");
            assert_eq!(spans.len(), 383, "{kind:?} span count");
            assert!(spans.windows(2).all(|w| w[0].cycle < w[1].cycle));
            assert!(spans.iter().all(|p| p.cycle < p.end));
        }
    }

    #[test]
    fn spanned_frfcfs_is_bit_identical() {
        let e = small();
        let plain = e
            .run_frfcfs_with(PolicyKind::Vrl, e.trace("canneal").unwrap(), 8)
            .unwrap();
        let trace = e.materialize_trace("canneal").unwrap();
        let mut spans = 0;
        let spanned = e
            .run_frfcfs_spanned_with(PolicyKind::Vrl, trace.iter().copied(), 8, 400_000, |_| {
                spans += 1;
            })
            .unwrap();
        assert_eq!(spanned, plain);
        assert_eq!(spans, 479, "frfcfs span count");
    }

    #[test]
    fn spanned_sched_is_bit_identical() {
        let e = small();
        let sched = e.sched_config(4).unwrap();
        let plain = e
            .run_scheduled_with(
                PolicyKind::VrlAccess,
                sched,
                e.trace("bgsave").unwrap(),
                &mut NullObserver,
            )
            .unwrap();
        let trace = e.materialize_trace("bgsave").unwrap();
        let mut spans = 0;
        let spanned = e
            .run_scheduled_spanned_with(
                PolicyKind::VrlAccess,
                sched,
                trace.iter().copied(),
                300_000,
                |_| spans += 1,
            )
            .unwrap();
        assert_eq!(spanned, plain);
        assert_eq!(spans, 639, "sched span count");
    }

    #[test]
    fn spanned_dimm_channels_merge_to_the_serial_dimm_run() {
        let e = small();
        let sched = e.dimm_config(2, 1, 2).unwrap();
        let direct = e.run_dimm_serial(PolicyKind::Vrl, "ferret", sched).unwrap();
        let trace = e.materialize_trace("ferret").unwrap();
        let mut merged = SchedStats::default();
        let mut spans = Vec::new();
        for channel in 0..sched.channels() {
            let mut count = 0;
            let shard = e
                .run_dimm_channel_spanned_with(
                    PolicyKind::Vrl,
                    sched,
                    channel,
                    trace.iter().copied(),
                    250_000,
                    |_| count += 1,
                )
                .unwrap();
            merged = merged.merge(&shard);
            spans.push(count);
        }
        assert_eq!(merged, direct.stats);
        assert_eq!(spans, [767, 767], "per-channel span counts");
    }

    #[test]
    fn zero_cadence_means_one_span_and_no_callbacks() {
        let e = small();
        let plain = e.run_policy(PolicyKind::Raidr, "swaptions").unwrap();
        let trace = e.materialize_trace("swaptions").unwrap();
        let spanned =
            e.run_policy_spanned_with(PolicyKind::Raidr, trace.iter().copied(), 0, |_| {
                panic!("no pauses expected")
            });
        assert_eq!(spanned, plain);
    }

    #[test]
    fn from_artifacts_shares_and_matches_fresh_builds() {
        let config = ExperimentConfig {
            rows: 256,
            duration_ms: 128.0,
            ..Default::default()
        };
        let fresh = Experiment::new(config);
        let shared =
            Experiment::from_artifacts(config, fresh.profile_shared(), fresh.plan_shared());
        assert!(std::sync::Arc::ptr_eq(
            &fresh.plan_shared(),
            &shared.plan_shared()
        ));
        let a = fresh.run_policy(PolicyKind::Vrl, "swaptions").unwrap();
        let b = shared.run_policy(PolicyKind::Vrl, "swaptions").unwrap();
        assert_eq!(a, b);
    }
}
