//! The span-segmented engine contract every front end implements.
//!
//! An [`Engine`] services a trace in *spans*: [`Engine::run_span`] runs
//! until a stop cycle and pauses without finalizing, and
//! [`Engine::finish`] closes the run. Pausing inserts no state change,
//! so any composition of spans is bit-identical to one unsegmented run —
//! the property checkpointing, progress streaming, and resume all stand
//! on. The state that lives *between* spans (the scheduling loop's
//! queue and clock, the trace consumption count) is the engine's
//! [`Engine::Cursor`]; [`Engine::save_state`] snapshots engine and
//! cursor together, and [`Engine::restore_state`] rebuilds both.

use std::iter::Peekable;

use vrl_snap::{Decoder, Encoder, SnapError};
use vrl_trace::TraceRecord;

use crate::controller::{ControllerCursor, ControllerStats, FrFcfsController};
use crate::error::Error;
use crate::policy::{PolicyState, RefreshPolicy};
use crate::sim::{SimObserver, Simulator};
use crate::stats::SimStats;

/// A cycle-level engine that can pause between spans, finish, and
/// snapshot its run-state.
pub trait Engine {
    /// The final statistics of a run.
    type Stats;
    /// The loop state carried between spans (the start-of-run cursor is
    /// [`Default`]).
    type Cursor: Default;

    /// Services the trace (records with `cycle < end`) until the stop
    /// cycle `stop`, returning `true` if the run paused there with work
    /// still ahead. The single-bank simulator pauses iff `stop < end`;
    /// the queueing front ends pause only while work remains.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if an internal scheduling invariant breaks.
    fn run_span<I, O>(
        &mut self,
        cursor: &mut Self::Cursor,
        trace: &mut Peekable<I>,
        end: u64,
        stop: u64,
        observer: &mut O,
    ) -> Result<bool, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver;

    /// Drains the remaining work up to `end` and finalizes the
    /// statistics (call once, after the last span).
    fn finish<O: SimObserver>(&mut self, end: u64, observer: &mut O) -> Self::Stats;

    /// Records consumed from the source trace so far — what a resumed
    /// run skips when it regenerates the deterministic trace.
    fn pulled(cursor: &Self::Cursor) -> u64;

    /// Appends the engine's full run-state to `enc`, including any
    /// cursor state beyond the consumption count (which the caller
    /// records alongside, see [`Engine::restore_state`]).
    fn save_state(&self, enc: &mut Encoder, cursor: &Self::Cursor);

    /// Restores run-state captured by [`Engine::save_state`] into a
    /// freshly-constructed engine of the same configuration, returning
    /// the cursor to resume from. `pulled` is the consumption count
    /// recorded alongside the state.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated input or a snapshot from a
    /// differently-shaped engine.
    fn restore_state(
        &mut self,
        dec: &mut Decoder<'_>,
        pulled: u64,
    ) -> Result<Self::Cursor, SnapError>;
}

/// The simulator's cursor is its consumption count: the rest of its
/// loop state lives in the simulator itself.
impl<P: RefreshPolicy + PolicyState> Engine for Simulator<P> {
    type Stats = SimStats;
    type Cursor = u64;

    fn run_span<I, O>(
        &mut self,
        consumed: &mut u64,
        trace: &mut Peekable<I>,
        end: u64,
        stop: u64,
        observer: &mut O,
    ) -> Result<bool, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        *consumed += self.run_span_observed(trace, stop.min(end), observer);
        Ok(stop < end)
    }

    fn finish<O: SimObserver>(&mut self, end: u64, observer: &mut O) -> SimStats {
        self.finish_observed(end, observer)
    }

    fn pulled(consumed: &u64) -> u64 {
        *consumed
    }

    fn save_state(&self, enc: &mut Encoder, _consumed: &u64) {
        Simulator::save_state(self, enc);
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>, pulled: u64) -> Result<u64, SnapError> {
        Simulator::restore_state(self, dec)?;
        Ok(pulled)
    }
}

impl<P: RefreshPolicy + PolicyState> Engine for FrFcfsController<P> {
    type Stats = ControllerStats;
    type Cursor = ControllerCursor;

    fn run_span<I, O>(
        &mut self,
        cursor: &mut ControllerCursor,
        trace: &mut Peekable<I>,
        end: u64,
        stop: u64,
        observer: &mut O,
    ) -> Result<bool, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        self.run_span_observed(cursor, trace, end, stop, observer)
    }

    fn finish<O: SimObserver>(&mut self, end: u64, _observer: &mut O) -> ControllerStats {
        FrFcfsController::finish(self, end)
    }

    fn pulled(cursor: &ControllerCursor) -> u64 {
        cursor.pulled()
    }

    fn save_state(&self, enc: &mut Encoder, cursor: &ControllerCursor) {
        FrFcfsController::save_state(self, enc, cursor);
    }

    fn restore_state(
        &mut self,
        dec: &mut Decoder<'_>,
        _pulled: u64,
    ) -> Result<ControllerCursor, SnapError> {
        FrFcfsController::restore_state(self, dec)
    }
}
