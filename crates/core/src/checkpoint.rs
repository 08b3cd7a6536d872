//! Crash-consistent checkpoint/resume for experiment runs.
//!
//! A checkpoint is a self-contained, versioned, checksummed snapshot of
//! one run: a header binding it to the front end, benchmark, policy, and
//! [`ExperimentConfig`] it came from, followed by the engine's full
//! run-state (bank FSMs, timing-wheel refresh queues, RNG streams,
//! policy degradation ladders, statistics, and — for traced runs — the
//! event ring). Files are written with [`vrl_snap::write_atomic`]
//! (temp file + `sync_all` + rename), so a crash mid-write never leaves
//! a torn checkpoint: the previous complete one survives.
//!
//! Because every front end's span/pause machinery inserts *no* state
//! change at a pause point, a run resumed from any checkpoint is
//! bit-identical to the uninterrupted run — the property
//! `tests/checkpoint_resume.rs` kills runs at arbitrary cycles to
//! assert.
//!
//! Resume is **flag-free**: [`resume`] reads everything it needs from
//! the header (the trace is regenerated deterministically from the
//! embedded seed and skipped to the consumption point), so
//! `vrl <cmd> --resume FILE` needs no other arguments. A snapshot is
//! only readable by the [`vrl_snap::FORMAT_VERSION`] that wrote it, and
//! the header config must reconstruct the identical experiment — both
//! invariants surface as typed errors, never garbage state.
//!
//! Scheduler checkpoints record the rank geometry and scheduling knobs
//! but assume the paper-default timing parameters (the only timing the
//! harness constructs); resuming a run made with hand-built custom
//! timings is out of scope (see DESIGN.md §12).

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use vrl_dram_sim::controller::FrFcfsController;
use vrl_dram_sim::sim::{NullObserver, SimConfig, SimObserver, Simulator};
use vrl_dram_sim::stats::SimStats;
use vrl_dram_sim::{Engine, TimingParams};
use vrl_obs::{EventStream, Recorder};
use vrl_sched::{SchedConfig, Scheduler};
use vrl_snap::{Decoder, Encoder, SnapError, Snapshot as _};
use vrl_trace::TraceRecord;

use crate::error::Error;
use crate::experiment::{
    with_policy, EngineSpec, Experiment, ExperimentConfig, MatrixCell, Outcome, PolicyKind,
};
use crate::spans::drive;

/// Checkpoint cadence and destination for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Where snapshots are written (each overwrites the last,
    /// atomically).
    pub path: PathBuf,
    /// Pause and snapshot roughly every this many simulated cycles.
    pub every_cycles: u64,
    /// Stop the run after this many snapshots (`None` = run to
    /// completion). The kill-and-resume tests and the CI smoke job use
    /// this to simulate a crash at a checkpoint boundary.
    pub halt_after: Option<u32>,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every `every_cycles` simulated cycles.
    pub fn new(path: impl Into<PathBuf>, every_cycles: u64) -> Self {
        CheckpointConfig {
            path: path.into(),
            every_cycles,
            halt_after: None,
        }
    }

    /// Halt the run after `count` snapshots (simulating a crash there).
    #[must_use]
    pub fn with_halt_after(mut self, count: u32) -> Self {
        self.halt_after = Some(count);
        self
    }

    fn validated(&self) -> Result<(), Error> {
        if self.every_cycles == 0 {
            return Err(Error::Snapshot(SnapError::Malformed {
                what: "checkpoint cadence must be positive".to_owned(),
            }));
        }
        Ok(())
    }
}

/// How a checkpointed run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointOutcome<S> {
    /// The run finished; the final statistics.
    Completed(S),
    /// The run halted at a checkpoint boundary
    /// ([`CheckpointConfig::halt_after`]); resume from the snapshot to
    /// continue.
    Halted {
        /// Snapshots written before halting.
        checkpoints: u32,
    },
}

impl<S> CheckpointOutcome<S> {
    /// The final statistics, if the run completed.
    pub fn completed(self) -> Option<S> {
        match self {
            CheckpointOutcome::Completed(s) => Some(s),
            CheckpointOutcome::Halted { .. } => None,
        }
    }

    fn map<T>(self, f: impl FnOnce(S) -> T) -> CheckpointOutcome<T> {
        match self {
            CheckpointOutcome::Completed(s) => CheckpointOutcome::Completed(f(s)),
            CheckpointOutcome::Halted { checkpoints } => CheckpointOutcome::Halted { checkpoints },
        }
    }
}

impl vrl_snap::Snapshot for PolicyKind {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            PolicyKind::Auto => 0,
            PolicyKind::Raidr => 1,
            PolicyKind::Vrl => 2,
            PolicyKind::VrlAccess => 3,
        });
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        match dec.take_u8()? {
            0 => Ok(PolicyKind::Auto),
            1 => Ok(PolicyKind::Raidr),
            2 => Ok(PolicyKind::Vrl),
            3 => Ok(PolicyKind::VrlAccess),
            tag => Err(SnapError::Malformed {
                what: format!("unknown policy tag {tag}"),
            }),
        }
    }
}

impl vrl_snap::Snapshot for ExperimentConfig {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u32(self.rows);
        enc.put_u32(self.cells_per_row);
        enc.put_u64(self.seed);
        enc.put_f64(self.duration_ms);
        enc.put_u32(self.nbits);
        enc.put_f64(self.guard_band);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(ExperimentConfig {
            rows: dec.take_u32()?,
            cells_per_row: dec.take_u32()?,
            seed: dec.take_u64()?,
            duration_ms: dec.take_f64()?,
            nbits: dec.take_u32()?,
            guard_band: dec.take_f64()?,
        })
    }
}

/// The scheduler knobs a checkpoint must reproduce (geometry plus the
/// refresh-elasticity configuration; timing is paper-default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedShape {
    channels: u32,
    ranks: u32,
    banks_per_rank: u32,
    rows_per_bank: u32,
    queue_depth: usize,
    slack: u64,
    parallel_refresh: bool,
    staggered: bool,
}

impl SchedShape {
    fn of(config: &SchedConfig) -> Self {
        SchedShape {
            channels: config.channels(),
            ranks: config.ranks(),
            banks_per_rank: config.banks_per_rank(),
            rows_per_bank: config.rows_per_bank(),
            queue_depth: config.queue_depth,
            slack: config.slack,
            parallel_refresh: config.parallel_refresh,
            staggered: config.staggered,
        }
    }

    fn to_config(self) -> Result<SchedConfig, Error> {
        let mut config = SchedConfig::with_dimm_geometry(
            self.channels,
            self.ranks,
            self.banks_per_rank,
            self.rows_per_bank,
        )?
        .with_queue_depth(self.queue_depth)
        .with_slack(self.slack)
        .with_parallelism(self.parallel_refresh);
        if !self.staggered {
            config = config.with_burst_refresh();
        }
        Ok(config)
    }
}

impl vrl_snap::Snapshot for SchedShape {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u32(self.channels);
        enc.put_u32(self.ranks);
        enc.put_u32(self.banks_per_rank);
        enc.put_u32(self.rows_per_bank);
        enc.put_usize(self.queue_depth);
        enc.put_u64(self.slack);
        enc.put_bool(self.parallel_refresh);
        enc.put_bool(self.staggered);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(SchedShape {
            channels: dec.take_u32()?,
            ranks: dec.take_u32()?,
            banks_per_rank: dec.take_u32()?,
            rows_per_bank: dec.take_u32()?,
            queue_depth: dec.take_usize()?,
            slack: dec.take_u64()?,
            parallel_refresh: dec.take_bool()?,
            staggered: dec.take_bool()?,
        })
    }
}

/// Everything a snapshot needs to reconstruct its run from scratch.
#[derive(Debug, Clone, PartialEq)]
struct Header {
    spec: EngineSpec,
    benchmark: String,
    policy: PolicyKind,
    config: ExperimentConfig,
    /// Whether the run records a structured event trace (the observer's
    /// ring is then part of the engine state).
    traced: bool,
}

impl Header {
    /// Byte order: engine tag, benchmark, policy, config, FR-FCFS queue
    /// depth (0 for other engines), scheduler shape (`None` for other
    /// engines), traced flag.
    fn save(&self, enc: &mut Encoder) {
        let (tag, queue_depth, shape) = match self.spec {
            EngineSpec::Sim => (0, 0, None),
            EngineSpec::FrFcfs { queue_depth } => (1, queue_depth, None),
            EngineSpec::Sched(config) => (2, 0, Some(SchedShape::of(&config))),
        };
        enc.put_u8(tag);
        self.benchmark.save(enc);
        self.policy.save(enc);
        self.config.save(enc);
        enc.put_usize(queue_depth);
        shape.save(enc);
        enc.put_bool(self.traced);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, Error> {
        let tag = dec.take_u8()?;
        let benchmark = String::load(dec)?;
        let policy = PolicyKind::load(dec)?;
        let config = ExperimentConfig::load(dec)?;
        let queue_depth = dec.take_usize()?;
        let shape = Option::<SchedShape>::load(dec)?;
        let traced = dec.take_bool()?;
        let malformed = |what: String| Error::Snapshot(SnapError::Malformed { what });
        let spec = match (tag, shape) {
            (0, _) => EngineSpec::Sim,
            (1, _) => EngineSpec::FrFcfs { queue_depth },
            (2, Some(shape)) => EngineSpec::Sched(shape.to_config()?),
            (2, None) => return Err(malformed("scheduler snapshot lacks its geometry".into())),
            (tag, _) => return Err(malformed(format!("unknown front-end tag {tag}"))),
        };
        Ok(Header {
            spec,
            benchmark,
            policy,
            config,
            traced,
        })
    }
}

/// Observers that can snapshot their recording state alongside the
/// engine. [`NullObserver`] has none; a [`Recorder`] checkpoints its
/// event ring so a resumed traced run regenerates the identical stream.
trait ObserverState: SimObserver {
    fn save_obs(&self, enc: &mut Encoder);
    fn restore_obs(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError>;
}

impl ObserverState for NullObserver {
    fn save_obs(&self, _enc: &mut Encoder) {}
    fn restore_obs(&mut self, _dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

impl ObserverState for Recorder {
    fn save_obs(&self, enc: &mut Encoder) {
        self.save_state(enc);
    }
    fn restore_obs(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        self.restore_state(dec)
    }
}

/// One checkpoint payload: header, resume point, engine state, observer
/// state — sealed into the versioned, checksummed envelope.
fn seal_payload<E: Engine>(
    header: &Header,
    stop: u64,
    engine: &E,
    cursor: &E::Cursor,
    observer: &impl ObserverState,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    header.save(&mut enc);
    enc.put_u64(stop);
    enc.put_u64(E::pulled(cursor));
    engine.save_state(&mut enc, cursor);
    observer.save_obs(&mut enc);
    vrl_snap::seal(&enc.into_bytes())
}

/// Where a resumed run picks up: the snapshot's decoder positioned at
/// the engine state, the consumption point, and the pause cycle.
struct Restore<'a> {
    dec: Decoder<'a>,
    consumed: u64,
    stop: u64,
}

/// Builds the engine `$spec` names under policy `$kind` and binds it to
/// `$e` in `$body`; an invalid queue depth or scheduler configuration
/// returns early from the enclosing function.
macro_rules! with_engine {
    ($spec:expr, $kind:expr, $plan:expr, $rows:expr, |$e:ident| $body:expr) => {
        match $spec {
            EngineSpec::Sim => with_policy!($kind, $plan, |p| {
                let $e = Simulator::new(SimConfig::with_rows($rows), p);
                $body
            }),
            EngineSpec::FrFcfs { queue_depth } => with_policy!($kind, $plan, |p| {
                let $e = FrFcfsController::new(SimConfig::with_rows($rows), p, queue_depth)?;
                $body
            }),
            EngineSpec::Sched(config) => with_policy!($kind, $plan, |p| {
                let $e = Scheduler::new(config, p)?;
                $body
            }),
        }
    };
}

/// Runs the engine `header` names over `experiment`'s trace, fresh or
/// restored from a snapshot, writing checkpoints on `ckpt`'s cadence —
/// the one path behind [`Experiment::run_checkpointed`] and [`resume`].
fn run_engine(
    experiment: &Experiment,
    header: &Header,
    ckpt: &CheckpointConfig,
    restore: Option<Restore<'_>>,
) -> Result<CheckpointOutcome<(Outcome, Option<EventStream>)>, Error> {
    let trace = experiment.trace(&header.benchmark)?;
    let rows_per_bank = match header.spec {
        EngineSpec::Sched(config) => config.rows_per_bank(),
        EngineSpec::Sim | EngineSpec::FrFcfs { .. } => u32::MAX,
    };
    let (policy, rows) = (header.policy, header.config.rows);
    Ok(with_engine!(
        header.spec,
        policy,
        experiment.plan(),
        rows,
        |engine| {
            if header.traced {
                let mut recorder = Recorder::new(&header.benchmark, policy.name(), rows_per_bank);
                checkpointed(engine, trace, header, ckpt, restore, &mut recorder)?
                    .map(|stats| (Outcome::from(stats), Some(recorder.finish())))
            } else {
                checkpointed(engine, trace, header, ckpt, restore, &mut NullObserver)?
                    .map(|stats| (Outcome::from(stats), None))
            }
        }
    ))
}

/// Drives `engine` — fresh, or restored from `restore` together with
/// `observer` — with the checkpointing `on_pause` hook: every pause
/// seals a snapshot and writes it atomically to
/// [`CheckpointConfig::path`], and the run halts once
/// [`CheckpointConfig::halt_after`] snapshots are written.
fn checkpointed<E, I, O>(
    mut engine: E,
    trace: I,
    header: &Header,
    ckpt: &CheckpointConfig,
    restore: Option<Restore<'_>>,
    observer: &mut O,
) -> Result<CheckpointOutcome<E::Stats>, Error>
where
    E: Engine,
    I: Iterator<Item = TraceRecord>,
    O: ObserverState,
{
    let (cursor, consumed, first_stop) = match restore {
        None => (E::Cursor::default(), 0, ckpt.every_cycles),
        Some(Restore {
            mut dec,
            consumed,
            stop,
        }) => {
            let cursor = engine.restore_state(&mut dec, consumed)?;
            observer.restore_obs(&mut dec)?;
            (cursor, consumed, stop.saturating_add(ckpt.every_cycles))
        }
    };
    let end = TimingParams::paper_default().ms_to_cycles(header.config.duration_ms);
    let mut written = 0;
    let stats = drive(
        &mut engine,
        cursor,
        trace.skip(consumed as usize),
        end,
        first_stop,
        ckpt.every_cycles,
        observer,
        |engine, cursor, observer, stop| {
            let payload = seal_payload(header, stop, engine, cursor, observer);
            vrl_snap::write_atomic(&ckpt.path, &payload)?;
            written += 1;
            Ok(if ckpt.halt_after.is_some_and(|k| written >= k) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        },
    )?;
    Ok(match stats {
        Some(stats) => CheckpointOutcome::Completed(stats),
        None => CheckpointOutcome::Halted {
            checkpoints: written,
        },
    })
}

impl Experiment {
    /// Runs `benchmark` under policy `kind` on the engine `spec` names,
    /// with crash-consistent checkpoints: the run pauses every
    /// [`CheckpointConfig::every_cycles`] and atomically snapshots its
    /// full state to [`CheckpointConfig::path`]. With `traced`, an event
    /// [`Recorder`] observes the run and its ring is part of every
    /// snapshot, so a resumed traced run produces the identical event
    /// stream.
    ///
    /// A completed run returns its statistics (and, when traced, the
    /// recorded events), bit-identical to the plain `run_policy`,
    /// `run_frfcfs` or `run_scheduled` run and its traced form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownWorkload`] for an unknown benchmark,
    /// [`Error::Sim`] for an invalid queue depth or scheduler
    /// configuration, and [`Error::Snapshot`] for a zero cadence or a
    /// failed write.
    pub fn run_checkpointed(
        &self,
        spec: &EngineSpec,
        kind: PolicyKind,
        benchmark: &str,
        traced: bool,
        ckpt: &CheckpointConfig,
    ) -> Result<CheckpointOutcome<(Outcome, Option<EventStream>)>, Error> {
        ckpt.validated()?;
        let header = Header {
            spec: *spec,
            benchmark: benchmark.to_owned(),
            policy: kind,
            config: *self.config(),
            traced,
        };
        run_engine(self, &header, ckpt, None)
    }
}

/// The outcome of [`resume`].
#[derive(Debug)]
pub struct ResumeReport {
    /// The engine the snapshot came from.
    pub front_end: EngineSpec,
    /// The benchmark the run simulates.
    pub benchmark: String,
    /// The refresh policy under test.
    pub policy: PolicyKind,
    /// How the continued run ended.
    pub outcome: CheckpointOutcome<Outcome>,
    /// The recorded event stream, for traced snapshots that ran to
    /// completion.
    pub events: Option<EventStream>,
}

/// Resumes a checkpointed run from `path` and drives it to completion
/// (or to the next halt, if `ckpt` keeps checkpointing with
/// [`CheckpointConfig::halt_after`] set).
///
/// The snapshot is self-contained: the experiment, trace, and engine are
/// reconstructed from the header, the deterministic trace is skipped to
/// the consumption point, and the engine state is restored — the
/// continued run is bit-identical to one that never paused. Pass `ckpt`
/// to keep writing checkpoints on the continued run (the cadence
/// restarts from the snapshot's pause point), or `None` to run straight
/// through.
///
/// # Errors
///
/// Returns [`Error::Snapshot`] for an unreadable, corrupt,
/// version-mismatched, or differently-shaped snapshot.
pub fn resume(path: &Path, ckpt: Option<&CheckpointConfig>) -> Result<ResumeReport, Error> {
    let bytes = vrl_snap::read_file(path)?;
    let payload = vrl_snap::open(&bytes)?;
    let mut dec = Decoder::new(payload);
    let header = Header::load(&mut dec)?;
    let stop = dec.take_u64()?;
    let consumed = dec.take_u64()?;
    // Continue checkpointing on the caller's cadence, or run straight
    // through (a cadence past the horizon never pauses again).
    let fallback = CheckpointConfig::new(path, u64::MAX);
    let cont = ckpt.unwrap_or(&fallback);
    cont.validated()?;
    let experiment = Experiment::new(header.config);
    let restore = Restore {
        dec,
        consumed,
        stop,
    };
    let (outcome, events) = match run_engine(&experiment, &header, cont, Some(restore))? {
        CheckpointOutcome::Completed((stats, events)) => {
            (CheckpointOutcome::Completed(stats), events)
        }
        CheckpointOutcome::Halted { checkpoints } => {
            (CheckpointOutcome::Halted { checkpoints }, None)
        }
    };
    Ok(ResumeReport {
        front_end: header.spec,
        benchmark: header.benchmark,
        policy: header.policy,
        outcome,
        events,
    })
}

/// A matrix-level manifest for [`Experiment::compare_all`]-style sweeps:
/// completed (benchmark × policy) cells are persisted atomically after
/// every benchmark group, so an interrupted sweep resumes by re-running
/// only the missing cells. The coarse granularity deliberately sidesteps
/// engine-state capture for guarded/faulted runs (see DESIGN.md §12).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixManifest {
    config: ExperimentConfig,
    policies: Vec<PolicyKind>,
    cells: Vec<MatrixCell>,
}

impl vrl_snap::Snapshot for MatrixCell {
    fn save(&self, enc: &mut Encoder) {
        self.benchmark.save(enc);
        self.policy.save(enc);
        self.stats.save(enc);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(MatrixCell {
            benchmark: String::load(dec)?,
            policy: PolicyKind::load(dec)?,
            stats: SimStats::load(dec)?,
        })
    }
}

impl vrl_snap::Snapshot for MatrixManifest {
    fn save(&self, enc: &mut Encoder) {
        self.config.save(enc);
        self.policies.save(enc);
        self.cells.save(enc);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(MatrixManifest {
            config: ExperimentConfig::load(dec)?,
            policies: Vec::<PolicyKind>::load(dec)?,
            cells: Vec::<MatrixCell>::load(dec)?,
        })
    }
}

impl MatrixManifest {
    /// Completed cells, in completion order (benchmark-major).
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }
}

impl Experiment {
    /// Runs the (benchmark × policy) matrix with a crash-consistent
    /// manifest at `path`: after each benchmark's group of cells the
    /// manifest is atomically rewritten, and a re-run against an
    /// existing manifest re-simulates only the missing cells. Returns
    /// the full matrix in benchmark-major order, bit-identical to
    /// [`Experiment::run_matrix_with`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResumeMismatch`] if the manifest belongs to a
    /// different configuration or policy list, [`Error::Snapshot`] for
    /// a corrupt manifest, and propagates simulation errors.
    pub fn run_matrix_manifested(
        &self,
        cfg: &vrl_exec::ExecConfig,
        policies: &[PolicyKind],
        path: &Path,
    ) -> Result<Vec<MatrixCell>, Error> {
        let mut manifest = if path.exists() {
            let bytes = vrl_snap::read_file(path)?;
            let payload = vrl_snap::open(&bytes)?;
            let manifest = MatrixManifest::load(&mut Decoder::new(payload))?;
            if manifest.config != *self.config() {
                return Err(Error::ResumeMismatch {
                    what: "manifest experiment configuration differs".to_owned(),
                });
            }
            if manifest.policies != policies {
                return Err(Error::ResumeMismatch {
                    what: "manifest policy list differs".to_owned(),
                });
            }
            manifest
        } else {
            MatrixManifest {
                config: *self.config(),
                policies: policies.to_vec(),
                cells: Vec::new(),
            }
        };
        let done: std::collections::HashSet<(String, PolicyKind)> = manifest
            .cells
            .iter()
            .map(|c| (c.benchmark.clone(), c.policy))
            .collect();
        for benchmark in vrl_trace::WorkloadSpec::BENCHMARKS {
            let missing: Vec<PolicyKind> = policies
                .iter()
                .copied()
                .filter(|&k| !done.contains(&(benchmark.to_owned(), k)))
                .collect();
            if missing.is_empty() {
                continue;
            }
            let jobs: Vec<(&str, PolicyKind)> = missing.iter().map(|&k| (benchmark, k)).collect();
            let cells = vrl_exec::map_ordered(cfg, &jobs, |_, &(benchmark, kind)| {
                self.run_policy(kind, benchmark).map(|stats| MatrixCell {
                    benchmark: benchmark.to_owned(),
                    policy: kind,
                    stats,
                })
            })
            .map_err(Error::from)?;
            manifest.cells.extend(cells);
            let mut enc = Encoder::new();
            manifest.save(&mut enc);
            let sealed = vrl_snap::seal(&enc.into_bytes());
            vrl_snap::write_atomic(path, &sealed)?;
        }
        // Return benchmark-major regardless of completion order.
        let mut ordered = Vec::with_capacity(manifest.cells.len());
        for benchmark in vrl_trace::WorkloadSpec::BENCHMARKS {
            for &kind in policies {
                let cell = manifest
                    .cells
                    .iter()
                    .find(|c| c.benchmark == benchmark && c.policy == kind)
                    .ok_or_else(|| Error::ResumeMismatch {
                        what: format!("manifest is missing {benchmark}/{}", kind.name()),
                    })?;
                ordered.push(cell.clone());
            }
        }
        Ok(ordered)
    }
}
