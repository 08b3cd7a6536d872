//! Crash-consistency contract: a run killed at an arbitrary checkpoint
//! and resumed from its snapshot file must be bit-identical to a run
//! that never paused — on every front end (single-bank simulator,
//! FR-FCFS controller, multi-bank scheduler), including the recorded
//! event stream of traced runs. Corrupt, truncated, or mismatched
//! snapshots must surface as typed errors, never as garbage state.

use std::path::PathBuf;

use vrl_dram::checkpoint::{CheckpointConfig, CheckpointOutcome};
use vrl_dram::experiment::{EngineSpec, Experiment, ExperimentConfig, Outcome, PolicyKind};
use vrl_dram::Error;

fn experiment() -> Experiment {
    Experiment::new(ExperimentConfig {
        rows: 256,
        duration_ms: 64.0,
        ..Default::default()
    })
}

/// A per-test scratch file under the target-adjacent temp dir, removed
/// on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("vrl-ckpt-{}-{name}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Kill cycles spread across the 64 M-cycle horizon: early, prime-odd
/// mid-run, and late.
const KILL_CADENCES: [u64; 3] = [1_000_000, 7_777_777, 41_000_000];

#[test]
fn sim_resume_is_bit_identical_at_arbitrary_kill_cycles() {
    let exp = experiment();
    let reference = exp
        .run_policy(PolicyKind::VrlAccess, "swaptions")
        .expect("reference run");
    for (i, cadence) in KILL_CADENCES.into_iter().enumerate() {
        let scratch = Scratch::new(&format!("sim-{i}"));
        let ckpt = CheckpointConfig::new(&scratch.0, cadence).with_halt_after(1);
        let halted = exp
            .run_checkpointed(
                &EngineSpec::Sim,
                PolicyKind::VrlAccess,
                "swaptions",
                false,
                &ckpt,
            )
            .expect("checkpointed run");
        assert_eq!(
            halted,
            CheckpointOutcome::Halted { checkpoints: 1 },
            "cadence {cadence} must halt mid-run"
        );
        let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
        assert_eq!(report.front_end, EngineSpec::Sim);
        assert_eq!(report.benchmark, "swaptions");
        assert_eq!(report.policy, PolicyKind::VrlAccess);
        match report.outcome {
            CheckpointOutcome::Completed(Outcome::Sim(stats)) => {
                assert_eq!(stats, reference, "kill at cycle {cadence} diverged");
            }
            other => panic!("expected completed sim stats, got {other:?}"),
        }
    }
}

#[test]
fn frfcfs_resume_is_bit_identical_at_arbitrary_kill_cycles() {
    let exp = experiment();
    let queue_depth = exp.sched_config(4).expect("sched config").queue_depth;
    let reference = exp
        .run_frfcfs(PolicyKind::Vrl, "ferret", queue_depth)
        .expect("reference run");
    for (i, cadence) in KILL_CADENCES.into_iter().enumerate() {
        let scratch = Scratch::new(&format!("frfcfs-{i}"));
        let ckpt = CheckpointConfig::new(&scratch.0, cadence).with_halt_after(1);
        let halted = exp
            .run_checkpointed(
                &EngineSpec::FrFcfs { queue_depth },
                PolicyKind::Vrl,
                "ferret",
                false,
                &ckpt,
            )
            .expect("checkpointed run");
        assert_eq!(halted, CheckpointOutcome::Halted { checkpoints: 1 });
        let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
        assert_eq!(report.front_end, EngineSpec::FrFcfs { queue_depth });
        match report.outcome {
            CheckpointOutcome::Completed(Outcome::FrFcfs(stats)) => {
                assert_eq!(stats, reference, "kill at cycle {cadence} diverged");
            }
            other => panic!("expected completed controller stats, got {other:?}"),
        }
    }
}

#[test]
fn sched_resume_is_bit_identical_at_arbitrary_kill_cycles() {
    let exp = experiment();
    let sched = exp.sched_config(4).expect("sched config");
    let reference = exp
        .run_scheduled(PolicyKind::VrlAccess, "bgsave", sched)
        .expect("reference run");
    for (i, cadence) in KILL_CADENCES.into_iter().enumerate() {
        let scratch = Scratch::new(&format!("sched-{i}"));
        let ckpt = CheckpointConfig::new(&scratch.0, cadence).with_halt_after(1);
        let halted = exp
            .run_checkpointed(
                &EngineSpec::Sched(sched),
                PolicyKind::VrlAccess,
                "bgsave",
                false,
                &ckpt,
            )
            .expect("checkpointed run");
        assert_eq!(halted, CheckpointOutcome::Halted { checkpoints: 1 });
        let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
        assert_eq!(report.front_end, EngineSpec::Sched(sched));
        match report.outcome {
            CheckpointOutcome::Completed(Outcome::Sched(stats)) => {
                assert_eq!(stats, reference, "kill at cycle {cadence} diverged");
            }
            other => panic!("expected completed scheduler stats, got {other:?}"),
        }
    }
}

#[test]
fn dimm_sched_resume_is_bit_identical_at_arbitrary_kill_cycles() {
    // The full-DIMM geometry exercises the multi-channel lane cursors,
    // per-rank bus state, and the struct-of-arrays bank state in the
    // snapshot path.
    let exp = experiment();
    let sched = exp.dimm_config(2, 2, 4).expect("dimm config");
    let reference = exp
        .run_scheduled(PolicyKind::VrlAccess, "bgsave", sched)
        .expect("reference run");
    for (i, cadence) in KILL_CADENCES.into_iter().enumerate() {
        let scratch = Scratch::new(&format!("dimm-{i}"));
        let ckpt = CheckpointConfig::new(&scratch.0, cadence).with_halt_after(1);
        let halted = exp
            .run_checkpointed(
                &EngineSpec::Sched(sched),
                PolicyKind::VrlAccess,
                "bgsave",
                false,
                &ckpt,
            )
            .expect("checkpointed run");
        assert_eq!(halted, CheckpointOutcome::Halted { checkpoints: 1 });
        let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
        assert_eq!(report.front_end, EngineSpec::Sched(sched));
        match report.outcome {
            CheckpointOutcome::Completed(Outcome::Sched(stats)) => {
                assert_eq!(stats, reference, "DIMM kill at cycle {cadence} diverged");
            }
            other => panic!("expected completed scheduler stats, got {other:?}"),
        }
    }
}

#[test]
fn resume_survives_multiple_kills_in_one_run() {
    // Kill at the first checkpoint, resume with checkpointing still on,
    // kill again at the next, and resume to completion — the final
    // stats must still match the uninterrupted run.
    let exp = experiment();
    let sched = exp.sched_config(4).expect("sched config");
    let reference = exp
        .run_scheduled(PolicyKind::Vrl, "swaptions", sched)
        .expect("reference run");
    let scratch = Scratch::new("multi-kill");
    let ckpt = CheckpointConfig::new(&scratch.0, 9_000_000).with_halt_after(1);
    let halted = exp
        .run_checkpointed(
            &EngineSpec::Sched(sched),
            PolicyKind::Vrl,
            "swaptions",
            false,
            &ckpt,
        )
        .expect("first leg");
    assert_eq!(halted, CheckpointOutcome::Halted { checkpoints: 1 });
    let report = vrl_dram::checkpoint::resume(&scratch.0, Some(&ckpt)).expect("second leg");
    assert!(
        matches!(report.outcome, CheckpointOutcome::Halted { checkpoints: 1 }),
        "continued checkpointing must halt again: {:?}",
        report.outcome
    );
    let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("final leg");
    match report.outcome {
        CheckpointOutcome::Completed(Outcome::Sched(stats)) => {
            assert_eq!(stats, reference);
        }
        other => panic!("expected completed scheduler stats, got {other:?}"),
    }
}

#[test]
fn traced_resume_reproduces_the_identical_event_stream() {
    let exp = experiment();
    let sched = exp.sched_config(4).expect("sched config");
    let (ref_stats, ref_stream) = exp
        .run_scheduled_traced(PolicyKind::VrlAccess, "ferret", sched)
        .expect("reference traced run");
    let scratch = Scratch::new("traced");
    let ckpt = CheckpointConfig::new(&scratch.0, 13_000_000).with_halt_after(1);
    let halted = exp
        .run_checkpointed(
            &EngineSpec::Sched(sched),
            PolicyKind::VrlAccess,
            "ferret",
            true,
            &ckpt,
        )
        .expect("checkpointed traced run");
    assert!(matches!(
        halted,
        CheckpointOutcome::Halted { checkpoints: 1 }
    ));
    let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
    let stream = report.events.expect("traced snapshot resumes with events");
    match report.outcome {
        CheckpointOutcome::Completed(Outcome::Sched(stats)) => {
            assert_eq!(stats, ref_stats);
        }
        other => panic!("expected completed scheduler stats, got {other:?}"),
    }
    assert_eq!(stream.events, ref_stream.events, "event streams diverged");
    assert_eq!(stream.dropped, ref_stream.dropped);
    assert_eq!(stream.label, ref_stream.label);
    assert_eq!(stream.policy, ref_stream.policy);
}

#[test]
fn corrupt_snapshots_are_typed_errors() {
    let exp = experiment();
    let scratch = Scratch::new("corrupt");
    let ckpt = CheckpointConfig::new(&scratch.0, 5_000_000).with_halt_after(1);
    exp.run_checkpointed(&EngineSpec::Sim, PolicyKind::Vrl, "swaptions", false, &ckpt)
        .expect("checkpointed run");
    let good = std::fs::read(&scratch.0).expect("snapshot bytes");

    // A flipped payload byte fails the checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    std::fs::write(&scratch.0, &flipped).expect("write corrupt");
    match vrl_dram::checkpoint::resume(&scratch.0, None) {
        Err(Error::Snapshot(vrl_snap::SnapError::ChecksumMismatch { .. })) => {}
        other => panic!("expected checksum mismatch, got {other:?}"),
    }

    // A truncated file cannot parse its envelope.
    std::fs::write(&scratch.0, &good[..good.len() / 3]).expect("write truncated");
    assert!(
        matches!(
            vrl_dram::checkpoint::resume(&scratch.0, None),
            Err(Error::Snapshot(_))
        ),
        "truncated snapshot must be a typed snapshot error"
    );

    // A missing file is a typed I/O error, not a panic.
    std::fs::remove_file(&scratch.0).expect("remove");
    assert!(matches!(
        vrl_dram::checkpoint::resume(&scratch.0, None),
        Err(Error::Snapshot(vrl_snap::SnapError::Io { .. }))
    ));
}

#[test]
fn zero_cadence_is_rejected() {
    let exp = experiment();
    let scratch = Scratch::new("zero");
    let ckpt = CheckpointConfig::new(&scratch.0, 0);
    assert!(matches!(
        exp.run_checkpointed(&EngineSpec::Sim, PolicyKind::Vrl, "swaptions", false, &ckpt),
        Err(Error::Snapshot(vrl_snap::SnapError::Malformed { .. }))
    ));
}

#[test]
fn manifested_matrix_matches_direct_runs_and_resumes() {
    let exp = Experiment::new(ExperimentConfig {
        rows: 256,
        duration_ms: 32.0,
        ..Default::default()
    });
    let policies = [PolicyKind::Raidr, PolicyKind::Vrl];
    let pool = vrl_exec::ExecConfig::new(2);
    let scratch = Scratch::new("manifest");

    let direct = exp
        .run_matrix_with(&pool, &policies)
        .expect("direct matrix")
        .0;
    let fresh = exp
        .run_matrix_manifested(&pool, &policies, &scratch.0)
        .expect("fresh manifested matrix");
    assert_eq!(fresh, direct, "manifested sweep diverged from direct run");

    // A second pass finds every cell already persisted and re-simulates
    // nothing — it must return the identical matrix.
    let reloaded = exp
        .run_matrix_manifested(&pool, &policies, &scratch.0)
        .expect("reloaded manifested matrix");
    assert_eq!(reloaded, direct);

    // A manifest from a different experiment shape is refused, not
    // silently mixed in.
    let other = Experiment::new(ExperimentConfig {
        rows: 512,
        duration_ms: 32.0,
        ..Default::default()
    });
    assert!(matches!(
        other.run_matrix_manifested(&pool, &policies, &scratch.0),
        Err(Error::ResumeMismatch { .. })
    ));
    assert!(matches!(
        exp.run_matrix_manifested(&pool, &[PolicyKind::Raidr], &scratch.0),
        Err(Error::ResumeMismatch { .. })
    ));
}
