//! Golden checkpoint bytes: one snapshot per front end, written at a
//! small fixed configuration and hashed. The hashed bytes include the
//! envelope's [`vrl_snap::FORMAT_VERSION`], so any change to the
//! snapshot layout, the format version, or where a checkpointed run
//! pauses changes these hashes. A layout change must come with a version
//! bump and new hashes; a refactor of the drive loop must keep them.

use std::path::PathBuf;

use vrl_dram::checkpoint::{CheckpointConfig, CheckpointOutcome};
use vrl_dram::experiment::{EngineSpec, Experiment, ExperimentConfig, PolicyKind};

fn experiment() -> Experiment {
    Experiment::new(ExperimentConfig {
        rows: 256,
        duration_ms: 192.0,
        seed: 42,
        ..Default::default()
    })
}

/// Pause (and halt) at the first checkpoint, mid-run.
const CADENCE: u64 = 40_000_000;

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("vrl-golden-{}-{name}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }

    fn config(&self) -> CheckpointConfig {
        CheckpointConfig::new(&self.0, CADENCE).with_halt_after(1)
    }

    /// FNV-1a of the snapshot file's bytes.
    fn hash(&self) -> u64 {
        vrl_snap::fnv1a64(&std::fs::read(&self.0).expect("snapshot bytes"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn assert_halted<S: std::fmt::Debug>(outcome: CheckpointOutcome<S>) {
    assert!(
        matches!(outcome, CheckpointOutcome::Halted { checkpoints: 1 }),
        "expected a halt at the first checkpoint, got {outcome:?}"
    );
}

#[test]
fn sim_checkpoint_bytes_are_golden() {
    let scratch = Scratch::new("sim");
    assert_halted(
        experiment()
            .run(
                &EngineSpec::Sim,
                PolicyKind::VrlAccess,
                "swaptions",
                false,
                Some(&scratch.config()),
            )
            .expect("checkpointed run"),
    );
    assert_eq!(scratch.hash(), 0xb080_9237_31bc_090a);
}

#[test]
fn frfcfs_checkpoint_bytes_are_golden() {
    let scratch = Scratch::new("frfcfs");
    assert_halted(
        experiment()
            .run(
                &EngineSpec::FrFcfs { queue_depth: 8 },
                PolicyKind::Vrl,
                "ferret",
                false,
                Some(&scratch.config()),
            )
            .expect("checkpointed run"),
    );
    assert_eq!(scratch.hash(), 0x068e_45d4_ed7b_62ea);
}

#[test]
fn sched_checkpoint_bytes_are_golden() {
    let exp = experiment();
    let sched = exp.sched_config(4).expect("sched config");
    let scratch = Scratch::new("sched");
    assert_halted(
        exp.run(
            &EngineSpec::Sched(sched),
            PolicyKind::VrlAccess,
            "bgsave",
            false,
            Some(&scratch.config()),
        )
        .expect("checkpointed run"),
    );
    assert_eq!(scratch.hash(), 0x571a_f4b4_28f3_1013);
}

#[test]
fn traced_sched_checkpoint_bytes_are_golden() {
    let exp = experiment();
    let sched = exp.sched_config(4).expect("sched config");
    let scratch = Scratch::new("sched-traced");
    assert_halted(
        exp.run(
            &EngineSpec::Sched(sched),
            PolicyKind::VrlAccess,
            "ferret",
            true,
            Some(&scratch.config()),
        )
        .expect("checkpointed run"),
    );
    assert_eq!(scratch.hash(), 0x07f1_f1d3_f382_2e9a);
}

#[test]
fn resumed_checkpoint_bytes_are_golden() {
    // A resumed run that keeps checkpointing writes its next snapshot
    // one cadence past the pause point, with the consumption count
    // carried across the resume.
    let exp = experiment();
    let sched = exp.sched_config(4).expect("sched config");
    let sim = Scratch::new("sim-resumed");
    let sched_scratch = Scratch::new("sched-resumed");
    exp.run(
        &EngineSpec::Sim,
        PolicyKind::VrlAccess,
        "swaptions",
        false,
        Some(&sim.config()),
    )
    .expect("first leg");
    exp.run(
        &EngineSpec::Sched(sched),
        PolicyKind::VrlAccess,
        "bgsave",
        false,
        Some(&sched_scratch.config()),
    )
    .expect("first leg");
    let mut hashes = Vec::new();
    for scratch in [&sim, &sched_scratch] {
        let report =
            vrl_dram::checkpoint::resume(&scratch.0, Some(&scratch.config())).expect("second leg");
        assert_halted(report.outcome);
        hashes.push(scratch.hash());
    }
    assert_eq!(hashes, [0x3b84_37d1_2f22_6fb8, 0x79e8_f12f_5098_3e49]);
}
