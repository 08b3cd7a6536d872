//! Ablation: fault rate × runtime guard — the overhead-vs-data-loss
//! frontier.
//!
//! Sweeps the profiler-optimism fault rate (the dominant silent hazard)
//! with VRT toggles always on, running VRL unguarded (ground-truth
//! integrity checker attached) and guarded (SECDED band + scrub + the
//! degradation ladder). The headline row is the default scenario: the
//! unguarded run must lose data, the guarded run must not, and the
//! guard's refresh-busy overhead must stay within 10% of fault-free VRL.

use serde::Serialize;

use vrl_dram::experiment::{Experiment, ExperimentConfig, PolicyKind};
use vrl_dram_sim::fault::{FaultConfig, OptimismFault, VrtFault};
use vrl_dram_sim::guard::GuardConfig;

#[derive(Serialize)]
struct FaultRow {
    optimism_fraction: f64,
    guarded: bool,
    violations: usize,
    corrected: u64,
    uncorrected: u64,
    mprsf_demotions: u64,
    bin_demotions: u64,
    refresh_busy_cycles: u64,
    scrub_busy_cycles: u64,
    refresh_busy_vs_fault_free: f64,
}

fn scenario(fraction: f64, seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        optimism: (fraction > 0.0).then_some(OptimismFault {
            fraction,
            ..OptimismFault::default()
        }),
        vrt: Some(VrtFault::default()),
        temperature: None,
        overflow: None,
    }
}

fn main() {
    vrl_bench::section("Ablation — fault rate × runtime guard");
    let duration_ms = vrl_bench::arg_f64("--duration-ms", 1024.0);
    let rows = vrl_bench::arg_f64("--rows", 1024.0) as u32;
    let benchmark = "ferret";
    let experiment = Experiment::new(ExperimentConfig {
        rows,
        duration_ms,
        ..Default::default()
    });
    let fault_free = experiment
        .run_policy(PolicyKind::Vrl, benchmark)
        .expect("known benchmark");
    println!(
        "fault-free VRL baseline: {} refresh-busy cycles ({} rows, {duration_ms} ms, {benchmark})",
        fault_free.refresh_busy_cycles, rows
    );

    println!(
        "\n{:>10} {:>8} {:>11} {:>10} {:>12} {:>10} {:>12}",
        "optimism", "guard", "violations", "corrected", "uncorrected", "demotions", "busy vs base"
    );
    let mut table = Vec::new();
    for fraction in [0.0, 0.02, 0.05, 0.10] {
        let faults = scenario(fraction, 42);
        for guarded in [false, true] {
            let guard_config = GuardConfig::default();
            let guard = guarded.then_some(&guard_config);
            let trace = experiment.trace(benchmark).expect("known benchmark");
            let out = experiment.run_faulted_with(PolicyKind::Vrl, trace, &faults, guard);
            let gs = out.guard.unwrap_or_default();
            let ratio =
                out.stats.refresh_busy_cycles as f64 / fault_free.refresh_busy_cycles as f64;
            println!(
                "{:>9.0}% {:>8} {:>11} {:>10} {:>12} {:>10} {:>+11.2}%",
                fraction * 100.0,
                if guarded { "on" } else { "off" },
                out.violations,
                gs.corrected,
                gs.uncorrected,
                gs.mprsf_demotions + gs.bin_demotions,
                (ratio - 1.0) * 100.0
            );
            table.push(FaultRow {
                optimism_fraction: fraction,
                guarded,
                violations: out.violations,
                corrected: gs.corrected,
                uncorrected: gs.uncorrected,
                mprsf_demotions: gs.mprsf_demotions,
                bin_demotions: gs.bin_demotions,
                refresh_busy_cycles: out.stats.refresh_busy_cycles,
                scrub_busy_cycles: out.stats.scrub_busy_cycles,
                refresh_busy_vs_fault_free: ratio,
            });
        }
    }

    let default_unguarded = table
        .iter()
        .find(|r| (r.optimism_fraction - 0.05).abs() < 1e-12 && !r.guarded)
        .expect("default row");
    let default_guarded = table
        .iter()
        .find(|r| (r.optimism_fraction - 0.05).abs() < 1e-12 && r.guarded)
        .expect("default row");
    println!("\ndefault scenario (5% optimism + VRT):");
    println!(
        "  unguarded VRL: {} silent integrity violations",
        default_unguarded.violations
    );
    println!(
        "  guarded VRL:   {} uncorrected losses, {} corrected, {:+.2}% refresh-busy",
        default_guarded.uncorrected,
        default_guarded.corrected,
        (default_guarded.refresh_busy_vs_fault_free - 1.0) * 100.0
    );
    assert_eq!(
        default_guarded.uncorrected, 0,
        "acceptance: guarded run must have zero uncorrected losses"
    );
    // The remaining two criteria are statements about the documented
    // default scale; at user-overridden sizes the stochastic scenario may
    // legitimately produce no violation, so don't panic there.
    if rows == 1024 && (duration_ms - 1024.0).abs() < 1e-12 {
        assert!(
            default_unguarded.violations >= 1,
            "acceptance: unguarded default scenario must lose data"
        );
        assert!(
            default_guarded.refresh_busy_vs_fault_free <= 1.10,
            "acceptance: guard refresh-busy overhead must stay within 10%"
        );
        println!("  acceptance criteria hold.");
    }

    vrl_bench::write_json("ablation_faults", &table);
}
