//! Running VRL across a full 8-bank rank on the cycle-accurate
//! multi-bank command scheduler: one shared command/data bus, inter-bank
//! timing (tRRD/tFAW/tCCD), and DSARP-style refresh-access
//! parallelization, reported per refresh and per read.
//!
//! Run with: `cargo run --release --example rank_overview`

use vrl::circuit::model::AnalyticalModel;
use vrl::circuit::tech::Technology;
use vrl::core::plan::RefreshPlan;
use vrl::retention::distribution::RetentionDistribution;
use vrl::retention::profile::BankProfile;
use vrl::sched::{SchedConfig, Scheduler};
use vrl::trace::{Op, TraceRecord};

fn main() {
    let rows_per_bank = 1024u32;
    let banks = 8u32;

    // The scheduler runs one policy over all global rows, so the
    // retention profile spans the whole rank.
    let model = AnalyticalModel::new(Technology::n90());
    let rank_profile = BankProfile::generate(
        &RetentionDistribution::liu_et_al(),
        (banks * rows_per_bank) as usize,
        32,
        42,
    );
    let rank_plan = RefreshPlan::build(&model, &rank_profile, 2, 0.0);
    let sched_config = SchedConfig::with_geometry(banks, rows_per_bank)
        .expect("powers of two")
        .with_queue_depth(32);
    // A large-prime stride over flat line indices (the scheduler steers
    // them through the address map itself).
    let sched_trace = (0..200_000u64).map(|i| {
        let line = (i * 7919) % (banks * rows_per_bank) as u64;
        TraceRecord::new(i * 2_000, Op::Read, line as u32)
    });
    let mut sched =
        Scheduler::new(sched_config, rank_plan.vrl_access()).expect("valid configuration");
    let s = sched.run(sched_trace, 512.0).expect("scheduled run");

    println!("rank of {banks} banks x {rows_per_bank} rows, 512 ms, VRL-Access:");
    println!(
        "  {} refreshes ({} partial), {} refresh-busy cycles",
        s.sim.total_refreshes(),
        s.sim.partial_refreshes,
        s.sim.refresh_busy_cycles
    );
    println!(
        "  demand-visible refresh cycles: {} ({} refreshes postponed, {} pulled in early)",
        s.refresh_blocked_cycles, s.sim.postponed_refreshes, s.pulled_in_refreshes
    );
    println!(
        "  read latency: mean {:.1}, p50 {}, p99 {} cycles; {} FR-FCFS reorderings",
        s.read_latency.mean(),
        s.read_latency.quantile(0.5),
        s.read_latency.quantile(0.99),
        s.reordered
    );
}
