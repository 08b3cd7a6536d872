//! The scheduler's three contract tests against its sibling engines.
//!
//! 1. **Degeneracy**: with one bank and parallelization disabled, the
//!    scheduler's decision loop is structurally the controller's —
//!    refresh-first, FR-FCFS pick, idle jump — and the inter-bank
//!    constraints cannot bind, so every counter must be bit-identical
//!    to [`FrFcfsController`] across policies and traffic shapes.
//! 2. **Parallelization**: with ≥ 4 banks and the elasticity window on,
//!    demand-visible refresh time collapses for VRL and VRL-Access
//!    (and VRL-Access converts deferred refreshes to partials, cutting
//!    raw refresh-busy time too), with zero integrity violations.
//! 3. **Struct-of-arrays rewrite**: the SoA hot loop must reproduce the
//!    per-bank-heap [`ReferenceScheduler`] bit-for-bit across all four
//!    policies, every traffic shape, and full-DIMM geometries
//!    (channels × ranks × banks).

use vrl_dram_sim::controller::FrFcfsController;
use vrl_dram_sim::integrity::{IntegrityChecker, LinearPhysics};
use vrl_dram_sim::policy::{AutoRefresh, Raidr, RefreshPolicy, Vrl, VrlAccess};
use vrl_dram_sim::sim::SimConfig;
use vrl_dram_sim::timing::TimingParams;
use vrl_retention::binning::BinningTable;
use vrl_retention::profile::BankProfile;
use vrl_sched::{ReferenceScheduler, SchedConfig, Scheduler};
use vrl_trace::{Op, TraceRecord};

const ROWS: u32 = 64;

fn bins_all(retention_ms: f64, rows: usize) -> BinningTable {
    BinningTable::from_profile(&BankProfile::from_rows(
        std::iter::repeat_n(retention_ms, rows),
        32,
    ))
}

/// Row-buffer-thrashing pairs: exercises FR-FCFS reordering.
fn thrash_trace() -> Vec<TraceRecord> {
    (0..4000u64)
        .map(|i| TraceRecord::new(i * 2, Op::Read, (i % 2) as u32 * 7))
        .collect()
}

/// Sparse mixed reads/writes over many rows.
fn sparse_trace() -> Vec<TraceRecord> {
    (0..2000u64)
        .map(|i| {
            let op = if i % 3 == 0 { Op::Write } else { Op::Read };
            TraceRecord::new(i * 37, op, (i % 113) as u32)
        })
        .collect()
}

/// Dense bursts separated by idle gaps.
fn bursty_trace(bursts: u64, burst_len: u64, gap: u64, rows: u32) -> Vec<TraceRecord> {
    let mut trace = Vec::with_capacity((bursts * burst_len) as usize);
    for b in 0..bursts {
        for i in 0..burst_len {
            let idx = (b * burst_len + i) % rows as u64;
            trace.push(TraceRecord::new(b * gap + i, Op::Read, idx as u32));
        }
    }
    trace
}

/// Runs the same policy (built fresh per engine — policies are stateful)
/// through both engines and demands bit-identical counters.
fn assert_bit_identical<P, F>(make_policy: F, trace: &[TraceRecord], what: &str)
where
    P: RefreshPolicy,
    F: Fn() -> P,
{
    let sched_config = SchedConfig::with_geometry(1, ROWS)
        .expect("geometry")
        .with_parallelism(false)
        .with_slack(0)
        .with_queue_depth(16);
    let mut sched = Scheduler::new(sched_config, make_policy()).expect("config");
    let s = sched
        .run(trace.iter().copied(), 64.0)
        .unwrap_or_else(|e| panic!("scheduler run ({what}): {e}"));

    let mut controller =
        FrFcfsController::new(SimConfig::with_rows(ROWS), make_policy(), 16).expect("valid depth");
    let c = controller
        .run(trace.iter().copied(), 64.0)
        .unwrap_or_else(|e| panic!("controller run ({what}): {e}"));

    assert_eq!(s.sim, c.sim, "SimStats diverged ({what})");
    assert_eq!(s.reordered, c.reordered, "reorderings diverged ({what})");
    assert_eq!(
        s.max_queue_depth, c.max_queue_depth,
        "queue depth diverged ({what})"
    );
    assert_eq!(
        s.queue_stalls, c.queue_stalls,
        "queue stalls diverged ({what})"
    );
    assert_eq!(s.pulled_in_refreshes, 0, "pull-in must be off");
}

#[test]
fn single_bank_scheduler_is_bit_identical_to_the_controller() {
    let traces: [(&str, Vec<TraceRecord>); 4] = [
        ("empty", Vec::new()),
        ("thrash", thrash_trace()),
        ("sparse", sparse_trace()),
        ("bursty", bursty_trace(40, 100, 500_000, ROWS)),
    ];
    for (name, trace) in &traces {
        assert_bit_identical(|| AutoRefresh::new(64.0), trace, &format!("auto/{name}"));
        assert_bit_identical(
            || Raidr::new(bins_all(300.0, ROWS as usize)),
            trace,
            &format!("raidr/{name}"),
        );
        assert_bit_identical(
            || Vrl::new(bins_all(300.0, ROWS as usize), vec![3; ROWS as usize]),
            trace,
            &format!("vrl/{name}"),
        );
        assert_bit_identical(
            || VrlAccess::new(bins_all(300.0, ROWS as usize), vec![3; ROWS as usize]),
            trace,
            &format!("vrl-access/{name}"),
        );
    }
}

/// Builds the multi-bank comparison pair for one policy: (plain,
/// parallel) stats over the same bursty trace.
fn multibank_pair<P, F>(make_policy: F) -> (vrl_sched::SchedStats, vrl_sched::SchedStats)
where
    P: RefreshPolicy,
    F: Fn() -> P,
{
    let config = SchedConfig::with_geometry(4, 1024).expect("geometry");
    let trace = bursty_trace(1280, 400, 50_000, 4096);
    let mut plain = Scheduler::new(config.with_parallelism(false), make_policy()).expect("config");
    let mut dsarp = Scheduler::new(config.with_parallelism(true), make_policy()).expect("config");
    let p = plain.run(trace.iter().copied(), 64.0).expect("plain run");
    let d = dsarp
        .run(trace.iter().copied(), 64.0)
        .expect("parallel run");
    (p, d)
}

#[test]
fn parallelism_hides_vrl_refreshes_from_demand() {
    let total = 4 * 1024usize;
    let (p, d) = multibank_pair(|| Vrl::new(bins_all(300.0, total), vec![3; total]));
    assert_eq!(p.sim.total_refreshes(), d.sim.total_refreshes());
    assert!(p.refresh_blocked_cycles > 0, "bursts must contend at all");
    assert!(
        d.refresh_blocked_cycles < p.refresh_blocked_cycles / 4,
        "demand-visible refresh time must collapse: {} vs {}",
        d.refresh_blocked_cycles,
        p.refresh_blocked_cycles
    );
    assert!(d.sim.postponed_refreshes > 0);
    assert!(d.pulled_in_refreshes > 0);
}

#[test]
fn parallelism_converts_vrl_access_refreshes_to_partials() {
    let total = 4 * 1024usize;
    let (p, d) = multibank_pair(|| VrlAccess::new(bins_all(300.0, total), vec![3; total]));
    assert_eq!(p.sim.total_refreshes(), d.sim.total_refreshes());
    assert!(
        d.refresh_blocked_cycles < p.refresh_blocked_cycles,
        "demand-visible refresh time must drop: {} vs {}",
        d.refresh_blocked_cycles,
        p.refresh_blocked_cycles
    );
    // Deferring a refresh past a burst gives intervening ACTs a chance
    // to reset the row's counter, turning the refresh partial: raw
    // refresh-busy time itself drops, not just the demand-visible part.
    assert!(
        d.sim.refresh_busy_cycles <= p.sim.refresh_busy_cycles,
        "deferral must not add refresh work: {} vs {}",
        d.sim.refresh_busy_cycles,
        p.sim.refresh_busy_cycles
    );
    assert!(
        d.sim.full_refreshes <= p.sim.full_refreshes,
        "deferral must not add full refreshes: {} vs {}",
        d.sim.full_refreshes,
        p.sim.full_refreshes
    );
}

/// Runs the same policy through the SoA scheduler and the reference
/// per-bank-heap engine and demands bit-identical statistics.
fn assert_matches_reference<P, F>(
    make_policy: F,
    config: SchedConfig,
    trace: &[TraceRecord],
    what: &str,
) where
    P: RefreshPolicy,
    F: Fn() -> P,
{
    let mut soa = Scheduler::new(config, make_policy()).expect("config");
    let s = soa
        .run(trace.iter().copied(), 64.0)
        .unwrap_or_else(|e| panic!("SoA run ({what}): {e}"));
    let mut reference = ReferenceScheduler::new(config, make_policy()).expect("config");
    let r = reference
        .run(trace.iter().copied(), 64.0)
        .unwrap_or_else(|e| panic!("reference run ({what}): {e}"));
    assert_eq!(s, r, "SoA diverged from the reference ({what})");
}

#[test]
fn soa_scheduler_matches_the_reference_on_one_channel() {
    // The pre-rewrite geometry: one channel, one rank, N banks — every
    // policy, every traffic shape, parallelization on and off.
    let rows = (4 * ROWS) as usize;
    let traces: [(&str, Vec<TraceRecord>); 4] = [
        ("empty", Vec::new()),
        ("thrash", thrash_trace()),
        ("sparse", sparse_trace()),
        ("bursty", bursty_trace(40, 100, 500_000, 4 * ROWS)),
    ];
    for parallel in [false, true] {
        let config = SchedConfig::with_geometry(4, ROWS)
            .expect("geometry")
            .with_parallelism(parallel);
        for (name, trace) in &traces {
            let what = |p: &str| format!("{p}/{name}/parallel={parallel}");
            assert_matches_reference(|| AutoRefresh::new(64.0), config, trace, &what("auto"));
            assert_matches_reference(
                || Raidr::new(bins_all(300.0, rows)),
                config,
                trace,
                &what("raidr"),
            );
            assert_matches_reference(
                || Vrl::new(bins_all(300.0, rows), vec![3; rows]),
                config,
                trace,
                &what("vrl"),
            );
            assert_matches_reference(
                || VrlAccess::new(bins_all(300.0, rows), vec![3; rows]),
                config,
                trace,
                &what("vrl-access"),
            );
        }
    }
}

#[test]
fn soa_scheduler_matches_the_reference_across_dimm_geometries() {
    for (channels, ranks, banks) in [(2, 1, 4), (1, 2, 4), (2, 2, 4), (4, 1, 2)] {
        let config = SchedConfig::with_dimm_geometry(channels, ranks, banks, ROWS)
            .expect("geometry")
            .with_parallelism(true);
        let rows = config.total_rows() as usize;
        let trace = bursty_trace(40, 150, 300_000, config.banks() * ROWS);
        let what = |p: &str| format!("{p}/{channels}ch x {ranks}rk x {banks}bk");
        assert_matches_reference(|| AutoRefresh::new(64.0), config, &trace, &what("auto"));
        assert_matches_reference(
            || VrlAccess::new(bins_all(300.0, rows), vec![3; rows]),
            config,
            &trace,
            &what("vrl-access"),
        );
    }
}

#[test]
fn rank_refresh_spacing_binds_only_with_trfc() {
    // With tRFC wide enough to matter, same-rank refreshes spread out
    // (more total busy-spanned time); the SoA and reference engines
    // must still agree bit-for-bit.
    let config = SchedConfig::with_dimm_geometry(1, 2, 4, ROWS)
        .expect("geometry")
        .with_trfc(64);
    let trace = bursty_trace(20, 100, 400_000, config.banks() * ROWS);
    assert_matches_reference(|| AutoRefresh::new(64.0), config, &trace, "auto/trfc=64");

    let rows = config.total_rows() as usize;
    assert_matches_reference(
        || Vrl::new(bins_all(300.0, rows), vec![3; rows]),
        config,
        &trace,
        "vrl/trfc=64",
    );
}

#[test]
fn parallelized_refreshes_keep_every_row_charged() {
    // Weak-but-comfortable retention in the 256 ms bin: the pull-in /
    // postpone window (64 µs) is four orders of magnitude below the
    // retention margin, so a correct scheduler shows zero violations.
    let total = 4 * 64usize;
    let config = SchedConfig::with_geometry(4, 64).expect("geometry");
    let physics = LinearPhysics {
        full: 0.95,
        partial_gain: 0.4,
        threshold: 0.62,
    };
    let mut checker =
        IntegrityChecker::new(physics, TimingParams::paper_default(), vec![1500.0; total]);
    let mut sched =
        Scheduler::new(config, Vrl::new(bins_all(1500.0, total), vec![3; total])).expect("config");
    let trace = bursty_trace(64, 200, 1_000_000, total as u32);
    sched
        .run_observed(trace.into_iter(), 4096.0, &mut checker)
        .expect("run");
    assert!(
        checker.violations().is_empty(),
        "{:?}",
        checker.violations()
    );
}
