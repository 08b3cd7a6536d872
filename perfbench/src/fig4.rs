//! `fig4-matrix`: the paper's headline figure in-process, through
//! `vrl-exec`'s ordered pool and the streamed (never materialized)
//! trace, at the `fig4` binary's scale. Its rows are checked against a
//! golden digest, and its averages are printed beside the values the
//! documentation states.

use std::time::Instant;

use vrl_dram::experiment::{ComparisonRow, Experiment, ExperimentConfig, MatrixCell, PolicyKind};
use vrl_dram_sim::sim::NullObserver;
use vrl_exec::{map_ordered, map_ordered_report, ExecConfig, PoolReport};
use vrl_obs::json::{parse, JsonValue};
use vrl_trace::WorkloadSpec;

use crate::report::{latency, median, per, with_peak_rss, Metrics};
use crate::spans::{self, SpanLog};
use crate::RunOutput;

/// The figure's policies, in column order.
pub const POLICIES: [PolicyKind; 3] = [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess];

/// Pool workers (the host has two cores).
pub const WORKERS: usize = 2;

/// The golden record: the digest of the current rows, and the values
/// the documentation states.
const GOLDEN: &str = include_str!("../fig4_golden.json");

/// Set-up repetitions (each builds the experiment's profile and plan).
const SETUP_REPS: usize = 5;

/// The `fig4` binary's configuration: 8192 rows, 2048 ms, seed 42.
pub fn config() -> ExperimentConfig {
    ExperimentConfig {
        duration_ms: 2048.0,
        ..ExperimentConfig::default()
    }
}

/// The comparison rows `compare_all_with` assembles, rebuilt from the
/// cells of `run_matrix_with` (the same pool run, which also yields the
/// per-cell timings).
pub fn rows_from_cells(experiment: &Experiment, cells: &[MatrixCell]) -> Vec<ComparisonRow> {
    cells
        .chunks_exact(POLICIES.len())
        .map(|g| {
            let (raidr, vrl, va) = (&g[0].stats, &g[1].stats, &g[2].stats);
            ComparisonRow {
                benchmark: g[0].benchmark.clone(),
                raidr_cycles: raidr.refresh_busy_cycles,
                vrl_cycles: vrl.refresh_busy_cycles,
                vrl_access_cycles: va.refresh_busy_cycles,
                vrl_normalized: vrl.refresh_busy_cycles as f64 / raidr.refresh_busy_cycles as f64,
                vrl_access_normalized: va.refresh_busy_cycles as f64
                    / raidr.refresh_busy_cycles as f64,
                raidr_refresh_mw: experiment.power().breakdown(raidr).refresh_mw,
                vrl_access_refresh_mw: experiment.power().breakdown(va).refresh_mw,
            }
        })
        .collect()
}

/// FNV-1a over the rows' exact (`Debug`, round-trip) rendering.
pub fn digest(rows: &[ComparisonRow]) -> String {
    format!("{:016x}", vrl_snap::fnv1a64(format!("{rows:?}").as_bytes()))
}

/// Average VRL and VRL-Access reductions vs RAIDR, in percent, as the
/// `fig4` binary computes them.
pub fn reductions(rows: &[ComparisonRow]) -> (f64, f64) {
    let n = rows.len() as f64;
    let v = rows.iter().map(|r| r.vrl_normalized).sum::<f64>() / n;
    let va = rows.iter().map(|r| r.vrl_access_normalized).sum::<f64>() / n;
    ((1.0 - v) * 100.0, (1.0 - va) * 100.0)
}

fn golden() -> JsonValue {
    parse(GOLDEN).expect("fig4_golden.json is valid JSON")
}

fn num(v: &JsonValue, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or(&JsonValue::Null);
    }
    cur.as_f64().unwrap_or(f64::NAN)
}

/// Checks the rows against the golden digest and reports every
/// difference from the documented values (never hiding one).
pub fn check(rows: &[ComparisonRow], notes: &mut Vec<(String, String)>) -> bool {
    let golden = golden();
    let want = golden
        .get("digest")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    let got = digest(rows);
    let ok = got == want;
    notes.push((
        "fig4.digest".into(),
        format!(
            "{got} ({})",
            if ok {
                "matches golden"
            } else {
                "MISMATCH vs golden"
            }
        ),
    ));
    let (v, va) = reductions(rows);
    let doc = golden.get("documented").unwrap_or(&JsonValue::Null);
    let mut drift = Vec::new();
    for (name, measured, documented) in [
        ("VRL reduction %", v, num(doc, &["vrl_reduction_pct"])),
        (
            "VRL-Access reduction %",
            va,
            num(doc, &["vrl_access_reduction_pct"]),
        ),
    ] {
        let flag = if (measured - documented).abs() >= 0.05 {
            "DRIFT"
        } else {
            "ok"
        };
        drift.push(format!(
            "{name}: measured {measured:.1} documented {documented:.1} [{flag}]"
        ));
    }
    for row in rows {
        let documented = num(doc, &["vrl_access_normalized", &row.benchmark]);
        if (row.vrl_access_normalized - documented).abs() >= 0.0005 {
            drift.push(format!(
                "{} VRL-Access normalized: measured {:.3} documented {documented:.3} [DRIFT]",
                row.benchmark, row.vrl_access_normalized
            ));
        }
    }
    notes.push(("fig4.vs_documented".into(), drift.join("; ")));
    ok
}

fn setup() -> (Experiment, Vec<f64>) {
    let mut times = Vec::new();
    let mut experiment = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        experiment = Some(Experiment::new(config()));
        times.push(start.elapsed().as_secs_f64());
    }
    (experiment.expect("at least one set-up"), times)
}

fn matrix(experiment: &Experiment) -> Result<(Vec<MatrixCell>, PoolReport), String> {
    experiment
        .run_matrix_with(&ExecConfig::new(WORKERS), &POLICIES)
        .map_err(|e| format!("matrix failed: {e}"))
}

/// The scale stamped into `fig4-matrix` results.
pub const SCALE: &str = "8192 rows x 2048 ms, seed 42, 2 pool workers";

/// The untraced run: whole matrices until `seconds` have passed.
pub fn run(seconds: f64) -> Result<RunOutput, String> {
    let (experiment, setup_s) = setup();
    let mut notes = Vec::new();
    let mut samples = Vec::new();
    let mut correct = true;
    let mut walls = Vec::new();
    let start = Instant::now();
    let (result, rss) = with_peak_rss(|| -> Result<Vec<ComparisonRow>, String> {
        loop {
            let (cells, report) = matrix(&experiment)?;
            samples.extend(report.job_wall.iter().map(|d| d.as_secs_f64() * 1e3));
            walls.push(report.wall.as_secs_f64());
            let rows = rows_from_cells(&experiment, &cells);
            let mut matrix_notes = Vec::new();
            correct &= check(&rows, &mut matrix_notes);
            if walls.len() == 1 {
                notes.extend(matrix_notes);
            }
            if start.elapsed().as_secs_f64() >= seconds {
                return Ok(rows);
            }
        }
    });
    let last_rows = result?;
    let wall = start.elapsed().as_secs_f64();
    let lat = latency(&samples).ok_or("no cells")?;
    let (v, va) = reductions(&last_rows);
    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setup_s), "s");
    metrics.push("jobs_per_s", samples.len() as f64 / wall, "1/s");
    metrics.push("latency_p50_ms", lat.p50, "ms");
    metrics.push("latency_tail_ms", lat.tail, "ms");
    metrics.push("peak_rss_mb", rss, "MB");
    metrics.push("fig4.vrl_reduction_pct", v, "%");
    metrics.push("fig4.vrl_access_reduction_pct", va, "%");
    notes.push((
        "latency_tail".into(),
        format!("p{:.1} of {} cells", lat.tail_pct, lat.count),
    ));
    notes.push(("matrix walls (s)".into(), format!("{walls:.3?}")));
    notes.push((
        "error_rate".into(),
        "0 (in-process; a failed cell aborts the run)".into(),
    ));
    Ok(RunOutput {
        metrics,
        attempted: samples.len() as u64,
        failed: 0,
        correct,
        notes,
        scale: SCALE.into(),
        spans: Vec::new(),
    })
}

/// The traced run: the untraced pool matrix (pool report), the same
/// matrix with a span per cell (tracing overhead), and a layer replay
/// that separates trace generation from the engine.
pub fn run_traced() -> Result<RunOutput, String> {
    let (experiment, _) = setup();
    let mut notes = Vec::new();
    let cells_n = (WorkloadSpec::BENCHMARKS.len() * POLICIES.len()) as f64;

    let start = Instant::now();
    let (cells, report) = matrix(&experiment)?;
    let wall_untraced = start.elapsed();
    let mut correct = check(&rows_from_cells(&experiment, &cells), &mut notes);

    // The same pool run, one span per cell.
    let epoch = Instant::now();
    let jobs: Vec<(&str, PolicyKind)> = WorkloadSpec::BENCHMARKS
        .iter()
        .flat_map(|b| POLICIES.iter().map(move |&k| (*b, k)))
        .collect();
    let (timed, _) = map_ordered_report(&ExecConfig::new(WORKERS), &jobs, |_, &(b, k)| {
        let t0 = epoch.elapsed();
        let stats = experiment.run_policy(k, b)?;
        Ok::<_, vrl_dram::Error>((stats, t0, epoch.elapsed()))
    });
    let wall_traced = epoch.elapsed();
    let timed = timed.map_err(|e| format!("traced matrix failed: {e}"))?;
    let mut cell_log = SpanLog::new(epoch);
    for (i, (stats, t0, t1)) in timed.iter().enumerate() {
        cell_log.record("fig4.cell", *t0, *t1, None, i as u64);
        correct &= *stats == cells[i].stats;
    }

    // Layer replay: materialize each benchmark's trace, then run the
    // three policies over it.
    let epoch_c = Instant::now();
    let groups = map_ordered(
        &ExecConfig::new(WORKERS),
        &WorkloadSpec::BENCHMARKS,
        |i, b| {
            let mut log = SpanLog::new(epoch_c);
            let root = log.open("cell.group", None, i as u64);
            let span = log.open("trace.gen", Some(root), i as u64);
            let trace = experiment.materialize_trace(b)?;
            log.close(span);
            let mut stats = Vec::new();
            for k in POLICIES {
                let span = log.open("dram.sim", Some(root), i as u64);
                stats.push(experiment.run_policy_with(k, trace.iter().copied(), &mut NullObserver));
                log.close(span);
            }
            log.close(root);
            Ok::<_, vrl_dram::Error>((log, trace.len() as u64, stats))
        },
    )
    .map_err(|e| format!("layer replay failed: {e}"))?;
    let mut logs = Vec::new();
    let (mut records, mut events) = (0u64, 0u64);
    for (i, (log, n, stats)) in groups.into_iter().enumerate() {
        logs.push(log);
        records += n;
        for (j, s) in stats.into_iter().enumerate() {
            events += s.events();
            correct &= s == cells[i * POLICIES.len() + j].stats;
        }
    }

    let own = spans::self_ms(&logs);
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let mut metrics = crate::layer_metrics_zeroed();
    metrics.set("trace.gen_ms", get("trace.gen") / cells_n);
    metrics.set("trace.ns_per_record", per(get("trace.gen") * 1e6, records));
    metrics.set("dram.sim_ms", get("dram.sim") / cells_n);
    metrics.set("dram.ns_per_event", per(get("dram.sim") * 1e6, events));
    metrics.set("exec.mean_utilization", report.mean_utilization());
    metrics.set(
        "exec.slowest_job_ms",
        report
            .slowest_job()
            .map_or(0.0, |(_, d)| d.as_secs_f64() * 1e3),
    );
    metrics.set(
        "bench.tracing_overhead_ms",
        (wall_traced.as_secs_f64() - wall_untraced.as_secs_f64()) * 1e3 / cells_n,
    );
    notes.push((
        "walls".into(),
        format!(
            "untraced matrix {:.3} s, traced matrix {:.3} s, layer replay {:.3} s",
            wall_untraced.as_secs_f64(),
            wall_traced.as_secs_f64(),
            epoch_c.elapsed().as_secs_f64()
        ),
    ));
    let mut all = vec![cell_log];
    all.extend(logs);
    Ok(RunOutput {
        metrics,
        attempted: cells_n as u64,
        failed: 0,
        correct,
        notes,
        scale: SCALE.into(),
        spans: vec![("in-process".into(), all)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_from_cells_match_compare_all_with() {
        let experiment = Experiment::new(ExperimentConfig {
            rows: 256,
            duration_ms: 32.0,
            ..ExperimentConfig::default()
        });
        let cfg = ExecConfig::new(WORKERS);
        let (cells, _) = experiment.run_matrix_with(&cfg, &POLICIES).unwrap();
        let direct = experiment.compare_all_with(&cfg).unwrap();
        assert_eq!(rows_from_cells(&experiment, &cells), direct);
        assert_eq!(
            digest(&direct),
            digest(&rows_from_cells(&experiment, &cells))
        );
    }

    #[test]
    fn the_golden_file_documents_every_benchmark() {
        let golden = golden();
        assert_eq!(
            golden
                .get("digest")
                .and_then(JsonValue::as_str)
                .map(str::len),
            Some(16)
        );
        for b in WorkloadSpec::BENCHMARKS {
            assert!(
                num(&golden, &["documented", "vrl_access_normalized", b]).is_finite(),
                "{b}"
            );
        }
    }
}
