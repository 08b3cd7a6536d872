//! Sample statistics, the host stamp, and the result line.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Overwrites the value of a metric pushed earlier.
    ///
    /// # Panics
    ///
    /// On a name that was never pushed (a typo in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a reported metric"));
        m.value = value;
    }

    /// `{"name":{"value":v,"unit":"u"},...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it. Non-finite values (a division by a
/// zero count) are reported as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Requests per tail window: a sample this large or more has its tail
/// taken per window of consecutive requests (see [`latency`]).
pub const TAIL_WINDOW: usize = 1000;

/// The median and the tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples.
    pub count: usize,
    /// Median (interpolated between the two middle samples).
    pub p50: f64,
    /// The highest percentile with at least ten samples above it (the
    /// maximum when there are fewer than eleven samples); for a large
    /// sample, the median of that per window.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
    /// Windows the tail was taken over (1 = the whole sample).
    pub windows: usize,
}

/// The tail of one sorted sample: the highest percentile with at least
/// ten samples above it.
fn tail_of(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n > 10 {
        (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (sorted[n - 1], 100.0)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Summarizes raw samples given in completion order; `None` for an
/// empty sample. With at least two [`TAIL_WINDOW`]s of samples the tail
/// is the median over consecutive windows of each window's tail (p99.0
/// at 1000 per window): the whole-sample p99.99 of a 100k-request run
/// only measures the host's scheduling jitter.
pub fn latency(samples: &[f64]) -> Option<Latency> {
    if samples.is_empty() {
        return None;
    }
    let all = sorted(samples);
    let n = all.len();
    let (tail, tail_pct, windows) = if n >= 2 * TAIL_WINDOW {
        let tails: Vec<f64> = samples
            .chunks_exact(TAIL_WINDOW)
            .map(|w| tail_of(&sorted(w)).0)
            .collect();
        let pct = tail_of(&sorted(&samples[..TAIL_WINDOW])).1;
        (median(&tails), pct, tails.len())
    } else {
        let (t, p) = tail_of(&all);
        (t, p, 1)
    };
    Some(Latency {
        count: n,
        p50: median_sorted(&all),
        tail,
        tail_pct,
        windows,
    })
}

fn median_sorted(all: &[f64]) -> f64 {
    let n = all.len();
    if n % 2 == 1 {
        all[n / 2]
    } else {
        (all[n / 2 - 1] + all[n / 2]) / 2.0
    }
}

/// `total / count`, or 0 when nothing was counted.
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Median of a sample (interpolated between the two middle values; 0
/// for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median_sorted(&sorted(samples))
    }
}

fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` while a sampler thread polls this process's resident set
/// every 5 ms; returns `f`'s result and the largest resident set seen,
/// in MB. Unlike `VmHWM` this covers only the measured region, not the
/// set-up that preceded it.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_mb();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(rss_mb());
            }
            peak
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("the sampler does not panic");
        (out, peak.max(rss_mb()))
    })
}

/// Where a result was measured. Absolute numbers are comparable only
/// between results whose stamps match (see [`comparable`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// Worker threads the host offers.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// The workload's scale, e.g. `8192 rows x 512 ms`.
    pub scale: String,
}

impl Stamp {
    /// Stamps the current host for one workload run.
    pub fn current(workload: &str, seed: u64, scale: &str) -> Stamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
            workload: workload.to_owned(),
            seed,
            scale: scale.to_owned(),
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tool\":\"perfbench\",\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"workload\":{},\"seed\":{},\"scale\":{}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            json_string(&self.workload),
            self.seed,
            json_string(&self.scale)
        )
    }

    /// Reads the stamp of a result file written by [`write_result`].
    /// Files without a perfbench stamp — `BENCH_throughput.json` among
    /// them — are refused.
    pub fn from_result(value: &vrl_obs::json::JsonValue) -> Result<Stamp, String> {
        let stamp = value
            .get("stamp")
            .filter(|s| s.get("tool").and_then(|t| t.as_str()) == Some("perfbench"))
            .ok_or("not a perfbench result: it carries no host stamp")?;
        let text = |k: &str| {
            stamp
                .get(k)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or(format!("stamp lacks {k}"))
        };
        let num = |k: &str| {
            stamp
                .get(k)
                .and_then(|v| v.as_f64())
                .ok_or(format!("stamp lacks {k}"))
        };
        Ok(Stamp {
            nproc: num("nproc")? as usize,
            cpu_model: text("cpu_model")?,
            rustc: text("rustc")?,
            workload: text("workload")?,
            seed: num("seed")? as u64,
            scale: text("scale")?,
        })
    }
}

/// Whether absolute numbers of two results may be compared: same host
/// (core count, CPU model, compiler) and same workload at the same
/// scale. Seeds may differ — that is how spread across inputs is
/// measured.
pub fn comparable(a: &Stamp, b: &Stamp) -> Result<(), String> {
    for (what, x, y) in [
        ("nproc", a.nproc.to_string(), b.nproc.to_string()),
        ("cpu_model", a.cpu_model.clone(), b.cpu_model.clone()),
        ("rustc", a.rustc.clone(), b.rustc.clone()),
        ("workload", a.workload.clone(), b.workload.clone()),
        ("scale", a.scale.clone(), b.scale.clone()),
    ] {
        if x != y {
            return Err(format!("stamps differ in {what}: {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The benchmark's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json()
    )
}

/// Writes the stamped result (plus workload-specific notes) under
/// `dir`, returning the file's path.
pub fn write_result(
    dir: &Path,
    stamp: &Stamp,
    trace: bool,
    line: &str,
    notes: &[(String, String)],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        stamp.workload,
        stamp.seed,
        u8::from(trace)
    ));
    let mut body = format!(
        "{{\"stamp\":{},\"result\":{line},\"notes\":{{",
        stamp.to_json()
    );
    for (i, (k, v)) in notes.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{}:{}", json_string(k), json_string(v));
    }
    body.push_str("}}\n");
    std::fs::write(&path, body)?;
    Ok(path)
}

/// `perfbench compare A B`: prints B/A per metric, refusing results
/// whose stamps differ.
pub fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let load = |p: &Path| -> Result<(Stamp, vrl_obs::json::JsonValue), String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let value = vrl_obs::json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        let stamp = Stamp::from_result(&value).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok((stamp, value))
    };
    let (sa, va) = load(a)?;
    let (sb, vb) = load(b)?;
    comparable(&sa, &sb)?;
    let metrics =
        |v: &vrl_obs::json::JsonValue| match v.get("result").and_then(|r| r.get("metrics")) {
            Some(vrl_obs::json::JsonValue::Object(map)) => map
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect::<Vec<_>>(),
            _ => Vec::new(),
        };
    let mb = metrics(&vb);
    let mut out = String::new();
    for (name, x) in metrics(&va) {
        if let Some((_, y)) = mb.iter().find(|(n, _)| *n == name) {
            let _ = writeln!(out, "{name:40} {x:>14.4} {y:>14.4} {:>8.3}x", y / x);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_above_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = latency(&samples).unwrap();
        assert_eq!(l.count, 100);
        assert_eq!(l.p50, 50.5);
        assert_eq!(l.tail, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > l.tail).count(), 10);
        assert_eq!(l.tail_pct, 90.0);
        assert_eq!(l.windows, 1);
        let few = latency(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.p50, few.tail), (2.0, 3.0));
        assert!(latency(&[]).is_none());
    }

    #[test]
    fn a_large_sample_takes_its_tail_per_window() {
        // Three windows whose p99 is 1, 2 and 3; one outlier in the
        // last window does not move the median of the window tails.
        let mut samples = Vec::new();
        for w in 1..=3 {
            samples.extend((0..TAIL_WINDOW).map(|i| if i < 11 { f64::from(w) } else { 0.5 }));
        }
        samples[2 * TAIL_WINDOW] = 1e6;
        let l = latency(&samples).unwrap();
        assert_eq!((l.windows, l.tail, l.tail_pct), (3, 2.0, 99.0));
    }

    #[test]
    fn results_without_a_matching_stamp_are_refused() {
        let stamp = Stamp {
            nproc: 2,
            cpu_model: "cpu".into(),
            rustc: "rustc 1".into(),
            workload: "cold-pipeline".into(),
            seed: 1,
            scale: "8192 rows x 512 ms".into(),
        };
        let text = format!("{{\"stamp\":{},\"result\":{{}}}}", stamp.to_json());
        let parsed = Stamp::from_result(&vrl_obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, stamp);
        assert!(comparable(
            &stamp,
            &Stamp {
                seed: 2,
                ..stamp.clone()
            }
        )
        .is_ok());
        assert!(comparable(
            &stamp,
            &Stamp {
                nproc: 4,
                ..stamp.clone()
            }
        )
        .is_err());
        let legacy = r#"{"schema_version":2,"events_per_sec":4140000}"#;
        assert!(Stamp::from_result(&vrl_obs::json::parse(legacy).unwrap()).is_err());
    }
}
