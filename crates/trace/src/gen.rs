//! Synthetic workload generation.
//!
//! Each PARSEC benchmark (plus the `bgsave` server workload) is emulated
//! by a parameterized generator capturing the characteristics that matter
//! to refresh scheduling: *footprint* (how many distinct rows the
//! workload touches), *locality* (how skewed the row popularity is),
//! *read/write mix*, and *intensity* (accesses per microsecond). The
//! presets follow the published PARSEC characterization \[2\]: e.g.
//! `canneal` has a large, poorly-localized footprint; `swaptions` is tiny
//! and compute-bound; `streamcluster` streams; `bgsave` sequentially
//! sweeps all of memory doing writes.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::record::{Op, TraceRecord};

/// How the generator picks rows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Zipf-distributed row popularity with the given exponent over the
    /// footprint (0 = uniform, larger = more skewed).
    Zipf(f64),
    /// Sequential sweep over the footprint, wrapping around.
    Sequential,
}

/// A workload specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Benchmark name.
    pub name: String,
    /// Fraction of the bank's rows the workload touches, in `(0, 1]`.
    pub footprint: f64,
    /// Row-selection pattern.
    pub pattern: AccessPattern,
    /// Fraction of accesses that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Accesses per microsecond reaching this bank.
    pub accesses_per_us: f64,
}

impl WorkloadSpec {
    /// The PARSEC-3.0 benchmarks plus `bgsave`, in the paper's Figure 4
    /// order.
    pub const BENCHMARKS: [&'static str; 14] = [
        "blackscholes",
        "bodytrack",
        "canneal",
        "dedup",
        "facesim",
        "ferret",
        "fluidanimate",
        "freqmine",
        "raytrace",
        "streamcluster",
        "swaptions",
        "vips",
        "x264",
        "bgsave",
    ];

    /// Returns the preset for a benchmark name, or `None` if unknown.
    pub fn parsec(name: &str) -> Option<WorkloadSpec> {
        let (footprint, pattern, read_fraction, accesses_per_us) = match name {
            "blackscholes" => (0.15, AccessPattern::Zipf(1.1), 0.85, 1.0),
            "bodytrack" => (0.25, AccessPattern::Zipf(0.9), 0.80, 2.0),
            "canneal" => (0.95, AccessPattern::Zipf(0.3), 0.75, 6.0),
            "dedup" => (0.70, AccessPattern::Zipf(0.6), 0.60, 5.0),
            "facesim" => (0.50, AccessPattern::Zipf(0.7), 0.70, 3.0),
            "ferret" => (0.60, AccessPattern::Zipf(0.8), 0.75, 4.0),
            "fluidanimate" => (0.45, AccessPattern::Zipf(0.8), 0.65, 2.5),
            "freqmine" => (0.55, AccessPattern::Zipf(0.9), 0.85, 3.0),
            "raytrace" => (0.35, AccessPattern::Zipf(1.0), 0.90, 1.5),
            "streamcluster" => (0.80, AccessPattern::Sequential, 0.90, 7.0),
            "swaptions" => (0.10, AccessPattern::Zipf(1.2), 0.80, 0.8),
            "vips" => (0.65, AccessPattern::Zipf(0.6), 0.70, 4.5),
            "x264" => (0.75, AccessPattern::Zipf(0.5), 0.65, 5.5),
            "bgsave" => (1.00, AccessPattern::Sequential, 0.10, 8.0),
            _ => return None,
        };
        Some(WorkloadSpec {
            name: name.to_owned(),
            footprint,
            pattern,
            read_fraction,
            accesses_per_us,
        })
    }

    /// Validates the specification.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(
            self.footprint > 0.0 && self.footprint <= 1.0,
            "footprint in (0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read fraction in [0,1]"
        );
        assert!(self.accesses_per_us > 0.0, "intensity must be positive");
        if let AccessPattern::Zipf(s) = self.pattern {
            assert!(s >= 0.0, "zipf exponent must be non-negative");
        }
    }
}

/// A workload generator bound to a bank size and seed.
///
/// # Example
///
/// ```
/// use vrl_trace::gen::{Workload, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = WorkloadSpec::parsec("canneal").ok_or("unknown benchmark")?;
/// let workload = Workload::new(spec, 8192, 42);
/// let records: Vec<_> = workload.records(1.0 /* ms */).collect();
/// assert!(!records.is_empty());
/// assert!(records.windows(2).all(|w| w[0].cycle <= w[1].cycle));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    bank_rows: u32,
    seed: u64,
}

/// Memory-controller clock used to convert intensity to cycles (1 GHz:
/// matches the circuit model's 1 ns cycle).
pub const CYCLES_PER_US: f64 = 1000.0;

impl Workload {
    /// Binds a spec to a bank of `bank_rows` rows with a deterministic
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or the bank is empty.
    pub fn new(spec: WorkloadSpec, bank_rows: u32, seed: u64) -> Self {
        spec.validate();
        assert!(bank_rows > 0, "bank must have rows");
        Workload {
            spec,
            bank_rows,
            seed,
        }
    }

    /// The bound specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Number of distinct rows in the footprint.
    pub fn footprint_rows(&self) -> u32 {
        ((self.bank_rows as f64 * self.spec.footprint).round() as u32).max(1)
    }

    /// Streams `duration_ms` of trace records, sorted by cycle.
    pub fn records(&self, duration_ms: f64) -> Records {
        let end_cycle = (duration_ms * 1000.0 * CYCLES_PER_US) as u64;
        let mean_gap = CYCLES_PER_US / self.spec.accesses_per_us;
        Records {
            rng: StdRng::seed_from_u64(self.seed),
            sampler: RowSampler::new(self.spec.pattern, self.footprint_rows()),
            bank_rows: self.bank_rows,
            read_fraction: self.spec.read_fraction,
            mean_gap,
            cycle: 0,
            end_cycle,
        }
    }
}

/// Picks footprint-local rows, with every loop-invariant constant of the
/// pattern computed once per stream.
///
/// The Zipf arms are the continuous inverse CDF of the density `x^-s` on
/// `[1, n+1)`, floored and clamped into the rank support `[1, n]`. Their
/// f64 expressions and evaluation order are fixed: changing either moves
/// every generated trace (`tests/golden_traces.rs` pins them).
#[derive(Debug, Clone)]
enum RowSampler {
    /// `Zipf(0)`: uniform over the footprint.
    Uniform(u32),
    /// `Zipf(1)`: the CDF is proportional to `ln x`, so `x = hi^u`.
    ZipfLog { n: f64, hi: f64 },
    /// `Zipf(s)` for any other `s`: the CDF is proportional to
    /// `x^(1-s) - 1`, so `x = (1 + u·c)^inv_e` with `c = hi^(1-s) - 1`
    /// and `inv_e = 1/(1-s)`.
    Zipf { n: f64, c: f64, inv_e: f64 },
    /// A sweep over the footprint that wraps around; `next` is the row
    /// the next record gets.
    Sequential { footprint: u32, next: u32 },
}

impl RowSampler {
    fn new(pattern: AccessPattern, footprint: u32) -> Self {
        match pattern {
            AccessPattern::Zipf(0.0) => RowSampler::Uniform(footprint),
            AccessPattern::Zipf(s) => {
                let n = footprint as f64;
                let hi = n + 1.0;
                if (s - 1.0).abs() < 1e-9 {
                    RowSampler::ZipfLog { n, hi }
                } else {
                    let e = 1.0 - s;
                    RowSampler::Zipf {
                        n,
                        c: hi.powf(e) - 1.0,
                        inv_e: 1.0 / e,
                    }
                }
            }
            AccessPattern::Sequential => RowSampler::Sequential { footprint, next: 0 },
        }
    }

    /// Draws one footprint-local row: one RNG draw for the random arms,
    /// none for the sweep.
    #[inline(always)]
    fn sample(&mut self, rng: &mut StdRng) -> u32 {
        match self {
            RowSampler::Uniform(footprint) => rng.gen_range(0..*footprint),
            RowSampler::ZipfLog { n, hi } => zipf_row(hi.powf(unit(rng)), *n),
            RowSampler::Zipf { n, c, inv_e } => zipf_row((1.0 + unit(rng) * *c).powf(*inv_e), *n),
            RowSampler::Sequential { footprint, next } => {
                let row = *next;
                *next = if row + 1 == *footprint { 0 } else { row + 1 };
                row
            }
        }
    }
}

/// A uniform draw in `[0, 1)` with 53-bit precision.
#[inline(always)]
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Clamps a continuous Zipf draw into the rank support `[1, n]` and
/// returns the zero-based row of that rank.
#[inline(always)]
fn zipf_row(x: f64, n: f64) -> u32 {
    (x.floor().clamp(1.0, n) as u64 - 1) as u32
}

/// Iterator over generated trace records (see [`Workload::records`]).
#[derive(Debug, Clone)]
pub struct Records {
    rng: StdRng,
    sampler: RowSampler,
    bank_rows: u32,
    read_fraction: f64,
    mean_gap: f64,
    cycle: u64,
    end_cycle: u64,
}

impl Records {
    /// Generates the next record, or `None` once the stream passes its
    /// end cycle. Draws from the RNG in a fixed order: the arrival gap,
    /// then the row (see [`RowSampler::sample`]), then the operation.
    #[inline(always)]
    fn step(&mut self) -> Option<TraceRecord> {
        // Exponential inter-arrival (Poisson arrivals), minimum 1 cycle.
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        let gap = (-u.ln() * self.mean_gap).ceil().max(1.0) as u64;
        self.cycle = self.cycle.saturating_add(gap);
        if self.cycle >= self.end_cycle {
            return None;
        }
        // Spread the footprint across the bank deterministically so
        // different footprints do not all collide on row 0..N.
        let row = spread_row(self.sampler.sample(&mut self.rng), self.bank_rows);
        let op = if unit(&mut self.rng) < self.read_fraction {
            Op::Read
        } else {
            Op::Write
        };
        Some(TraceRecord::new(self.cycle, op, row))
    }
}

impl Iterator for Records {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.step()
    }

    /// Internal iteration (`for_each`, `sum`, …): the same `step` as
    /// [`Iterator::next`], with the generator state held in this frame's
    /// locals for the whole stream.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, TraceRecord) -> B,
    {
        let mut acc = init;
        while let Some(record) = self.step() {
            acc = f(acc, record);
        }
        acc
    }
}

/// Maps a footprint-local row index onto the bank via a fixed odd
/// multiplier (bijective modulo a power of two, decorrelates footprints
/// from physical row order).
fn spread_row(index: u32, bank_rows: u32) -> u32 {
    if bank_rows.is_power_of_two() {
        index.wrapping_mul(2654435761) & (bank_rows - 1)
    } else {
        ((index as u64 * 2654435761) % bank_rows as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gen(name: &str) -> Vec<TraceRecord> {
        let spec = WorkloadSpec::parsec(name).expect("known");
        Workload::new(spec, 8192, 42).records(2.0).collect()
    }

    #[test]
    fn all_presets_generate() {
        for name in WorkloadSpec::BENCHMARKS {
            let t = gen(name);
            assert!(!t.is_empty(), "{name} generated nothing");
        }
    }

    #[test]
    fn records_are_sorted_and_in_range() {
        let t = gen("canneal");
        let mut prev = 0;
        for r in &t {
            assert!(r.cycle >= prev);
            prev = r.cycle;
            assert!(r.row < 8192);
        }
    }

    #[test]
    fn intensity_controls_record_count() {
        let lo = gen("swaptions").len() as f64; // 0.8 /µs
        let hi = gen("bgsave").len() as f64; // 8 /µs
        assert!(hi > 5.0 * lo, "bgsave {hi} vs swaptions {lo}");
    }

    #[test]
    fn footprint_bounds_distinct_rows() {
        let t = gen("swaptions"); // 10% of 8192 = 819 rows
        let distinct: HashSet<u32> = t.iter().map(|r| r.row).collect();
        assert!(distinct.len() <= 820);
    }

    #[test]
    fn sequential_covers_footprint_evenly() {
        let spec = WorkloadSpec::parsec("bgsave").expect("known");
        let t: Vec<TraceRecord> = Workload::new(spec, 1024, 1).records(5.0).collect();
        let distinct: HashSet<u32> = t.iter().map(|r| r.row).collect();
        // 5 ms × 8/µs = 40k accesses over 1024 rows: full coverage.
        assert_eq!(distinct.len(), 1024);
    }

    #[test]
    fn write_heavy_bgsave() {
        let t = gen("bgsave");
        let writes = t.iter().filter(|r| r.op == Op::Write).count();
        assert!(writes as f64 > 0.8 * t.len() as f64);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen("ferret"), gen("ferret"));
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(WorkloadSpec::parsec("doom").is_none());
    }

    #[test]
    fn zipf_zero_is_uniform() {
        let spec = WorkloadSpec {
            name: "uniform".into(),
            footprint: 1.0,
            pattern: AccessPattern::Zipf(0.0),
            read_fraction: 0.5,
            accesses_per_us: 8.0,
        };
        let trace: Vec<TraceRecord> = Workload::new(spec, 64, 3).records(5.0).collect();
        let mut counts = vec![0usize; 64];
        for r in &trace {
            counts[r.row as usize] += 1;
        }
        let mean = trace.len() as f64 / 64.0;
        let max = *counts.iter().max().expect("non-empty") as f64;
        let min = *counts.iter().min().expect("non-empty") as f64;
        assert!(
            max < 1.5 * mean && min > 0.5 * mean,
            "not uniform: {min}..{max} vs {mean}"
        );
    }

    #[test]
    fn zipf_sampler_support_and_skew() {
        // One exponent per Zipf arm: below 1, the `ln` arm, above 1.
        for s in [0.99, 1.0, 1.2] {
            let mut sampler = RowSampler::new(AccessPattern::Zipf(s), 1000);
            let mut rng = StdRng::seed_from_u64(3);
            let mut low = 0usize;
            for _ in 0..10_000 {
                let row = sampler.sample(&mut rng);
                assert!(row < 1000, "Zipf({s}) drew row {row}");
                if row < 10 {
                    low += 1;
                }
            }
            // The head holds far more mass than uniform's 1%.
            assert!(low > 2_000, "Zipf({s}) low-rank mass = {low}");
        }
    }

    #[test]
    fn zipf_skew_survives_row_spreading() {
        let spec = WorkloadSpec {
            name: "skewed".into(),
            footprint: 1.0,
            pattern: AccessPattern::Zipf(0.99),
            read_fraction: 0.5,
            accesses_per_us: 8.0,
        };
        let trace: Vec<TraceRecord> = Workload::new(spec, 1024, 3).records(2.0).collect();
        let mut counts = vec![0usize; 1024];
        for r in &trace {
            counts[r.row as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = counts[..10].iter().sum();
        assert!(
            head * 5 > trace.len(),
            "top-10 rows hold {head} of {} accesses",
            trace.len()
        );
    }

    #[test]
    fn spread_row_is_bijective_on_power_of_two() {
        let rows = 1024;
        let distinct: HashSet<u32> = (0..rows).map(|i| spread_row(i, rows)).collect();
        assert_eq!(distinct.len(), rows as usize);
    }
}
