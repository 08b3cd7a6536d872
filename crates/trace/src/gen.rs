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
            gaps: GapSampler::new(mean_gap),
            sampler: RowSampler::new(self.spec.pattern, self.footprint_rows()),
            bank_rows: self.bank_rows,
            // `unit(m) < read_fraction` with both sides scaled by 2⁵³,
            // which is exact; `m` is an integer, so the bound is ceiled.
            reads_below: (self.spec.read_fraction * M_END as f64).ceil() as u64,
            cycle: 0,
            end_cycle,
        }
    }
}

/// Every random quantity of a record is a function of one RNG draw's top
/// 53 bits, `m = next_u64() >> 11`. `M_END = 2⁵³` is one past the
/// largest `m`.
const M_END: u64 = 1 << 53;

/// Most steps a [`StepTable`] stores, so that a rank fits its `u16`
/// guide. Ranks past it (a gap tail beyond 65535 cycles, rows past 65535
/// in a huge footprint) take the expression.
const MAX_STEPS: usize = u16::MAX as usize;

/// Guide cells per stored step, before the power-of-two round-up and the
/// cap that bounds a table's memory.
const GUIDE_CELLS_PER_STEP: usize = 2;
const MAX_GUIDE_CELLS: usize = 1 << 13;

/// Boundaries a lookup compares `m` with. A lookup that finds `m` past
/// all of them gives up, and its caller evaluates the expression.
const WALK: usize = 3;

/// One RNG draw as the integer `m`.
#[inline(always)]
fn draw(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> 11
}

/// `m · 2⁻⁵³`, the uniform `[0, 1)` draw of `m`. Exact for every `m`.
#[inline(always)]
fn unit(m: u64) -> f64 {
    m as f64 * (1.0 / M_END as f64)
}

/// The exact steps of a non-decreasing step function `rank(m)` on
/// `0..M_END`, and a guide that starts each lookup at or just below its
/// answer.
///
/// `bounds[k]` is the smallest `m` with `rank(m) > k`, found by bisection
/// with the production expression as the predicate. `bounds` ends with
/// [`WALK`] copies of the sentinel `M_END`, which no `m` reaches.
/// `guide[g]` is the rank at the first `m` of cell `g`, the `m` whose top
/// bits are `g`. The guide is sized from the step count and capped, so
/// its memory stays bounded.
#[derive(Debug, Clone)]
struct StepTable {
    bounds: Vec<u64>,
    guide: Vec<u16>,
    shift: u32,
}

impl StepTable {
    /// Tabulates `rank`, whose values run `0..=steps`. `guess(k)` is an
    /// analytic estimate of the unit draw at which `rank` first exceeds
    /// `k`, where the search for that boundary starts.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries do not ascend, i.e. if the expression
    /// behind `rank` is not monotone on this platform's libm.
    fn new(steps: usize, guess: impl Fn(usize) -> f64, rank: impl Fn(u64) -> usize) -> Self {
        let mut bounds = Vec::with_capacity(steps + WALK);
        bounds.extend((0..steps).map(|k| first_reached(guess(k), |m| rank(m) > k)));
        assert!(bounds.is_sorted(), "a sampling expression is not monotone");
        let cells = ((steps + 1).next_power_of_two() * GUIDE_CELLS_PER_STEP).min(MAX_GUIDE_CELLS);
        let shift = M_END.trailing_zeros() - cells.trailing_zeros();
        let mut k = 0;
        let guide = (0..cells as u64)
            .map(|cell| {
                let first = cell << shift;
                while k < steps && bounds[k] <= first {
                    k += 1;
                }
                k as u16
            })
            .collect();
        // Sentinels: a walk from the top rank reads `WALK` entries.
        bounds.extend([M_END; WALK]);
        StepTable {
            bounds,
            guide,
            shift,
        }
    }

    /// `rank(m)` from the table, or `None` when `m` lies [`WALK`] or more
    /// boundaries past the rank at the start of its guide cell. The
    /// boundaries are compared without branching.
    #[inline(always)]
    fn rank(&self, m: u64) -> Option<u32> {
        let k = u32::from(self.guide[(m >> self.shift) as usize]);
        let walk = &self.bounds[k as usize..k as usize + WALK];
        let passed: u32 = walk[..WALK - 1].iter().map(|&b| u32::from(m >= b)).sum();
        (m < walk[WALK - 1]).then_some(k + passed)
    }

    /// Heap bytes held by the boundaries and the guide.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.bounds.len() * std::mem::size_of::<u64>()
            + self.guide.len() * std::mem::size_of::<u16>()
    }
}

/// The smallest `m` in `0..=M_END` with `reached(m)`, taking
/// `reached(M_END)` as true. The search gallops out from the unit draw
/// `guess`, then bisects. `reached` must be false up to some `m` and true
/// from there on.
fn first_reached(guess: f64, reached: impl Fn(u64) -> bool) -> u64 {
    let hit = |m: u64| m >= M_END || reached(m);
    // A NaN or negative guess saturates to 0, a guess past 1 to `M_END`.
    let start = ((guess * M_END as f64) as u64).min(M_END);
    // Once bracketed, `lo` misses and `hi` hits.
    let (mut lo, mut hi);
    let mut stride = 1;
    if hit(start) {
        hi = start;
        loop {
            if hi == 0 {
                return 0;
            }
            let probe = hi.saturating_sub(stride);
            if !hit(probe) {
                lo = probe;
                break;
            }
            hi = probe;
            stride *= 2;
        }
    } else {
        lo = start;
        loop {
            let probe = (lo + stride).min(M_END);
            if hit(probe) {
                hi = probe;
                break;
            }
            lo = probe;
            stride *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if hit(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The arrival gap of draw `m`: the oracle for the gap table and its
/// fallback. This is `rng.gen_range(1e-12..1.0)` as the vendored `rand`
/// evaluates it (`start + unit·(end − start)`), then the exponential
/// inverse CDF `−ln(u)·mean_gap`, ceiled to at least one cycle.
fn gap(m: u64, mean_gap: f64) -> u64 {
    let u = 1e-12 + unit(m) * (1.0 - 1e-12);
    (-u.ln() * mean_gap).ceil().max(1.0) as u64
}

/// Draws exponential (Poisson-process) arrival gaps.
///
/// The gap is a non-increasing step function of `m`. The table's rank of
/// `m` is `tail − gap(m)`, for gaps up to `tail − 1 = ⌈8·mean_gap⌉`
/// (capped at [`MAX_STEPS`]). Rank 0 is a gap past the table, with mass
/// about e⁻⁸, and takes the expression.
#[derive(Debug, Clone)]
struct GapSampler {
    mean_gap: f64,
    tail: u64,
    table: StepTable,
}

impl GapSampler {
    fn new(mean_gap: f64) -> Self {
        let steps = ((8.0 * mean_gap).ceil() as usize).min(MAX_STEPS);
        let tail = steps as u64 + 1;
        // Rank `> k` is gap `≤ steps − k`, i.e. `u ≥ exp(−(steps − k)/mean_gap)`.
        let guess = |k: usize| ((-((steps - k) as f64) / mean_gap).exp() - 1e-12) / (1.0 - 1e-12);
        let table = StepTable::new(steps, guess, |m| {
            tail.saturating_sub(gap(m, mean_gap)) as usize
        });
        GapSampler {
            mean_gap,
            tail,
            table,
        }
    }

    /// The gap of draw `m`: from the table, or from the expression for
    /// the tail and for a failed walk.
    #[inline(always)]
    fn at(&self, m: u64) -> u64 {
        match self.table.rank(m) {
            Some(k) if k > 0 => self.tail - u64::from(k),
            _ => gap(m, self.mean_gap),
        }
    }
}

/// The continuous inverse CDF of the Zipf density `x^-s` on `[1, n+1)`.
///
/// Its f64 expressions and evaluation order are fixed: changing either
/// moves every generated trace (`tests/golden_traces.rs` pins them).
#[derive(Debug, Clone, Copy)]
enum ZipfCurve {
    /// `s = 1`: the CDF is proportional to `ln x`, so `x = hi^u`.
    Log { n: f64, hi: f64 },
    /// Any other `s > 0`: the CDF is proportional to `x^(1-s) - 1`, so
    /// `x = (1 + u·c)^inv_e` with `c = hi^(1-s) - 1` and `inv_e = 1/(1-s)`.
    Power { n: f64, c: f64, inv_e: f64 },
}

impl ZipfCurve {
    /// The zero-based row of draw `m`: the curve floored and clamped into
    /// the rank support `[1, n]`. This is the oracle for the row table
    /// and its fallback.
    fn row(self, m: u64) -> u32 {
        match self {
            ZipfCurve::Log { n, hi } => zipf_row(hi.powf(unit(m)), n),
            ZipfCurve::Power { n, c, inv_e } => zipf_row((1.0 + unit(m) * c).powf(inv_e), n),
        }
    }

    /// An analytic estimate of the unit draw where the curve reaches `x`.
    fn inverse(self, x: f64) -> f64 {
        match self {
            ZipfCurve::Log { hi, .. } => x.ln() / hi.ln(),
            ZipfCurve::Power { c, inv_e, .. } => (x.ln() / inv_e).exp_m1() / c,
        }
    }
}

/// Clamps a continuous Zipf draw into the rank support `[1, n]` and
/// returns the zero-based row of that rank.
#[inline(always)]
fn zipf_row(x: f64, n: f64) -> u32 {
    (x.floor().clamp(1.0, n) as u64 - 1) as u32
}

/// Draws Zipf rows. The row is a non-decreasing step function of `m`, and
/// the table's rank of `m` is the row itself, up to a [`MAX_STEPS`] cap.
#[derive(Debug, Clone)]
struct ZipfSampler {
    curve: ZipfCurve,
    table: StepTable,
    /// Ranks below this are rows; a capped table's top rank stands for
    /// every row from there on and takes the expression.
    exact_below: u32,
}

impl ZipfSampler {
    fn new(curve: ZipfCurve, footprint: u32) -> Self {
        let rows = footprint as usize - 1;
        let steps = rows.min(MAX_STEPS);
        // Row `> k` is `x ≥ k + 2`.
        let table = StepTable::new(
            steps,
            |k| curve.inverse(k as f64 + 2.0),
            |m| (curve.row(m) as usize).min(steps),
        );
        let exact_below = if steps < rows { steps } else { steps + 1 } as u32;
        ZipfSampler {
            curve,
            table,
            exact_below,
        }
    }

    /// The row of draw `m`: from the table, or from the expression for a
    /// failed walk or a rank past the cap.
    #[inline(always)]
    fn at(&self, m: u64) -> u32 {
        match self.table.rank(m) {
            Some(row) if row < self.exact_below => row,
            _ => self.curve.row(m),
        }
    }
}

/// Picks footprint-local rows, with every loop-invariant constant of the
/// pattern, and for the Zipf arms the exact row table, computed once per
/// stream. The Zipf expression, [`ZipfCurve::row`], is the oracle the
/// table is built from and the fallback when the table cannot answer.
#[derive(Debug, Clone)]
enum RowSampler {
    /// `Zipf(0)`: uniform over the footprint.
    Uniform(u32),
    /// `Zipf(s)` for `s > 0`.
    Zipf(ZipfSampler),
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
                let curve = if (s - 1.0).abs() < 1e-9 {
                    ZipfCurve::Log { n, hi }
                } else {
                    let e = 1.0 - s;
                    ZipfCurve::Power {
                        n,
                        c: hi.powf(e) - 1.0,
                        inv_e: 1.0 / e,
                    }
                };
                RowSampler::Zipf(ZipfSampler::new(curve, footprint))
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
            RowSampler::Zipf(zipf) => zipf.at(draw(rng)),
            RowSampler::Sequential { footprint, next } => {
                let row = *next;
                *next = if row + 1 == *footprint { 0 } else { row + 1 };
                row
            }
        }
    }
}

/// Iterator over generated trace records (see [`Workload::records`]).
#[derive(Debug, Clone)]
pub struct Records {
    rng: StdRng,
    gaps: GapSampler,
    sampler: RowSampler,
    bank_rows: u32,
    /// A draw `m` is a read iff `m < reads_below`.
    reads_below: u64,
    cycle: u64,
    end_cycle: u64,
}

impl Records {
    /// Generates the next record, or `None` once the stream passes its
    /// end cycle. Draws from the RNG in a fixed order: the arrival gap
    /// (see [`GapSampler`]), then the row (see [`RowSampler::sample`]),
    /// then the operation. The gap and Zipf-row expressions are the
    /// oracles of their tables and the fallbacks when a table cannot
    /// answer, so every record is the one they give.
    #[inline(always)]
    fn step(&mut self) -> Option<TraceRecord> {
        let gap = self.gaps.at(draw(&mut self.rng));
        self.cycle = self.cycle.saturating_add(gap);
        if self.cycle >= self.end_cycle {
            return None;
        }
        // Spread the footprint across the bank deterministically so
        // different footprints do not all collide on row 0..N.
        let row = spread_row(self.sampler.sample(&mut self.rng), self.bank_rows);
        let op = if draw(&mut self.rng) < self.reads_below {
            Op::Read
        } else {
            Op::Write
        };
        Some(TraceRecord::new(self.cycle, op, row))
    }

    /// Heap bytes held by this stream's gap and row tables.
    #[cfg(test)]
    fn table_bytes(&self) -> usize {
        let rows = match &self.sampler {
            RowSampler::Zipf(zipf) => zipf.table.bytes(),
            _ => 0,
        };
        self.gaps.table.bytes() + rows
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

    /// The certificate test's specs: every preset at the default 8192
    /// rows, one on a 1000-row bank, a low-intensity spec whose gap table
    /// hits the [`MAX_STEPS`] cap, and a 2¹⁷-row footprint whose row
    /// table does.
    fn certified_specs() -> Vec<(WorkloadSpec, u32)> {
        let mut specs: Vec<_> = WorkloadSpec::BENCHMARKS
            .iter()
            .map(|name| (WorkloadSpec::parsec(name).expect("known"), 8192))
            .collect();
        specs.push((WorkloadSpec::parsec("raytrace").expect("known"), 1000));
        let sparse = WorkloadSpec {
            name: "sparse".into(),
            footprint: 0.5,
            pattern: AccessPattern::Zipf(0.7),
            read_fraction: 0.5,
            accesses_per_us: 0.05,
        };
        specs.push((sparse, 8192));
        let wide = WorkloadSpec {
            name: "wide".into(),
            footprint: 1.0,
            pattern: AccessPattern::Zipf(0.9),
            read_fraction: 0.5,
            accesses_per_us: 4.0,
        };
        specs.push((wide, 1 << 17));
        specs
    }

    /// Checks `table` against `rank`, the expression it tabulates. Every
    /// reachable stored boundary `b` of step `k` must be a real step:
    /// `rank(b) > k` and `rank(b − 1) ≤ k`, with `rank` monotone over
    /// `b ± 64`. Every lookup that answers must equal `rank`, at each
    /// `b − 1, b, b + 1` and at 1M random draws. Returns those draws,
    /// random ones first, and how many random ones the table answered.
    fn certify(table: &StepTable, rank: impl Fn(u64) -> usize) -> (Vec<u64>, usize) {
        const RANDOM: usize = 1_000_000;
        let steps = table.bounds.len() - WALK;
        let mut rng = StdRng::seed_from_u64(steps as u64);
        let mut probes: Vec<u64> = (0..RANDOM).map(|_| draw(&mut rng)).collect();
        for (k, &b) in table.bounds[..steps].iter().enumerate() {
            if b == M_END {
                continue; // a step no draw reaches
            }
            assert!(rank(b) > k, "boundary {k} at m = {b} is not a step");
            if b > 0 {
                assert!(rank(b - 1) <= k, "boundary {k} at m = {b} is late");
            }
            let window: Vec<usize> = (b.saturating_sub(64)..(b + 65).min(M_END))
                .map(&rank)
                .collect();
            assert!(window.is_sorted(), "not monotone around m = {b}");
            probes.extend([b.saturating_sub(1), b, (b + 1).min(M_END - 1)]);
        }
        let mut answered = 0;
        for (i, &m) in probes.iter().enumerate() {
            if let Some(k) = table.rank(m) {
                assert_eq!(k as usize, rank(m), "lookup at m = {m}");
                answered += usize::from(i < RANDOM);
            }
        }
        (probes, answered)
    }

    #[test]
    fn table_boundaries_are_certified() {
        let mut gap_tails = 0;
        let mut answered_shares = Vec::new();
        for (spec, bank_rows) in certified_specs() {
            let name = spec.name.clone();
            let records = Workload::new(spec, bank_rows, 0).records(1.0);
            let gaps = &records.gaps;
            let (probes, answered) = certify(&gaps.table, |m| {
                gaps.tail.saturating_sub(gap(m, gaps.mean_gap)) as usize
            });
            answered_shares.push((name.clone(), answered));
            for &m in &probes {
                assert_eq!(gaps.at(m), gap(m, gaps.mean_gap), "{name}: gap at m = {m}");
                gap_tails += usize::from(gaps.at(m) >= gaps.tail);
            }
            if let RowSampler::Zipf(zipf) = &records.sampler {
                let steps = zipf.table.bounds.len() - WALK;
                let (probes, answered) =
                    certify(&zipf.table, |m| (zipf.curve.row(m) as usize).min(steps));
                answered_shares.push((name.clone(), answered));
                for &m in &probes {
                    assert_eq!(zipf.at(m), zipf.curve.row(m), "{name}: row at m = {m}");
                }
            }
        }
        // The gap tail past the table falls back to the expression.
        assert!(gap_tails > 0);
        // At the presets' intensities a table answers at least 95% of
        // draws (the lowest, swaptions' gap table, answers about 97%).
        for (name, answered) in answered_shares {
            assert!(
                name == "sparse" || name == "wide" || answered >= 950_000,
                "{name}: {answered}"
            );
        }
    }

    #[test]
    fn preset_tables_fit_the_memory_budget() {
        for name in WorkloadSpec::BENCHMARKS {
            let spec = WorkloadSpec::parsec(name).expect("known");
            let bytes = Workload::new(spec, 8192, 0).records(1.0).table_bytes();
            assert!(bytes <= 192 << 10, "{name}: {bytes} table bytes");
        }
    }

    #[test]
    fn spread_row_is_bijective_on_power_of_two() {
        let rows = 1024;
        let distinct: HashSet<u32> = (0..rows).map(|i| spread_row(i, rows)).collect();
        assert_eq!(distinct.len(), rows as usize);
    }
}
