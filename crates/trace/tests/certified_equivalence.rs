//! The table-driven generator against the libm generator it replaced.
//!
//! `Reference` is a verbatim copy of the generator as it was before the
//! gap and Zipf-row tables: every record evaluates `ln` for its arrival
//! gap and `powf` for its Zipf row. The production stream must yield the
//! same records over a wider space than `records_equivalence.rs` covers:
//! intensities down to 0.05/µs (the gap table's cap and tail fallback),
//! Zipf exponents at and around the `ZipfLog` cut, steep exponents up to
//! 3, a one-row footprint, all-read and all-write mixes, and power-of-two
//! and other banks. The `#[ignore]`d sweep compares at least 30M records
//! over 320 random specs:
//!
//! ```sh
//! cargo test --release -p vrl-trace --test certified_equivalence -- --ignored
//! ```

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use vrl_trace::gen::{AccessPattern, Workload, WorkloadSpec, CYCLES_PER_US};
use vrl_trace::record::{Op, TraceRecord};

#[derive(Debug, Clone)]
enum RowSampler {
    Uniform(u32),
    ZipfLog { n: f64, hi: f64 },
    Zipf { n: f64, c: f64, inv_e: f64 },
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

fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn zipf_row(x: f64, n: f64) -> u32 {
    (x.floor().clamp(1.0, n) as u64 - 1) as u32
}

fn spread_row(index: u32, bank_rows: u32) -> u32 {
    if bank_rows.is_power_of_two() {
        index.wrapping_mul(2654435761) & (bank_rows - 1)
    } else {
        ((index as u64 * 2654435761) % bank_rows as u64) as u32
    }
}

/// The libm generator, as `Workload::records` built and ran it.
struct Reference {
    rng: StdRng,
    sampler: RowSampler,
    bank_rows: u32,
    read_fraction: f64,
    mean_gap: f64,
    cycle: u64,
    end_cycle: u64,
}

impl Reference {
    fn new(spec: &WorkloadSpec, bank_rows: u32, seed: u64, duration_ms: f64) -> Self {
        let footprint = ((bank_rows as f64 * spec.footprint).round() as u32).max(1);
        Reference {
            rng: StdRng::seed_from_u64(seed),
            sampler: RowSampler::new(spec.pattern, footprint),
            bank_rows,
            read_fraction: spec.read_fraction,
            mean_gap: CYCLES_PER_US / spec.accesses_per_us,
            cycle: 0,
            end_cycle: (duration_ms * 1000.0 * CYCLES_PER_US) as u64,
        }
    }
}

impl Iterator for Reference {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        let gap = (-u.ln() * self.mean_gap).ceil().max(1.0) as u64;
        self.cycle = self.cycle.saturating_add(gap);
        if self.cycle >= self.end_cycle {
            return None;
        }
        let row = spread_row(self.sampler.sample(&mut self.rng), self.bank_rows);
        let op = if unit(&mut self.rng) < self.read_fraction {
            Op::Read
        } else {
            Op::Write
        };
        Some(TraceRecord::new(self.cycle, op, row))
    }
}

/// A spec from raw draws. `pattern` picks the row pattern: 0 → uniform,
/// 1 → the `ZipfLog` arm, 2–5 → exponents `1 ± 1e-10` (inside the
/// `ZipfLog` cut) and `1 ± 1e-8` (outside it), 6 → the steepest exponent
/// 3, 7 → `exponent`, 8 → sequential. `mix` picks the read fraction:
/// 0 → all writes, 1 → all reads, else `read_fraction`. `footprint` 0
/// makes a one-row footprint.
fn spec(
    pattern: u8,
    exponent: f64,
    footprint: f64,
    mix: u8,
    read_fraction: f64,
    accesses_per_us: f64,
) -> WorkloadSpec {
    let pattern = match pattern {
        0 => AccessPattern::Zipf(0.0),
        1 => AccessPattern::Zipf(1.0),
        2 => AccessPattern::Zipf(1.0 + 1e-10),
        3 => AccessPattern::Zipf(1.0 - 1e-10),
        4 => AccessPattern::Zipf(1.0 + 1e-8),
        5 => AccessPattern::Zipf(1.0 - 1e-8),
        6 => AccessPattern::Zipf(3.0),
        7 => AccessPattern::Zipf(exponent),
        _ => AccessPattern::Sequential,
    };
    WorkloadSpec {
        name: "certified".into(),
        footprint: if footprint == 0.0 { 1e-12 } else { footprint },
        pattern,
        read_fraction: match mix {
            0 => 0.0,
            1 => 1.0,
            _ => read_fraction,
        },
        accesses_per_us,
    }
}

/// Compares the production stream with the reference record by record
/// and returns how many records both yielded.
fn compare(spec: &WorkloadSpec, bank_rows: u32, seed: u64, duration_ms: f64) -> usize {
    let mut reference = Reference::new(spec, bank_rows, seed, duration_ms);
    let mut records = 0;
    for record in Workload::new(spec.clone(), bank_rows, seed).records(duration_ms) {
        assert_eq!(
            Some(record),
            reference.next(),
            "record {records} of {spec:?} on {bank_rows} rows, seed {seed}"
        );
        records += 1;
    }
    assert_eq!(
        reference.next(),
        None,
        "{spec:?}: the reference runs longer"
    );
    records
}

/// Even → a power-of-two bank of `2^(bank % 14)` rows; odd → `bank` rows.
fn bank_rows(bank: u32) -> u32 {
    if bank.is_multiple_of(2) {
        1 << (bank % 14)
    } else {
        bank
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tables_reproduce_the_libm_generator(
        pattern in 0u8..9,
        exponent in 0.0f64..3.0,
        // 0 → a one-row footprint.
        footprint_pick in 0u8..8,
        footprint in 0.001f64..1.0,
        mix in 0u8..4,
        read_fraction in 0.0f64..1.0,
        // Log-uniform intensity over 0.05–8 accesses/µs.
        log_intensity in (0.05f64).ln()..(8.0f64).ln(),
        bank in 1u32..20_000,
        seed in 0u64..u64::MAX,
    ) {
        let footprint = if footprint_pick == 0 { 0.0 } else { footprint };
        let spec = spec(pattern, exponent, footprint, mix, read_fraction, log_intensity.exp());
        compare(&spec, bank_rows(bank), seed, 4.0);
    }
}

/// ROADMAP's gate for the tables: 320 random specs, about 100k records
/// each, at least 30M records in all.
#[test]
#[ignore = "sweep of 30M+ records; run in CI's perf-smoke job"]
fn tables_reproduce_the_libm_generator_sweep() {
    let mut draws = StdRng::seed_from_u64(0x5eed);
    let mut records = 0;
    for _ in 0..320 {
        let accesses_per_us = draws.gen_range((0.05f64).ln()..(8.0f64).ln()).exp();
        let footprint = if draws.gen_range(0u8..8) == 0 {
            0.0
        } else {
            draws.gen_range(0.001..1.0)
        };
        let spec = spec(
            draws.gen_range(0..9),
            draws.gen_range(0.0..3.0),
            footprint,
            draws.gen_range(0..4),
            draws.gen_range(0.0..1.0),
            accesses_per_us,
        );
        let bank = bank_rows(draws.gen_range(1..20_000));
        // Long enough for about 100k records at this intensity.
        let duration_ms = 100.0 / accesses_per_us;
        records += compare(&spec, bank, draws.next_u64(), duration_ms);
    }
    assert!(records >= 30_000_000, "only {records} records compared");
}
