//! Every way of draining a [`Records`] stream yields the same records:
//! `next()` one at a time, internal iteration (`fold`/`for_each`), a
//! prefix taken through `by_ref()` with the rest drained internally (the
//! resume skip path), and a clone taken mid-stream.

use proptest::prelude::*;
use vrl_trace::gen::{AccessPattern, Records, Workload, WorkloadSpec};
use vrl_trace::record::TraceRecord;

/// Drains through `next()`: a `for` loop is external iteration.
fn pulled(records: Records) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    for r in records {
        out.push(r);
    }
    out
}

fn folded(records: Records) -> Vec<TraceRecord> {
    records.fold(Vec::new(), |mut out, r| {
        out.push(r);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_drain_yields_the_same_records(
        footprint in 0.001f64..1.0,
        // 0 → Zipf(0), 1 → Zipf(1), 2 → Zipf(exponent), 3 → Sequential.
        pattern in 0u8..4,
        exponent in 0.0f64..2.0,
        read_fraction in 0.0f64..1.0,
        accesses_per_us in 0.5f64..8.0,
        // Even → a power-of-two bank of 2^(bank % 14) rows; odd → `bank` rows.
        bank in 1u32..5000,
        seed in 0u64..1_000_000,
        split in 0usize..2000,
    ) {
        let pattern = match pattern {
            0 => AccessPattern::Zipf(0.0),
            1 => AccessPattern::Zipf(1.0),
            2 => AccessPattern::Zipf(exponent),
            _ => AccessPattern::Sequential,
        };
        let bank_rows = if bank % 2 == 0 { 1 << (bank % 14) } else { bank };
        let spec = WorkloadSpec {
            name: "prop".into(),
            footprint,
            pattern,
            read_fraction,
            accesses_per_us,
        };
        let stream = || Workload::new(spec.clone(), bank_rows, seed).records(1.0);

        let by_next = pulled(stream());
        prop_assert!(by_next.iter().all(|r| r.row < bank_rows));

        prop_assert_eq!(&folded(stream()), &by_next);

        let mut by_for_each = Vec::new();
        stream().for_each(|r| by_for_each.push(r));
        prop_assert_eq!(&by_for_each, &by_next);

        let mut resumed = stream();
        let mut skipped: Vec<TraceRecord> = resumed.by_ref().take(split).collect();
        resumed.for_each(|r| skipped.push(r));
        prop_assert_eq!(&skipped, &by_next);

        let mut original = stream();
        let head: Vec<TraceRecord> = original.by_ref().take(split).collect();
        let fork = original.clone();
        let mut tail = pulled(original);
        prop_assert_eq!(&folded(fork), &tail);
        let mut whole = head;
        whole.append(&mut tail);
        prop_assert_eq!(&whole, &by_next);
    }
}
