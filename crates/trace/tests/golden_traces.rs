//! Golden pins for the synthetic trace generator.
//!
//! Each pin is the FNV-1a hash of every generated record's
//! `(cycle, op, row)` in its snapshot encoding. Any change to the
//! generator's arithmetic, its RNG draw order or its row spreading moves
//! a hash; a speed-up of the generator must leave every one unchanged.

use vrl_snap::{fnv1a64, Encoder, Snapshot as _};
use vrl_trace::gen::{AccessPattern, Workload, WorkloadSpec};

fn digest(workload: &Workload, duration_ms: f64) -> (usize, u64) {
    let mut enc = Encoder::new();
    let mut records = 0;
    for r in workload.records(duration_ms) {
        r.save(&mut enc);
        records += 1;
    }
    (records, fnv1a64(&enc.into_bytes()))
}

/// Every Fig. 4 benchmark at 8192 rows × 16 ms, seed 42.
#[test]
fn benchmark_traces_are_golden() {
    const GOLDEN: [(&str, usize, u64); 14] = [
        ("blackscholes", 15957, 0x83d6_c87d_0311_6325),
        ("bodytrack", 31837, 0xfb24_02fa_814a_14be),
        ("canneal", 95586, 0xa720_97fa_4086_c369),
        ("dedup", 79699, 0x7442_3b0c_c5d2_c59d),
        ("facesim", 47706, 0x34a8_d36b_c3e9_06c9),
        ("ferret", 63669, 0x2ef5_cc99_6bde_1867),
        ("fluidanimate", 39885, 0xa2d1_7f27_c82d_1219),
        ("freqmine", 47706, 0x3226_89a4_d2c1_e66c),
        ("raytrace", 23937, 0xe985_8d9c_76b7_2cda),
        ("streamcluster", 111419, 0x6ebd_95d5_7c51_e113),
        ("swaptions", 12769, 0xbf2d_955c_0855_704c),
        ("vips", 71784, 0x5798_e62b_7fe2_c16a),
        ("x264", 87616, 0x05cc_261a_5704_e88d),
        ("bgsave", 127160, 0x9418_81a6_bc58_e73b),
    ];
    assert_eq!(
        GOLDEN.map(|(name, _, _)| name),
        WorkloadSpec::BENCHMARKS,
        "one pin per benchmark, in Fig. 4 order"
    );
    let mut got = Vec::new();
    for name in WorkloadSpec::BENCHMARKS {
        let spec = WorkloadSpec::parsec(name).expect("known benchmark");
        let (n, h) = digest(&Workload::new(spec, 8192, 42), 16.0);
        got.push((name, n, h));
    }
    assert_eq!(got, GOLDEN.to_vec());
}

/// `Zipf(0)` draws rows uniformly rather than through the Zipf sampler.
#[test]
fn uniform_trace_is_golden() {
    let spec = WorkloadSpec {
        name: "uniform".into(),
        footprint: 0.5,
        pattern: AccessPattern::Zipf(0.0),
        read_fraction: 0.7,
        accesses_per_us: 4.0,
    };
    let got = digest(&Workload::new(spec, 8192, 42), 16.0);
    assert_eq!(got, (63669, 0xf216_d719_ef3c_f740));
}

/// A bank whose row count is not a power of two spreads rows by modulo.
#[test]
fn non_power_of_two_bank_traces_are_golden() {
    let mut got = Vec::new();
    for name in ["ferret", "raytrace", "bgsave"] {
        let spec = WorkloadSpec::parsec(name).expect("known benchmark");
        got.push((name, digest(&Workload::new(spec, 1000, 42), 16.0)));
    }
    assert_eq!(
        got,
        [
            ("ferret", (63669, 0xbd8d_02a9_aecd_56a9)),
            ("raytrace", (23937, 0x9981_a354_423d_07e1)),
            ("bgsave", (127160, 0xe0d9_d3bb_7632_e56c)),
        ]
    );
}
