//! Seeded workload generation. Every spec a run submits, and the order
//! it submits them in, is a pure function of the workload seed; the
//! daemon only ever sees the generated request lines.

use vrl_serve::spec::{parse_spec, JobSpec};
use vrl_trace::WorkloadSpec;

/// The named workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Served default-size `sim` jobs that miss every cache.
    ColdPipeline,
    /// Served jobs on pre-built traces across all four engines.
    EngineMix,
    /// Served resubmissions of cached small specs plus telemetry reads.
    ReplayHot,
    /// The in-process Fig. 4 matrix at the `fig4` binary's scale.
    Fig4Matrix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ColdPipeline,
        Workload::EngineMix,
        Workload::ReplayHot,
        Workload::Fig4Matrix,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPipeline => "cold-pipeline",
            Workload::EngineMix => "engine-mix",
            Workload::ReplayHot => "replay-hot",
            Workload::Fig4Matrix => "fig4-matrix",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// splitmix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// An experiment seed. Kept below 2^53 so it crosses the wire's
    /// JSON numbers (parsed as f64) exactly.
    pub fn exp_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }
}

/// One spec a workload submits: the wire JSON and its validated form.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The `spec` object exactly as sent.
    pub json: String,
    /// The same object validated by the daemon's own parser.
    pub job: JobSpec,
}

impl Spec {
    /// Validates a generated spec object with the daemon's parser.
    pub fn new(json: String) -> Spec {
        let value = vrl_obs::json::parse(&json).expect("generated specs are valid JSON");
        let job = parse_spec(&value).expect("generated specs pass validation");
        Spec { json, job }
    }

    /// The `submit` request line for this spec.
    pub fn submit_line(&self) -> String {
        format!("{{\"type\":\"submit\",\"spec\":{}}}", self.json)
    }
}

/// The three Fig. 4 policies, in column order.
pub const POLICIES: [&str; 3] = ["raidr", "vrl", "vrl-access"];

/// The four engine front ends: the single-bank simulator, FR-FCFS with
/// an 8-deep queue, the 8-bank scheduler and a 2×2×8 DIMM.
pub const ENGINES: [&str; 4] = [
    "\"front_end\":\"sim\"",
    "\"front_end\":\"frfcfs\",\"queue_depth\":8",
    "\"front_end\":\"sched\",\"banks\":8",
    "\"front_end\":\"dimm\",\"channels\":2,\"ranks\":2,\"banks_per_rank\":8",
];

const STREAM_COLD: u64 = 1;
const STREAM_ENGINE: u64 = 2;
const STREAM_REPLAY: u64 = 3;
const STREAM_CLIENT: u64 = 16;

/// `cold-pipeline` round `round`: all 14 benchmarks × 3 policies at the
/// default config, every job with a fresh experiment seed (so profile,
/// plan, trace and result all miss), in seeded order.
pub fn cold_round(seed: u64, round: u64) -> Vec<Spec> {
    let mut rng = Rng::new(seed, STREAM_COLD + (round << 8));
    let mut specs: Vec<Spec> = WorkloadSpec::BENCHMARKS
        .iter()
        .flat_map(|b| POLICIES.iter().map(move |p| (*b, *p)))
        .map(|(b, p)| {
            let s = rng.exp_seed();
            Spec::new(format!(
                "{{\"benchmark\":\"{b}\",\"policy\":\"{p}\",\"seed\":{s}}}"
            ))
        })
        .collect();
    rng.shuffle(&mut specs);
    specs
}

/// A small warm-up job for `cold-pipeline`'s set-up: 512 rows, so none
/// of its cache keys can collide with a timed default-size job.
pub fn cold_warmup(seed: u64) -> Spec {
    let s = Rng::new(seed, STREAM_COLD + 0xFF).exp_seed();
    Spec::new(format!(
        "{{\"benchmark\":\"x264\",\"policy\":\"vrl\",\"rows\":512,\"duration_ms\":64,\"seed\":{s}}}"
    ))
}

/// The benchmarks whose traces `engine-mix` pre-builds. Fixed, so a
/// seed changes the experiment seed and the order but not the amount of
/// work: at the default config their traces are 16, 25 and 33 MB, well
/// inside the daemon's default 256 MB trace budget (the run asserts
/// that no trace is evicted).
pub const ENGINE_BENCHMARKS: [&str; 3] = ["bodytrack", "facesim", "ferret"];

/// `engine-mix`'s seeded experiment seed, shared by every spec of a run
/// so all of them share the pre-built traces.
pub fn engine_seed(seed: u64) -> u64 {
    Rng::new(seed, STREAM_ENGINE).exp_seed()
}

/// `engine-mix` set-up specs: one `auto`-policy `sim` job per benchmark.
/// They build the profile, plan and trace the timed specs reuse, while
/// no timed spec (which never uses `auto`) shares their spec hash.
pub fn engine_setup(seed: u64) -> Vec<Spec> {
    let s = engine_seed(seed);
    ENGINE_BENCHMARKS
        .iter()
        .map(|b| {
            Spec::new(format!(
                "{{\"benchmark\":\"{b}\",\"policy\":\"auto\",\"seed\":{s}}}"
            ))
        })
        .collect()
}

/// `engine-mix` round `round`: benchmarks × policies × engines in
/// seeded order. Rounds after the first raise the MPRSF guard band by
/// 0.005 per round; the guard band is not part of the trace key, so
/// every timed job hits a pre-built trace and misses the result cache.
pub fn engine_round(seed: u64, round: u64) -> Vec<Spec> {
    let s = engine_seed(seed);
    let guard = if round == 0 {
        String::new()
    } else {
        format!(",\"guard_band\":{:.3}", round as f64 * 0.005)
    };
    let mut specs = Vec::new();
    for b in ENGINE_BENCHMARKS {
        for p in POLICIES {
            for e in ENGINES {
                specs.push(Spec::new(format!(
                    "{{\"benchmark\":\"{b}\",\"policy\":\"{p}\",{e},\"seed\":{s}{guard}}}"
                )));
            }
        }
    }
    Rng::new(seed, STREAM_ENGINE + ((round + 1) << 8)).shuffle(&mut specs);
    specs
}

/// The benchmarks in the `replay-hot` set: Fig. 4's strongest and
/// weakest VRL-Access cases. Fixed, so a seed changes experiment seeds
/// and request order but not the shape of the set.
pub const REPLAY_BENCHMARKS: [&str; 2] = ["bgsave", "swaptions"];

/// The `replay-hot` spec set: small specs (512 rows × 64 ms), each
/// benchmark with a seeded experiment seed under every policy and
/// engine. Set-up runs them all once; the timed requests only resubmit
/// them.
pub fn replay_set(seed: u64) -> Vec<Spec> {
    let mut rng = Rng::new(seed, STREAM_REPLAY);
    let mut specs = Vec::new();
    for b in REPLAY_BENCHMARKS {
        let s = rng.exp_seed();
        for p in POLICIES {
            for e in ENGINES {
                specs.push(Spec::new(format!(
                    "{{\"benchmark\":\"{b}\",\"policy\":\"{p}\",{e},\"rows\":512,\"duration_ms\":64,\"seed\":{s}}}"
                )));
            }
        }
    }
    specs
}

/// One `replay-hot` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Resubmit the replay set's spec at this index.
    Submit(usize),
    /// A `health` read.
    Health,
    /// A full `metrics` text scrape.
    Metrics,
}

/// One client's endless `replay-hot` request stream: 80% resubmissions
/// (uniform over the set), 10% `health`, 10% `metrics`.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    set_len: usize,
}

impl OpStream {
    /// Client `client`'s stream over a set of `set_len` specs.
    pub fn new(seed: u64, client: u64, set_len: usize) -> OpStream {
        OpStream {
            rng: Rng::new(seed, STREAM_CLIENT + client),
            set_len,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.rng.below(10) {
            0 => Op::Health,
            1 => Op::Metrics,
            _ => Op::Submit(self.rng.below(self.set_len)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use vrl_serve::cache::trace_key;

    fn lines(specs: &[Spec]) -> Vec<String> {
        specs.iter().map(Spec::submit_line).collect()
    }

    #[test]
    fn the_same_seed_generates_the_same_specs_in_the_same_order() {
        for seed in [0, 7, 1 << 40] {
            assert_eq!(lines(&cold_round(seed, 0)), lines(&cold_round(seed, 0)));
            assert_eq!(lines(&cold_round(seed, 3)), lines(&cold_round(seed, 3)));
            assert_eq!(lines(&engine_setup(seed)), lines(&engine_setup(seed)));
            assert_eq!(lines(&engine_round(seed, 1)), lines(&engine_round(seed, 1)));
            assert_eq!(lines(&replay_set(seed)), lines(&replay_set(seed)));
            let ops: Vec<Op> = OpStream::new(seed, 1, 24).take(500).collect();
            assert_eq!(
                ops,
                OpStream::new(seed, 1, 24).take(500).collect::<Vec<_>>()
            );
        }
        assert_ne!(lines(&cold_round(1, 0)), lines(&cold_round(2, 0)));
    }

    #[test]
    fn cold_pipeline_trace_keys_are_distinct_within_and_across_seeds() {
        let mut keys = HashSet::new();
        let mut total = 0;
        for seed in [1, 2, 3] {
            for round in 0..2 {
                for spec in cold_round(seed, round) {
                    keys.insert(trace_key(&spec.job.config, &spec.job.benchmark));
                    total += 1;
                }
            }
        }
        assert_eq!(total, 3 * 2 * 42);
        assert_eq!(
            keys.len(),
            total,
            "every cold job must miss the trace cache"
        );
        let warm = cold_warmup(1);
        assert!(!keys.contains(&trace_key(&warm.job.config, &warm.job.benchmark)));
    }

    #[test]
    fn engine_mix_shares_trace_keys_with_set_up_but_no_spec_hash() {
        for seed in [1, 2, 3] {
            let setup = engine_setup(seed);
            let setup_keys: HashSet<u64> = setup
                .iter()
                .map(|s| trace_key(&s.job.config, &s.job.benchmark))
                .collect();
            let setup_hashes: HashSet<u64> = setup.iter().map(|s| s.job.canonical_hash()).collect();
            let mut timed_hashes = HashSet::new();
            for round in 0..4 {
                let specs = engine_round(seed, round);
                assert_eq!(specs.len(), ENGINE_BENCHMARKS.len() * 3 * 4);
                for spec in specs {
                    assert!(setup_keys.contains(&trace_key(&spec.job.config, &spec.job.benchmark)));
                    let hash = spec.job.canonical_hash();
                    assert!(!setup_hashes.contains(&hash));
                    assert!(timed_hashes.insert(hash), "a timed spec repeats");
                }
            }
        }
    }

    #[test]
    fn replay_ops_only_reference_the_cached_set() {
        let set = replay_set(9);
        assert_eq!(set.len(), REPLAY_BENCHMARKS.len() * 3 * 4);
        let ops: Vec<Op> = OpStream::new(9, 0, set.len()).take(10_000).collect();
        let submits = ops.iter().filter(|o| matches!(o, Op::Submit(_))).count();
        assert!((7_500..8_500).contains(&submits), "{submits}");
        assert!(ops
            .iter()
            .all(|o| !matches!(o, Op::Submit(i) if *i >= set.len())));
    }
}
