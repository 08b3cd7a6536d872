//! The paper-scale Figure 4 rows against their golden digest.
//!
//! `perfbench/fig4_golden.json` records the FNV-1a digest of the exact
//! (`Debug`) rendering of the rows `compare_all_with` returns at the
//! `fig4` binary's scale: 8192 rows × 2048 ms, seed 42. Any change to a
//! simulated Fig. 4 number moves the digest. The run takes tens of
//! seconds in release mode, so it is `#[ignore]`d here and run on its own:
//!
//! ```sh
//! cargo test --release --test fig4_golden -- --ignored
//! ```

use vrl::core::experiment::{Experiment, ExperimentConfig};
use vrl::exec::ExecConfig;
use vrl::obs::json::{parse, JsonValue};
use vrl_snap::fnv1a64;

const GOLDEN: &str = include_str!("../perfbench/fig4_golden.json");

#[test]
#[ignore = "paper scale; run with --release -- --ignored"]
fn paper_scale_fig4_rows_match_the_golden_digest() {
    let golden = parse(GOLDEN).expect("fig4_golden.json is valid JSON");
    let want = golden
        .get("digest")
        .and_then(JsonValue::as_str)
        .expect("fig4_golden.json has a digest");
    let experiment = Experiment::new(ExperimentConfig {
        duration_ms: 2048.0,
        ..Default::default()
    });
    let rows = experiment
        .compare_all_with(&ExecConfig::new(2))
        .expect("every benchmark runs");
    let got = format!("{:016x}", fnv1a64(format!("{rows:?}").as_bytes()));
    assert_eq!(got, want, "Fig. 4 rows moved off the golden digest");
}
