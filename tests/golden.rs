//! Golden outputs of the Fig. 8 comparison at the quick-suite
//! configuration: No-HBM plus the six Fig. 8 designs × `mcf,xz`, scale
//! 1/256, 20 000 accesses, latency sampling at one in 64.
//!
//! The paper's claims are ratios of per-design cycles and traffic, so
//! this pins every number they are computed from, exactly: the report
//! lines (`fig8.jsonl`: cycles, IPC, hit rate, migrations, over-fetch,
//! energy), the bandwidth stream (`fig8.bw.jsonl`: traffic by cause,
//! per-epoch utilisation) and the latency summaries of `fig8.lat.jsonl`
//! (per-path tails; the raw `kind=lat` records are left out). The files
//! under `tests/golden/` are what
//!
//! ```text
//! fig8 --scale 256 --accesses 20000 --workloads mcf,xz --trace-sample 64
//! ```
//!
//! writes. `--batch` and `--shards` are pure performance knobs, so each
//! run must match them byte for byte. On a mismatch the test writes the
//! actual output under the target's scratch directory and prints the
//! `cp` commands that make it the new golden.

use bumblebee::sim::figures::fig8;
use bumblebee::sim::{Engine, MetricsConfig, RunConfig};
use bumblebee::trace::SpecProfile;
use std::path::Path;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Prefix of a raw sampled-latency record line.
const RAW_LAT: &str = r#"{"kind":"lat","#;

/// Runs the matrix on `engine` and compares each stream with its golden.
fn assert_matches_golden(label: &str, engine: Engine) {
    let engine = engine.with_metrics(MetricsConfig {
        sample_rate: 64,
        ..MetricsConfig::default()
    });
    let cfg = RunConfig::at_scale(256, 20_000);
    let profiles = [SpecProfile::named("mcf"), SpecProfile::named("xz")];
    let results = fig8::run_with(&engine, &cfg, &profiles)
        .expect("the quick geometry is valid")
        .results;
    let streams = [
        ("fig8.jsonl", results.jsonl_lines()),
        ("fig8.bw.jsonl", results.bw_jsonl_lines()),
        (
            "fig8.lat.jsonl",
            results
                .lat_jsonl_lines()
                .into_iter()
                .filter(|l| !l.starts_with(RAW_LAT))
                .collect(),
        ),
    ];
    let mut failures = Vec::new();
    for (name, lines) in streams {
        let actual: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let golden_path = Path::new(GOLDEN_DIR).join(name);
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
        if actual == golden {
            continue;
        }
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("golden")
            .join(label);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        let actual_path = dir.join(name);
        std::fs::write(&actual_path, &actual).expect("scratch directory is writable");
        failures.push(format!(
            "{name} differs from line {}; to accept the new output:\n  cp {} {}",
            line + 1,
            actual_path.display(),
            golden_path.display()
        ));
    }
    assert!(failures.is_empty(), "{label}: {}", failures.join("\n"));
}

#[test]
fn default_batch_matches_golden() {
    assert_matches_golden("default-batch", Engine::new(1));
}

#[test]
fn batch_1_matches_golden() {
    assert_matches_golden("batch-1", Engine::new(1).with_batch(1));
}

#[test]
fn shards_2_matches_golden() {
    assert_matches_golden("shards-2", Engine::new(1).with_shards(Some(2)));
}
