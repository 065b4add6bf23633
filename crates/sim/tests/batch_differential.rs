//! Differential property suite for the batched access pipeline: for
//! randomly drawn run configurations on two workload profiles (mcf, xz),
//! the engine must produce byte-identical output at batch widths
//! {1, 7, 64, 4096} — the `SimReport` JSONL line (which carries
//! `CtrlStats` and every cycle-domain invariant: cycles, IPC, hit rate,
//! migrations, over-fetch), the epoch time-series JSONL, the event-trace
//! JSONL, the sampled latency-attribution stream, and the
//! cause-attributed traffic/bandwidth stream. Batching is a pure
//! performance transform: chunks are cut at epoch boundaries and the
//! warm-up point, and planned device operations are serviced strictly in
//! access order, so the serial `--batch 1` run (one access per chunk,
//! lookup on the cell's thread) is the ground truth every wider chunk
//! must reproduce exactly — composed with set-sharding
//! (`--shards {1, 2, 8}`) and `--jobs` widths.
//!
//! Runs only with `--features proptest` (the in-repo shim), like the
//! other differential suites.

use memsim_sim::{Design, Engine, ExperimentMatrix, MetricsConfig, RunConfig};
use memsim_trace::SpecProfile;
use proptest::prelude::*;

/// Runs the matrix at one (batch, shards) point with metrics on.
fn run(
    m: &ExperimentMatrix,
    metrics: MetricsConfig,
    jobs: usize,
    batch: usize,
    shards: Option<usize>,
) -> memsim_sim::ResultSet {
    Engine::new(jobs)
        .with_metrics(metrics)
        .with_batch(batch)
        .with_shards(shards)
        .run(m)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn batched_runs_are_byte_identical_across_widths(
        xz in proptest::bool::ANY,
        accesses in 4_000u64..16_000,
        interval in 500u64..2_000,
    ) {
        let profile = if xz { SpecProfile::named("xz") } else { SpecProfile::mcf() };
        // One shardable design and one baseline: the baseline exercises
        // the default (per-access) trait batch implementation, Bumblebee
        // the grouped override.
        let m = ExperimentMatrix::cross(
            "batch_diff",
            &[Design::Bumblebee, Design::Alloy],
            &[profile],
            &RunConfig::at_scale(256, accesses),
        );
        let metrics = MetricsConfig {
            epoch_interval: interval,
            event_capacity: 256,
            sample_rate: 16,
            ..MetricsConfig::default()
        };

        // Ground truth: the one-access-at-a-time pipeline.
        let reference = run(&m, metrics, 1, 1, None);
        prop_assert!(!reference.jsonl_lines().is_empty());
        prop_assert!(!reference.epochs_jsonl_lines().is_empty());
        prop_assert!(!reference.trace_jsonl_lines().is_empty());
        prop_assert!(!reference.lat_jsonl_lines().is_empty());
        prop_assert!(!reference.bw_jsonl_lines().is_empty());
        for (report, obs) in reference.reports().iter().zip(reference.observations().unwrap()) {
            prop_assert!(report.cycles > 0);
            prop_assert_eq!(obs.path_counts.iter().sum::<u64>(), report.stats.total_accesses());
            prop_assert_eq!(obs.path_counts[0] + obs.path_counts[1], report.stats.hbm_hits);
            memsim_obs::reconcile(&obs.traffic.matrix, report.hbm_bytes, report.dram_bytes)
                .map_err(TestCaseError::fail)?;
        }

        for batch in [7usize, 64, 4096] {
            let b = run(&m, metrics, 1, batch, None);
            prop_assert_eq!(reference.jsonl_lines(), b.jsonl_lines());
            prop_assert_eq!(reference.epochs_jsonl_lines(), b.epochs_jsonl_lines());
            prop_assert_eq!(reference.trace_jsonl_lines(), b.trace_jsonl_lines());
            prop_assert_eq!(reference.lat_jsonl_lines(), b.lat_jsonl_lines());
            prop_assert_eq!(reference.bw_jsonl_lines(), b.bw_jsonl_lines());
            // The underlying structures, not just their rendering.
            for ((br, bo), (rr, ro)) in b
                .reports()
                .iter()
                .zip(b.observations().unwrap())
                .zip(reference.reports().iter().zip(reference.observations().unwrap()))
            {
                prop_assert_eq!(&br.stats, &rr.stats);
                prop_assert_eq!(&bo.records, &ro.records);
                prop_assert_eq!(&bo.traffic, &ro.traffic);
            }
        }

        // Composed with set-sharding: every shard × batch width reproduces
        // the serial --batch 1 run — baselines included, which keep their
        // lookup on the cell's thread under --shards.
        for shards in [1usize, 2, 8] {
            for batch in [1usize, 7, 4096] {
                let wide = run(&m, metrics, 1, batch, Some(shards));
                prop_assert_eq!(reference.jsonl_lines(), wide.jsonl_lines());
                prop_assert_eq!(reference.epochs_jsonl_lines(), wide.epochs_jsonl_lines());
                prop_assert_eq!(reference.trace_jsonl_lines(), wide.trace_jsonl_lines());
                prop_assert_eq!(reference.lat_jsonl_lines(), wide.lat_jsonl_lines());
                prop_assert_eq!(reference.bw_jsonl_lines(), wide.bw_jsonl_lines());
            }
        }

        // And across --jobs widths at a fixed batch.
        let wide = run(&m, metrics, 4, 64, None);
        prop_assert_eq!(reference.jsonl_lines(), wide.jsonl_lines());
        prop_assert_eq!(reference.lat_jsonl_lines(), wide.lat_jsonl_lines());
        prop_assert_eq!(reference.bw_jsonl_lines(), wide.bw_jsonl_lines());
    }
}

/// Chunk cuts must handle totals that don't divide the batch width: the
/// tail chunk is short, and a warm-up point or epoch boundary landing
/// mid-chunk forces an early cut rather than a mid-chunk observation.
#[test]
fn non_divisible_tail_and_boundary_cuts_stay_identical() {
    let m = ExperimentMatrix::cross(
        "batch_tail",
        &[Design::Bumblebee, Design::Banshee],
        &[SpecProfile::mcf()],
        // 13_337 accesses + tiny()'s warm-up: prime-ish, far from any
        // power-of-two batch multiple.
        &RunConfig::at_scale(256, 13_337),
    );
    let metrics = MetricsConfig {
        epoch_interval: 777, // never aligned with the batch width
        event_capacity: 128,
        sample_rate: 32,
        ..MetricsConfig::default()
    };
    let reference = run(&m, metrics, 1, 1, None);
    for shards in [None, Some(2), Some(3)] {
        for batch in [2usize, 100, 1000, 1 << 20] {
            let b = run(&m, metrics, 1, batch, shards);
            let at = format!("batch={batch} shards={shards:?}");
            assert_eq!(reference.jsonl_lines(), b.jsonl_lines(), "{at}");
            assert_eq!(reference.epochs_jsonl_lines(), b.epochs_jsonl_lines(), "{at}");
            assert_eq!(reference.trace_jsonl_lines(), b.trace_jsonl_lines(), "{at}");
            assert_eq!(reference.lat_jsonl_lines(), b.lat_jsonl_lines(), "{at}");
            assert_eq!(reference.bw_jsonl_lines(), b.bw_jsonl_lines(), "{at}");
        }
    }
}
