//! Differential property suite for set-sharded runs: for randomly drawn
//! run configurations on two workload profiles (mcf, xz), every shard
//! width {1, 2, 3, 8} × batch width {1, 64, 4096} must reproduce the
//! serial run at `--batch 1` (lookup on the cell's thread, one access per
//! chunk) byte for byte — the `SimReport` JSONL line (which carries `CtrlStats`
//! and every cycle-domain invariant: cycles, IPC, hit rate, migrations,
//! over-fetch), the epoch time-series JSONL, the event-trace JSONL, the
//! sampled latency-attribution stream (`AccessRecord`s plus per-path
//! histograms and reconciling summaries), and the cause-attributed
//! traffic/bandwidth stream (`bw.jsonl` — whose per-device cause sums
//! must also reconcile exactly against the report's device byte totals).
//!
//! Runs only with `--features proptest` (the in-repo shim), like the other
//! differential suites.

use memsim_sim::{Design, Engine, ExperimentMatrix, MetricsConfig, RunConfig};
use memsim_trace::SpecProfile;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_runs_are_byte_identical_across_widths(
        xz in proptest::bool::ANY,
        ablation in proptest::bool::ANY,
        accesses in 4_000u64..16_000,
        interval in 500u64..2_000,
    ) {
        let profile = if xz { SpecProfile::named("xz") } else { SpecProfile::mcf() };
        let design = if ablation { Design::Ablation("M-Only") } else { Design::Bumblebee };
        let cfg = RunConfig::at_scale(256, accesses);
        let m = ExperimentMatrix::cross("shard_diff", &[design], &[profile], &cfg);
        let metrics = MetricsConfig {
            epoch_interval: interval,
            event_capacity: 256,
            sample_rate: 16,
            ..MetricsConfig::default()
        };

        let reference = Engine::new(1).with_metrics(metrics).with_batch(1).run(&m).unwrap();
        // The reference must actually carry the invariants being compared.
        prop_assert!(!reference.jsonl_lines().is_empty());
        prop_assert!(!reference.epochs_jsonl_lines().is_empty());
        prop_assert!(!reference.trace_jsonl_lines().is_empty());
        prop_assert!(!reference.lat_jsonl_lines().is_empty());
        prop_assert!(!reference.bw_jsonl_lines().is_empty());
        let report = &reference.reports()[0];
        prop_assert!(report.cycles > 0);
        prop_assert_eq!(report.stats.total_accesses(), cfg.warmup + cfg.accesses);
        // Sampled records reconcile against the controller counters.
        let obs = &reference.observations().unwrap()[0];
        prop_assert_eq!(obs.path_counts.iter().sum::<u64>(), cfg.warmup + cfg.accesses);
        prop_assert_eq!(obs.path_counts[0] + obs.path_counts[1], report.stats.hbm_hits);
        prop_assert_eq!(
            obs.path_counts[2] + obs.path_counts[3] + obs.path_counts[4],
            report.stats.offchip_serves
        );
        prop_assert!(!obs.records.is_empty());
        for w in obs.records.windows(2) {
            prop_assert!(w[0].seq < w[1].seq, "records seq-sorted");
        }
        for r in &obs.records {
            prop_assert_eq!(r.lookup + r.queue + r.service + r.stall, r.total);
        }
        // The cause-attributed byte sums reconcile exactly against the
        // devices' undifferentiated counters — no transaction escapes the
        // taxonomy, none is double-counted.
        memsim_obs::reconcile(&obs.traffic.matrix, report.hbm_bytes, report.dram_bytes)
            .map_err(|e| TestCaseError::fail(e))?;

        for shards in [1usize, 2, 3, 8] {
            for batch in [1usize, 64, 4096] {
                let n = Engine::new(1)
                    .with_metrics(metrics)
                    .with_shards(Some(shards))
                    .with_batch(batch)
                    .run(&m)
                    .unwrap();
                // SimReport line: CtrlStats + cycle-domain invariants.
                prop_assert_eq!(reference.jsonl_lines(), n.jsonl_lines());
                // Epoch time-series, byte for byte.
                prop_assert_eq!(reference.epochs_jsonl_lines(), n.epochs_jsonl_lines());
                // Event trace, byte for byte.
                prop_assert_eq!(reference.trace_jsonl_lines(), n.trace_jsonl_lines());
                // Sampled latency stream, byte for byte — and the
                // underlying record vector, not just its rendering.
                prop_assert_eq!(reference.lat_jsonl_lines(), n.lat_jsonl_lines());
                prop_assert_eq!(&n.observations().unwrap()[0].records, &obs.records);
                // Traffic/bandwidth stream, byte for byte — and the
                // underlying matrix, not just its rendering.
                prop_assert_eq!(reference.bw_jsonl_lines(), n.bw_jsonl_lines());
                prop_assert_eq!(&n.observations().unwrap()[0].traffic, &obs.traffic);
                // The summed CtrlStats struct itself, not just its rendering.
                prop_assert_eq!(&n.reports()[0].stats, &report.stats);
            }
        }

        // The record and traffic streams are also invariant across --jobs
        // widths.
        let wide = Engine::new(4).with_metrics(metrics).with_shards(Some(2)).run(&m).unwrap();
        prop_assert_eq!(reference.lat_jsonl_lines(), wide.lat_jsonl_lines());
        prop_assert_eq!(reference.bw_jsonl_lines(), wide.bw_jsonl_lines());
    }
}
