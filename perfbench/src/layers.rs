//! The traced run (`--trace 1`): each layer timed from outside, around the
//! calls into its public functions, then reconciled against the untraced
//! end-to-end time. Nothing here depends on the program's span profiler.

use crate::checks::{self, Tally};
use crate::decompose::{self, CellTrace};
use crate::{bb_speedup, design_speedup, median, ratio, suite, Metrics, Prepared, Timed, MB};
use memsim_sim::{run_design_batched, run_design_sharded, Design, SimReport, DEFAULT_BATCH};
use memsim_types::AccessPath;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The designs whose lookup and set-up are reported, in metric order.
const DESIGNS: [Design; 7] = [
    Design::Bumblebee,
    Design::NoHbm,
    Design::Banshee,
    Design::Alloy,
    Design::Unison,
    Design::Chameleon,
    Design::Hybrid2,
];

/// Runs every traced measurement of `p`'s workload, recording each cell's
/// checks in `tally`, the per-layer metrics in `m` and the human-readable
/// lines in `text`.
pub fn traced(
    p: &Prepared,
    timed: &Timed,
    dir: &Path,
    tally: &mut Tally,
    m: &mut Metrics,
    text: &mut String,
) -> io::Result<()> {
    let jsonl_s = jsonl_layer(p, timed, dir, tally, m)?;
    let reference = shard_layer(p, timed, tally, m, text)?;
    let obs_s = obs_layer(p, timed, &reference, tally, m)?;

    let traces: Vec<CellTrace> = p.matrix.cells().iter().map(decompose::trace_cell).collect();
    for (id, (cell, tr)) in p.matrix.cells().iter().zip(&traces).enumerate() {
        tally.record(
            id,
            checks::measured(&tr.report, cell.cfg.accesses, tr.measured_accesses),
        );
        tally.record(
            id,
            checks::same_report("traced pass", &tr.report, &reference[id]),
        );
        tally.record(
            id,
            checks::same_report("twin + replay", &tr.replay_report, &reference[id]),
        );
        if !tr.timed_replay_matches {
            tally.record(
                id,
                Err("timed device replay diverged from its schedule".into()),
            );
        }
    }
    layer_metrics(p, &traces, m);
    reconcile(p, timed, &traces, obs_s, jsonl_s, m, text);
    setup_metrics(p, m);

    let best = bb_vs_best(p, &reference);
    m.put("fig8.bb_vs_best", best, "ratio");
    let _ = writeln!(
        text,
        "simulated ratios (the model compresses speedups, EXPERIMENTS.md note 1): \
         bb_speedup {:.4} (paper Fig. 7: 2.00), bb_vs_best {best:.4} (paper Fig. 8 All: 1.352)",
        bb_speedup(&p.matrix, &timed.reports)
    );
    Ok(())
}

/// One more engine run whose JSONL streams are encoded and written with
/// each call timed; returns the encode + write seconds.
fn jsonl_layer(
    p: &Prepared,
    timed: &Timed,
    dir: &Path,
    tally: &mut Tally,
    m: &mut Metrics,
) -> io::Result<f64> {
    let results = p.kind.engine().run(&p.matrix).map_err(io::Error::other)?;
    for (id, r) in results.reports().iter().enumerate() {
        tally.record(id, checks::same_report("jsonl pass", r, &timed.reports[id]));
    }
    let (mut encode_s, mut write_s) = (0.0, 0.0);
    for name in suite::STREAMS {
        let mut mb = 0.0;
        if suite::streams(p.kind).contains(&name) {
            let t = Instant::now();
            let lines = suite::encode(&results, name);
            encode_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let path = memsim_sim::write_jsonl(dir, &suite::stem(p.kind, name), &lines)?;
            write_s += t.elapsed().as_secs_f64();
            mb = std::fs::metadata(path)?.len() as f64 / MB;
        }
        m.put(&format!("jsonl.{name}_mb"), mb, "MB");
    }
    m.put("jsonl.encode_ms", encode_s * 1e3, "ms");
    m.put("jsonl.write_ms", write_s * 1e3, "ms");
    Ok(encode_s + write_s)
}

/// The reference reports from `run_design_batched`: the engine's own on
/// the serial workloads. On the sharded one each shardable cell runs here
/// serially and sharded, which times the shard layer and measures the
/// serial-vs-sharded divergence.
fn shard_layer(
    p: &Prepared,
    timed: &Timed,
    tally: &mut Tally,
    m: &mut Metrics,
    text: &mut String,
) -> io::Result<Vec<SimReport>> {
    let mut reference = timed.reports.clone();
    let (mut serial_s, mut sharded_s, mut accesses, mut gap) = (0.0, 0.0, 0.0, 0.0f64);
    if let Some(shards) = p.kind.shards() {
        for (id, cell) in p.matrix.cells().iter().enumerate() {
            if !cell.design.supports_sharding() {
                continue;
            }
            let (design, cfg, profile) = (cell.design, &cell.cfg, &cell.profile);
            let t = Instant::now();
            let serial = run_design_batched(design, cfg, profile, None, DEFAULT_BATCH);
            serial_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let sharded = run_design_sharded(design, cfg, profile, None, shards, DEFAULT_BATCH);
            sharded_s += t.elapsed().as_secs_f64();
            let serial = serial.map_err(io::Error::other)?.0;
            let sharded = sharded.map_err(io::Error::other)?.0;
            tally.record(
                id,
                checks::same_report("run_design_sharded", &sharded, &timed.reports[id]),
            );
            let g = (sharded.ipc / serial.ipc - 1.0) * 100.0;
            if g.abs() > gap.abs() {
                gap = g;
            }
            accesses += (cfg.warmup + cfg.accesses) as f64;
            reference[id] = serial;
        }
        let _ = writeln!(
            text,
            "shard: Bumblebee IPC under --shards {shards} vs serial {gap:+.2}% (largest over \
             profiles) -- a known model divergence, not a failure; ROADMAP item 1 removes it"
        );
    }
    m.put(
        "shard.ns_per_access",
        ratio(sharded_s * 1e9, accesses),
        "ns",
    );
    m.put("shard.speedup", ratio(serial_s, sharded_s), "ratio");
    m.put("shard.ipc_gap_pct", gap, "%");
    Ok(reference)
}

/// On the observed workload, each cell with and without its
/// `MetricsConfig`, alternating so host drift hits both sides alike;
/// returns the seconds recording added.
fn obs_layer(
    p: &Prepared,
    timed: &Timed,
    reference: &[SimReport],
    tally: &mut Tally,
    m: &mut Metrics,
) -> io::Result<f64> {
    let (mut with_s, mut without_s) = (0.0, 0.0);
    if let Some(metrics) = p.kind.metrics() {
        for (id, cell) in p.matrix.cells().iter().enumerate() {
            let (design, cfg, profile) = (cell.design, &cell.cfg, &cell.profile);
            let t = Instant::now();
            let plain = run_design_batched(design, cfg, profile, None, DEFAULT_BATCH);
            without_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let observed = run_design_batched(design, cfg, profile, Some(&metrics), DEFAULT_BATCH);
            with_s += t.elapsed().as_secs_f64();
            for r in [plain, observed] {
                let r = r.map_err(io::Error::other)?.0;
                tally.record(
                    id,
                    checks::same_report("run_design_batched", &r, &reference[id]),
                );
            }
        }
    }
    let overhead = if without_s > 0.0 {
        (with_s / without_s - 1.0) * 100.0
    } else {
        0.0
    };
    m.put("obs.record_overhead_pct", overhead, "%");
    m.put("obs.lat_records", timed.lat_records as f64, "count");
    m.put("obs.dropped_records", timed.dropped_records as f64, "count");
    Ok(with_s - without_s)
}

/// Per-layer metrics of the decomposition loop.
fn layer_metrics(p: &Prepared, traces: &[CellTrace], m: &mut Metrics) {
    let cells = p.matrix.cells();
    let of = |d: Design| -> Vec<&CellTrace> {
        cells
            .iter()
            .zip(traces)
            .filter(|(c, _)| c.design == d)
            .map(|(_, t)| t)
            .collect()
    };
    let total = |ts: &[&CellTrace], f: fn(&CellTrace) -> u64| -> f64 {
        ts.iter().map(|t| f(t)).sum::<u64>() as f64
    };
    let all: Vec<&CellTrace> = traces.iter().collect();
    let acc = total(&all, |t| t.accesses);

    m.put(
        "trace.ns_per_access",
        total(&all, |t| t.fill_ns) / acc,
        "ns",
    );

    let bee = of(Design::Bumblebee);
    let bee_acc = total(&bee, |t| t.accesses);
    let lookup_ns = ratio(total(&bee, |t| t.lookup_ns), bee_acc);
    m.put("core.lookup_ns_per_access", lookup_ns, "ns");
    m.put(
        "core.plan_ops_per_access",
        ratio(total(&bee, |t| t.plan_ops), bee_acc),
        "count",
    );
    let hits = total(&bee, |t| t.report.stats.hbm_hits);
    let serves = total(&bee, |t| t.report.stats.offchip_serves);
    m.put("core.hbm_hit_rate", ratio(hits, hits + serves), "ratio");
    let migrations = total(&bee, |t| t.report.stats.page_migrations);
    m.put(
        "core.migrations_per_kacc",
        ratio(migrations * 1e3, bee_acc),
        "1/kacc",
    );
    let path_total = bee.iter().flat_map(|t| t.path_counts).sum::<u64>() as f64;
    for path in AccessPath::ALL {
        let n = bee.iter().map(|t| t.path_counts[path.index()]).sum::<u64>() as f64;
        m.put(
            &format!("core.path.{}", path.label()),
            ratio(n, path_total),
            "ratio",
        );
    }

    for d in &DESIGNS[1..] {
        let ts = of(*d);
        let ns = ratio(total(&ts, |t| t.lookup_ns), total(&ts, |t| t.accesses));
        m.put(
            &format!("baselines.{}.lookup_ns_per_access", slug(*d)),
            ns,
            "ns",
        );
    }

    let (hbm_ns, off_ns) = (total(&all, |t| t.hbm_ns), total(&all, |t| t.offchip_ns));
    let (hbm_ops, off_ops) = (total(&all, |t| t.hbm_ops), total(&all, |t| t.offchip_ops));
    m.put("dram.hbm.ns_per_op", ratio(hbm_ns, hbm_ops), "ns");
    m.put("dram.offchip.ns_per_op", ratio(off_ns, off_ops), "ns");
    m.put("dram.hbm.ops_per_access", hbm_ops / acc, "count");
    m.put("dram.offchip.ops_per_access", off_ops / acc, "count");
    // Busy share of every channel over the run, over the cells that use
    // the device (No-HBM leaves the HBM idle by design).
    let busy = |uses: fn(Design) -> bool, f: fn(&CellTrace) -> &[u64]| {
        let (mut busy, mut span) = (0.0, 0.0);
        for (_, t) in cells.iter().zip(traces).filter(|(c, _)| uses(c.design)) {
            busy += f(t).iter().sum::<u64>() as f64;
            span += f(t).len() as f64 * t.end_cycles as f64;
        }
        ratio(busy, span) * 100.0
    };
    m.put(
        "dram.hbm.busy_pct",
        busy(|d| d.uses_hbm(), |t| &t.hbm_busy),
        "%",
    );
    m.put(
        "dram.offchip.busy_pct",
        busy(|_| true, |t| &t.offchip_busy),
        "%",
    );

    let service = total(&all, |t| t.step_ns) - total(&all, |t| t.lookup_ns) - hbm_ns - off_ns;
    m.put("sim.service_ns_per_access", service / acc, "ns");
}

/// The reconciliation line: end-to-end ns per access against the sum of
/// the layers, the residual, and the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn reconcile(
    p: &Prepared,
    timed: &Timed,
    traces: &[CellTrace],
    obs_s: f64,
    jsonl_s: f64,
    m: &mut Metrics,
    text: &mut String,
) {
    let acc = p.accesses as f64;
    let sum = |f: fn(&CellTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;
    let untraced_s = median(timed.walls.clone()) - p.setup_s;
    let e2e = untraced_s * 1e9 / acc;
    let (fill, step, lookup) = (sum(|t| t.fill_ns), sum(|t| t.step_ns), sum(|t| t.lookup_ns));
    let dram = sum(|t| t.hbm_ns) + sum(|t| t.offchip_ns);
    let (obs, jsonl) = (obs_s * 1e9 / acc, jsonl_s * 1e9 / acc);
    let layers = (fill + step) / acc + obs + jsonl;
    let residual = e2e - layers;
    let traced_s = sum(|t| t.wall_ns) / 1e9;
    let overhead = (traced_s / (untraced_s - jsonl_s) - 1.0) * 100.0;
    m.put("sim.residual_ns_per_access", residual, "ns");
    m.put("recon.e2e_ns_per_access", e2e, "ns");
    m.put("recon.layer_sum_ns_per_access", layers, "ns");
    m.put("recon.residual_pct", residual / e2e * 100.0, "%");
    m.put("recon.trace_overhead_pct", overhead, "%");
    let _ = writeln!(
        text,
        "reconcile {}: e2e {e2e:.1} ns/acc vs layers {layers:.1} = trace {:.1} + lookup {:.1} \
         + service {:.1} + dram {:.1} + obs {obs:.1} + jsonl {jsonl:.1}; residual {residual:+.1} ns \
         ({:+.1}%); traced wall {traced_s:.2} s vs untraced {:.2} s ({overhead:+.0}%){}",
        p.kind.name(),
        fill / acc,
        lookup / acc,
        (step - lookup - dram) / acc,
        dram / acc,
        residual / e2e * 100.0,
        untraced_s - jsonl_s,
        if p.kind.shards().is_some() {
            " [layers are the serial pipeline, e2e the sharded one]"
        } else {
            ""
        },
    );
}

/// Set-up per design (mean ms per cell) and per generator.
fn setup_metrics(p: &Prepared, m: &mut Metrics) {
    let cells = p.matrix.cells();
    for d in DESIGNS {
        let n = cells.iter().filter(|c| c.design == d).count();
        let per_rep = |s: &suite::SetupSample| {
            s.build_s
                .iter()
                .find(|(l, _)| *l == d.label())
                .map_or(0.0, |x| x.1)
        };
        let ms = ratio(
            median(p.setup.iter().map(per_rep).collect()) * 1e3,
            n as f64,
        );
        m.put(&format!("setup.build_ms.{}", slug(d)), ms, "ms");
    }
    let workload_s = median(p.setup.iter().map(|s| s.workload_s).collect());
    m.put(
        "setup.workload_ms",
        workload_s * 1e3 / cells.len() as f64,
        "ms",
    );
}

/// Bumblebee's speedup over the best Fig. 8 baseline's, both geomeans over
/// the profiles (0 when the workload runs no baseline).
fn bb_vs_best(p: &Prepared, reports: &[SimReport]) -> f64 {
    let best = Design::fig8()
        .into_iter()
        .filter(|d| *d != Design::Bumblebee && p.matrix.cells().iter().any(|c| c.design == *d))
        .map(|d| design_speedup(&p.matrix, reports, d))
        .fold(0.0, f64::max);
    ratio(bb_speedup(&p.matrix, reports), best)
}

/// The metric-name form of a design label.
fn slug(d: Design) -> String {
    d.label().to_lowercase()
}
